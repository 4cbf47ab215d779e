"""EXPLAIN and EXPLAIN ANALYZE: the optimizer's estimates beside what ran.

Builds the OpenMRS application database and takes one of its report
statements, a three-table join.  ``Database.explain`` prints the plan the
statement executes (the executor's cached plan), one line an operator,
each row source with the optimizer's estimate.  With ``analyze=True`` the
plan runs once and every line of the same tree ends in ``actual [...]``:
the rows the operator produced and, where the line has an estimate, the
q-error between the two.

Run:  python examples/explain_plan.py
"""

from repro.apps import openmrs
from repro.apps.openmrs.reports import REPORT_QUERIES

STATEMENT = "encounter_concept_numeric_report"

GUIDE = """\
How to read it:
  (~N rows, ~M touched)  the estimate: N rows out of the operator, M
                         storage rows read by it and the operators below
  actual [rows=A, ...]   the rows the operator produced in this run
  q=Q                    Q = max(N / A, A / N), both floored at 1: 1.0 is
                         an exact estimate, 3.0 one off by 3x either way
  chunks=, sel=, time=   chunks the operator yielded, the share of their
                         rows still live, and inclusive wall time
Project / Aggregate / Distinct / Sort / Limit carry no estimate, so no q.
The header's rows_touched is what the simulated server charges for."""


def main():
    db, _ = openmrs.build_app()
    sql, params = {name: (sql, params)
                   for name, sql, params in REPORT_QUERIES}[STATEMENT]
    print(f"{STATEMENT}, params {params}:\n  {sql}\n")
    print("EXPLAIN")
    print(db.explain(sql))
    print()
    print(db.explain(sql, params, analyze=True))
    print()
    print(GUIDE)


if __name__ == "__main__":
    main()
