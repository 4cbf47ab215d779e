"""Embedded relational database engine.

This package is a from-scratch substitute for the MySQL instance used in the
paper's evaluation.  It provides:

- a SQL lexer and recursive-descent parser (:mod:`repro.sqldb.lexer`,
  :mod:`repro.sqldb.parser`),
- a catalog of tables, columns and indexes (:mod:`repro.sqldb.catalog`),
- row storage with secondary hash/ordered indexes (:mod:`repro.sqldb.storage`,
  :mod:`repro.sqldb.indexes`),
- an expression evaluator (:mod:`repro.sqldb.expressions`) and a planner
  subsystem (:mod:`repro.sqldb.plan`) that turns parsed SELECTs into
  logical plans, optimizes them (predicate pushdown, index selection,
  join-strategy choice) and executes Volcano-style physical operators,
- a thin execution facade dispatching statements through the pipeline
  (:mod:`repro.sqldb.executor`),
- a cross-request result cache that a write invalidates when it commits
  (:mod:`repro.sqldb.result_cache`),
- simple transactions with rollback (:mod:`repro.sqldb.transactions`),
- the top-level :class:`repro.sqldb.database.Database` facade.

The executor counts rows touched per statement; the simulated network layer
(:mod:`repro.net`) converts those counters into virtual database time.
"""

from repro.sqldb.database import Database
from repro.sqldb.errors import (
    CatalogError,
    ConstraintError,
    SqlError,
    SqlParseError,
    SqlTypeError,
    TransactionError,
)
from repro.sqldb.result import ExecResult
from repro.sqldb.result_cache import ResultCache

__all__ = [
    "Database",
    "ExecResult",
    "ResultCache",
    "SqlError",
    "SqlParseError",
    "SqlTypeError",
    "CatalogError",
    "ConstraintError",
    "TransactionError",
]
