"""Property-based test of the paper's soundness theorem.

For randomly generated kernel programs, running under standard semantics
and extended lazy semantics (with and without §4 optimizations) must yield
identical final environments, databases and output traces once every thunk
is forced — and the lazy run must never use *more* database round trips
than the standard one.  The lazy runs go through ``repro.core``: random
whole programs exercise the production dedup key, write barrier and batch
accounting.

That is all the paper claims.  An optimization is *not* monotone against
the basic compiler — a block costs one allocation plus its live outputs and
evaluates its dead assignments, so thunk coalescing and branch deferral can
each allocate one thunk more, or force one batch earlier, than no
optimization at all; ``test_interpreters.py`` pins those programs with
their exact counts.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiler import kernel as K
from repro.compiler.lazy_interp import LazyInterpreter
from repro.compiler.optimize import OptimizationPlan
from repro.compiler.standard_interp import StandardInterpreter
from repro.core.runtime import OptimizationFlags

VARS = ("a", "b", "c", "d")


def exprs(depth):
    """Expressions over pre-bound variables a-d (always defined)."""
    leaf = st.one_of(
        st.integers(min_value=0, max_value=9).map(K.Const),
        st.sampled_from(VARS).map(K.Var),
    )
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(st.sampled_from(("+", "-", "*")), sub, sub).map(
            lambda t: K.BinOp(t[0], t[1], t[2])),
        sub.map(lambda e: K.Read(e)),
    )


def conditions():
    return st.tuples(
        st.sampled_from(("<", ">", "=")),
        st.sampled_from(VARS).map(K.Var),
        st.integers(min_value=0, max_value=9).map(K.Const),
    ).map(lambda t: K.BinOp(t[0], t[1], t[2]))


def statements(depth):
    assign = st.tuples(st.sampled_from(VARS), exprs(2)).map(
        lambda t: K.Assign(K.Var(t[0]), t[1]))
    write = exprs(1).map(K.WriteQuery)
    output = exprs(1).map(K.Output)
    base = st.one_of(assign, assign, assign, write, output)
    if depth == 0:
        return base
    sub = statements(depth - 1)
    branch = st.tuples(conditions(),
                       st.lists(sub, min_size=1, max_size=3),
                       st.lists(sub, min_size=0, max_size=2)).map(
        lambda t: K.If(t[0], K.Seq(t[1]), K.Seq(t[2])))
    return st.one_of(base, base, branch)


programs = st.lists(statements(2), min_size=1, max_size=12).map(
    lambda stmts: K.Program(K.Seq(stmts)))

initial_dbs = st.dictionaries(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    max_size=6)

ENV0 = {"a": 1, "b": 2, "c": 3, "d": 4}


def check_equivalent(program, db, plan):
    std = StandardInterpreter(program, db).run(dict(ENV0))
    lazy = LazyInterpreter(program, db, plan).run(dict(ENV0))
    assert lazy.env == std.env
    assert lazy.db == std.db
    assert lazy.output == std.output
    assert lazy.round_trips <= std.round_trips
    return std, lazy


@given(programs, initial_dbs)
@settings(max_examples=120, deadline=None)
def test_basic_lazy_equals_standard(program, db):
    check_equivalent(program, db, None)


@pytest.mark.parametrize(
    "flags", list(itertools.product((False, True), repeat=3)),
    ids=lambda flags: OptimizationFlags(*flags).label())
@given(programs, initial_dbs)
@settings(max_examples=60, deadline=None)
def test_lazy_equals_standard_under_every_plan(flags, program, db):
    check_equivalent(program, db, OptimizationPlan(program, *flags))
