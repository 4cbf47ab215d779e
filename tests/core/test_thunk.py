import pytest

from repro.core.query_store import QueryStore
from repro.core.thunk import QueryThunk, Thunk, ThunkBlock, force, is_thunk


def test_thunk_defers_and_memoizes():
    calls = []
    t = Thunk(lambda: calls.append(1) or 42)
    assert not t.is_forced
    assert not calls
    assert t.force() == 42
    assert t.force() == 42
    assert calls == [1]


def test_underscore_force_alias():
    t = Thunk(lambda: 7)
    assert t._force() == 7


def test_chained_thunks_collapse():
    inner = Thunk(lambda: 5)
    outer = Thunk(lambda: inner)
    assert outer.force() == 5


def test_force_passthrough_for_plain_values():
    assert force(3) == 3
    assert force(None) is None


def test_is_thunk():
    assert is_thunk(Thunk(lambda: 1))
    assert not is_thunk(42)


def test_thunk_block_runs_once_for_all_outputs():
    calls = []

    def body():
        calls.append(1)
        return {"a": 1, "b": Thunk(lambda: 2)}

    block = ThunkBlock(body)
    a = block.output("a")
    b = block.output("b")
    assert b.force() == 2  # nested thunk output is collapsed
    assert a.force() == 1
    assert calls == [1]


def test_thunk_block_requires_dict():
    block = ThunkBlock(lambda: [1, 2])
    with pytest.raises(TypeError):
        block.force_block()


def test_thunk_block_non_dict_variants():
    for bad_body in (lambda: [1, 2], lambda: None, lambda: 42,
                     lambda: (("a", 1),)):
        block = ThunkBlock(bad_body)
        with pytest.raises(TypeError):
            block.force_block()


def test_thunk_block_failed_body_can_retry():
    calls = []

    def body():
        calls.append(1)
        raise TypeError("boom")

    block = ThunkBlock(body)
    with pytest.raises(TypeError):
        block.force_block()
    assert not block.is_forced  # a failed body does not poison the block
    with pytest.raises(TypeError):
        block.force_block()
    assert calls == [1, 1]


def test_thunk_block_forced_once_across_many_outputs_and_forces():
    calls = []

    def body():
        calls.append(1)
        return {"a": 1, "b": 2, "c": Thunk(lambda: 3)}

    block = ThunkBlock(body)
    outputs = [block.output(name) for name in ("a", "b", "c", "a")]
    assert [t.force() for t in outputs] == [1, 2, 3, 1]
    assert [t.force() for t in outputs] == [1, 2, 3, 1]  # memoized
    assert calls == [1]


def test_thunk_block_unknown_output_raises_keyerror():
    block = ThunkBlock(lambda: {"a": 1})
    with pytest.raises(KeyError):
        block.output("missing").force()


def test_runtime_accounting(sim_stack):
    from repro.core.runtime import SlothRuntime

    db, clock, server, driver, batch_driver = sim_stack
    runtime = SlothRuntime(batch_driver, clock, server.cost_model)
    before = clock.phase_time("app")
    t = runtime.defer(lambda: 1)
    assert clock.phase_time("app") > before
    assert runtime.stats.thunks_allocated == 1
    t.force()
    assert runtime.stats.forces == 1
    assert runtime.stats is runtime.query_store.stats  # one per request


class _CountingRuntime:
    """The two accounting hooks a thunk calls, counted."""

    def __init__(self):
        self.allocated = self.forces = 0

    def on_thunk_allocated(self):
        self.allocated += 1

    def on_force(self):
        self.forces += 1


def test_thunk_block_charges_itself_and_its_live_outputs_only():
    runtime = _CountingRuntime()
    block = ThunkBlock(lambda: {"t": 1, "x": 2}, runtime=runtime)
    x = block.output("x")
    t = block.output("t", live=False)  # a dead temporary (§4.3)
    assert runtime.allocated == 2  # the block + its one live output
    assert (t.force(), x.force()) == (1, 2)
    assert runtime.forces == 2  # the block once, the live output once
    assert (t.force(), x.force()) == (1, 2) and runtime.forces == 2


def test_thunk_whose_function_raises_stays_unforced_and_retries():
    runtime = _CountingRuntime()
    attempts = []

    def flaky():
        attempts.append(1)
        if len(attempts) < 3:
            raise ValueError("not yet")
        return Thunk(lambda: "ready")

    thunk = Thunk(flaky, runtime=runtime)
    for _ in range(2):
        with pytest.raises(ValueError):
            thunk.force()
        assert not thunk.is_forced  # a failed force does not poison it
    assert runtime.forces == 2  # each attempt is a force, and charged
    assert thunk.force() == "ready" and thunk.is_forced
    assert thunk.force() == "ready"  # memoized from here on
    assert (len(attempts), runtime.forces, runtime.allocated) == (3, 3, 1)


def test_query_thunk_whose_deserialiser_raises_stays_unforced(sim_stack):
    db, clock, server, driver, batch_driver = sim_stack
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t (id, v) VALUES (1, 10)")
    runtime = _CountingRuntime()
    seen = []

    def deserialize(result_set):
        seen.append(result_set)
        if len(seen) == 1:
            raise ValueError("bad row")
        return result_set.scalar()

    thunk = QueryThunk(QueryStore(batch_driver), "SELECT v FROM t WHERE id = ?",
                       (1,), deserialize, runtime=runtime)
    query_id = thunk.query_id
    with pytest.raises(ValueError):
        thunk.force()
    assert not thunk.is_forced and thunk._fn is deserialize
    assert thunk.force() == 10 and thunk.is_forced
    # Two forces charged, one round trip: the second fetch found the
    # result on the id.
    assert (runtime.forces, batch_driver.stats.round_trips) == (2, 1)
    assert seen[0] is seen[1] is query_id.result
    # Forced: the deserialiser is released, the id (and its result) kept.
    assert thunk._fn is None and thunk.query_id is query_id
    assert thunk.force() == 10 and runtime.forces == 2 and len(seen) == 2


def test_query_thunk_without_a_deserialiser_delivers_the_result_set(
        sim_stack):
    db, clock, server, driver, batch_driver = sim_stack
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t (id, v) VALUES (1, 10)")
    thunk = QueryThunk(QueryStore(batch_driver), "SELECT v FROM t")
    assert thunk.force() is thunk.query_id.result
    assert thunk.force().rows == [(10,)]
