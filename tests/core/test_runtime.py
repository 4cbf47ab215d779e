import pytest

from repro.core.runtime import OptimizationFlags, SlothRuntime


@pytest.fixture
def runtime_factory(sim_stack):
    db, clock, server, driver, batch_driver = sim_stack
    db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
    db.execute("INSERT INTO t (id, v) VALUES (1, 10)")

    def make(flags=None, lazy=True):
        return SlothRuntime(batch_driver, clock, server.cost_model,
                            optimizations=flags, lazy_mode=lazy), clock

    return make


class TestOptimizationFlags:
    def test_labels(self):
        assert OptimizationFlags.none().label() == "noopt"
        assert OptimizationFlags.all().label() == "SC+TC+BD"
        assert OptimizationFlags(True, False, True).label() == "SC+BD"

    def test_constructors(self):
        none = OptimizationFlags.none()
        assert not (none.selective_compilation or none.thunk_coalescing
                    or none.branch_deferral)


class TestRunOps:
    def test_nonlazy_mode_charges_plain_cost(self, runtime_factory):
        runtime, clock = runtime_factory(lazy=False)
        before = clock.phase_time("app")
        runtime.run_ops(100)
        cost = clock.phase_time("app") - before
        assert cost == pytest.approx(
            runtime.cost_model.app_op_ms * 100)

    def test_lazy_ops_cost_more_than_plain(self, runtime_factory):
        lazy_rt, clock = runtime_factory(OptimizationFlags.none())
        before = clock.phase_time("app")
        lazy_rt.run_ops(100)
        lazy_cost = clock.phase_time("app") - before

        plain_rt, clock = runtime_factory(lazy=False)
        before = clock.phase_time("app")
        plain_rt.run_ops(100)
        plain_cost = clock.phase_time("app") - before
        assert lazy_cost > 2 * plain_cost  # §3.2's overhead

    def test_coalescing_reduces_op_cost(self, runtime_factory):
        no_tc, clock = runtime_factory(OptimizationFlags(False, False, True))
        before = clock.phase_time("app")
        no_tc.run_ops(100)
        cost_no_tc = clock.phase_time("app") - before

        tc, clock = runtime_factory(OptimizationFlags(False, True, True))
        before = clock.phase_time("app")
        tc.run_ops(100)
        cost_tc = clock.phase_time("app") - before
        assert cost_tc < cost_no_tc

    def test_selective_compilation_exempts_nonpersistent(
            self, runtime_factory):
        sc, clock = runtime_factory(OptimizationFlags(True, False, False))
        before = clock.phase_time("app")
        sc.run_ops(100, persistent=False)
        cost = clock.phase_time("app") - before
        assert cost == pytest.approx(sc.cost_model.app_op_ms * 100)

    def test_without_bd_ops_flush_pending_batches(self, runtime_factory):
        runtime, _ = runtime_factory(OptimizationFlags(True, True, False))
        runtime.query("SELECT v FROM t WHERE id = ?", (1,))
        assert runtime.query_store.pending_count == 1
        runtime.run_ops(10)  # contains branch points -> forces
        assert runtime.query_store.pending_count == 0
        assert runtime.driver.stats.round_trips == 1

    def test_with_bd_ops_keep_batch_pending(self, runtime_factory):
        runtime, _ = runtime_factory(OptimizationFlags.all())
        runtime.query("SELECT v FROM t WHERE id = ?", (1,))
        runtime.run_ops(10)
        assert runtime.query_store.pending_count == 1
        assert runtime.driver.stats.round_trips == 0


class TestRequestLifecycle:
    def test_finish_request_flushes(self, runtime_factory):
        runtime, _ = runtime_factory()
        runtime.query("SELECT v FROM t WHERE id = ?", (1,))
        runtime.finish_request()
        assert runtime.query_store.pending_count == 0

    def test_nonlazy_query_executes_immediately(self, runtime_factory):
        runtime, _ = runtime_factory(lazy=False)
        result = runtime.query("SELECT v FROM t WHERE id = ?", (1,))
        assert result.scalar() == 10
        assert runtime.driver.stats.round_trips == 1

    def test_original_mode_runtime_runs_over_the_plain_driver(
            self, sim_stack):
        # What AppServer builds in MODE_ORIGINAL: a non-lazy runtime over a
        # Driver, which has no execute_batch for a query store to call.
        db, clock, server, driver, _ = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        runtime = SlothRuntime(driver, clock, server.cost_model,
                               lazy_mode=False)
        runtime.execute_write("INSERT INTO t (id, v) VALUES (1, 10)")
        value = runtime.query("SELECT v FROM t WHERE id = ?", (1,),
                              deserialize=lambda result: result.scalar())
        assert value == 10
        assert driver.stats.round_trips == 2
        # Nothing went through the store; its stats stay readable, zeroed.
        assert runtime.query_store.stats.queries_registered == 0
        assert runtime.query_store.stats.batches_flushed == 0


class TestAsyncBranchBarrier:
    """With branch deferral off, run_ops' branch-point flush is a true
    barrier even under async dispatch: the forced condition needs its
    results, so nothing may stay in flight."""

    def test_run_ops_barriers_in_flight_batches(self, sim_stack):
        db, clock, server, driver, batch_driver = sim_stack
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, v INT)")
        db.execute("INSERT INTO t (id, v) VALUES (1, 10)")
        flags = OptimizationFlags(True, True, False)  # BD off
        runtime = SlothRuntime(batch_driver, clock, server.cost_model,
                               optimizations=flags,
                               auto_flush_threshold=1, async_dispatch=True)
        runtime.query("SELECT v FROM t WHERE id = 1")  # ships in background
        assert runtime.query_store.in_flight_count == 1
        network_before = clock.phase_time("network")
        runtime.run_ops(5)  # modeled branch point: forces the condition
        assert runtime.query_store.in_flight_count == 0
        # The barrier charged the round trip (nothing could hide it).
        assert clock.phase_time("network") > network_before
