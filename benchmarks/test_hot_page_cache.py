"""Hot-page loads through the cross-request result cache.

Asserts the tentpole claim of the result-cache subsystem: repeated
identical page loads are served from the cache — zero storage rows
touched, byte-identical output, and a measurable speedup (dramatic on the
database phase the cache eliminates, strictly positive on total load
time) — on all three benchmark applications, in both execution modes.
"""

from repro.bench.experiments import hot_page_cache


def test_hot_page_cache(benchmark):
    result = benchmark.pedantic(hot_page_cache.run, rounds=1, iterations=1)
    print()
    print(hot_page_cache.format_result(result))

    measurements = [
        (f"{app}:{mode}", numbers)
        for app, per_app in result.items()
        for mode, numbers in per_app.items()
        if mode not in ("cache", "driver")
    ]
    assert len(measurements) == 5  # itracker/openmrs x 2 modes + tpcc batch
    for label, numbers in measurements:
        # Hot loads executed nothing: every cached statement touched zero
        # storage rows and returned byte-identical output.
        assert numbers["hot_rows_touched"] == 0, label
        assert numbers["output_identical"], label
        assert numbers["result_cache_hits"] > 0, label
        # The database phase all but disappears...
        assert numbers["db_speedup"] > 2, label
        # ...and the total load time strictly improves (network and
        # rendering are untouched by a server-side cache, so the total
        # win is bounded by the page's database share).
        assert numbers["hot_ms_per_load"] < numbers["cold_ms"], label
        assert numbers["speedup"] > 1.01, label

    # The cache observed real traffic: hits dominate misses on hot loads
    # and nothing was spuriously invalidated (these pages only read).
    for app in ("itracker", "openmrs", "tpcc"):
        stats = result[app]["cache"]
        assert stats["hits"] > stats["misses"], app
        assert stats["invalidations"] == 0, app

    # The driver's record surfaces the hits (what the harness and the
    # exported JSON read); the "batch" record's hits are the same counter.
    assert result["tpcc"]["driver"]["result_cache_hits"] > 0
