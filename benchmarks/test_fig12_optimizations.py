"""Fig. 12: optimization ablation (noopt / SC / SC+TC / SC+TC+BD / +SS)."""

from repro.bench.experiments import fig12_optimizations


def test_fig12_optimizations(benchmark):
    result = benchmark.pedantic(fig12_optimizations.run, rounds=1,
                                iterations=1)
    print()
    print(fig12_optimizations.format_result(result))

    for app in ("itracker", "openmrs"):
        per_config = result[app]["times"]
        # Paper: each optimization helps, in the order they are enabled.
        assert per_config["SC"] < per_config["noopt"]
        assert per_config["SC+TC"] < per_config["SC"]
        assert per_config["SC+TC+BD"] < per_config["SC+TC"]
        # Paper: >2x difference between none and all optimizations (our
        # miniature controllers land somewhat lower).
        assert per_config["noopt"] / per_config["SC+TC+BD"] > 1.4
        # Branch deferral contributes a real, positive gain.  (In the
        # paper BD is the largest single win; our miniature controllers
        # have far fewer branch sites than 300k lines of Java, so its
        # share is smaller here.)
        gain_bd = per_config["SC+TC"] - per_config["SC+TC+BD"]
        assert gain_bd > 0
        # The batch shared-scan series: merging union-compatible SELECTs
        # into one scan never makes a batch slower (a shared group costs
        # at most what its most expensive member cost alone), and on these
        # workloads it finds real sharing to report.
        assert per_config["SC+TC+BD+SS"] <= per_config["SC+TC+BD"] * 1.001
        assert result[app]["rows_saved"] > 0
