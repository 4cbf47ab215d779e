"""itracker: the issue-management benchmark application.

``build_app(scale=...)`` returns a seeded :class:`repro.sqldb.Database` and
a :class:`repro.web.framework.Dispatcher` with all 38 page benchmarks from
the paper's appendix table registered under their original names.
"""

from repro.apps.itracker.pages import build_app, build_dispatcher

__all__ = ["build_app", "BENCHMARK_URLS"]


def __getattr__(name):  # BENCHMARK_URLS: built at first read, not import
    if name != "BENCHMARK_URLS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global BENCHMARK_URLS
    BENCHMARK_URLS = tuple(build_dispatcher().urls())
    return BENCHMARK_URLS
