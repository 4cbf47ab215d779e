"""OpenMRS: the medical-record benchmark application.

``build_app(scale=...)`` returns a seeded database and a dispatcher with the
112 page benchmarks from the paper's appendix registered under their
original JSP names.
"""

from repro.apps.openmrs.pages import build_app, build_dispatcher

__all__ = ["build_app", "BENCHMARK_URLS"]


def __getattr__(name):  # BENCHMARK_URLS: built at first read, not import
    if name != "BENCHMARK_URLS":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    global BENCHMARK_URLS
    BENCHMARK_URLS = tuple(build_dispatcher().urls())
    return BENCHMARK_URLS
