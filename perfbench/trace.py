"""Span tracing from outside: wraps each layer's public entry points.

Only the traced run installs these wrappers, and only for the rounds it
traces; end-to-end metrics are always measured without them.  A span is
``[layer, name, start, end, parent, op]`` where ``parent`` is the index
of the span that was open when this one started (-1 for a root) and
``op`` numbers the benchmark operation (sweep, statement round, episode)
it belongs to.  A layer's *self time* is its spans' duration minus the
part covered by their child spans, so the self times of one operation
add up to the duration of its root span.

Targets are named by import path and resolved at install time; one that
no longer exists (a later PR renamed or deleted it) is skipped and
counted in ``missing``, so the benchmark keeps running and the gap shows
as time moving to the parent layer.
"""

import importlib
import sys
from time import perf_counter

LAYERS = ("harness", "web", "apps", "orm", "core", "net", "sqldb.parse",
          "sqldb.facade", "sqldb.write", "sqldb.plan", "sqldb.exec",
          "sqldb.cache", "sqldb.snapshot")

# (module, dotted attribute, layer): plain spans around public entry points.
_SPAN_TARGETS = (
    ("repro.web.appserver", "AppServer.load_page", "web"),
    ("repro.web.templates", "Template.render", "web"),
    ("repro.web.writer", "ThunkWriter.flush", "web"),
    ("repro.orm.session", "Session.find", "orm"),
    ("repro.orm.session", "Session.get", "orm"),
    ("repro.orm.session", "Session.load_relation", "orm"),
    ("repro.orm.session", "Session.persist", "orm"),
    ("repro.orm.session", "Session.update", "orm"),
    ("repro.orm.session", "Session.delete", "orm"),
    ("repro.orm.session", "Session.execute_write", "orm"),
    ("repro.orm.session", "Query.all", "orm"),
    ("repro.orm.session", "Query.first", "orm"),
    ("repro.orm.session", "Query.count", "orm"),
    ("repro.core.runtime", "SlothRuntime.query", "core"),
    ("repro.core.runtime", "SlothRuntime.defer", "core"),
    ("repro.core.runtime", "SlothRuntime.run_ops", "core"),
    ("repro.core.runtime", "SlothRuntime.execute_write", "core"),
    ("repro.core.query_store", "QueryStore.register_query", "core"),
    ("repro.core.query_store", "QueryStore.get_result_set", "core"),
    ("repro.core.query_store", "QueryStore.flush", "core"),
    ("repro.core.query_store", "QueryStore.drain", "core"),
    ("repro.net.driver", "Driver.execute", "net"),
    ("repro.net.driver", "BatchDriver.execute_batch", "net"),
    ("repro.net.driver", "BatchDriver.execute_batch_async", "net"),
    ("repro.net.driver", "BatchDriver.wait", "net"),
    ("repro.net.server", "DatabaseServer.execute_one", "net"),
    ("repro.net.server", "DatabaseServer.execute_batch", "net"),
    ("repro.sqldb.executor", "Executor.plan_for", "sqldb.plan"),
    ("repro.sqldb.plan.physical", "PhysicalPlan.execute", "sqldb.exec"),
    ("repro.sqldb.result_cache", "ResultCache.lookup", "sqldb.cache"),
    ("repro.sqldb.result_cache", "ResultCache.store", "sqldb.cache"),
    ("repro.sqldb.columnar", "ColumnStore.build", "sqldb.snapshot"),
)
_PARSE = ("repro.sqldb.parser", "parse")
_EXECUTE_PARSED = ("repro.sqldb.database", "Database.execute_parsed")
_ROUTE = ("repro.web.framework", "Dispatcher.route")
_FORCE = ("repro.core.thunk", "Thunk.force")


def self_times(spans):
    """Per-span self time: duration minus the child spans' durations."""
    own = [span[3] - span[2] for span in spans]
    for span in spans:
        if span[4] >= 0:
            own[span[4]] -= span[3] - span[2]
    return own


class Tracer:
    """Records spans for one operation at a time and folds them by layer."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.op = 0
        self.force_depth = 0
        self.missing = 0
        self._saved = []
        # Folded over every finished operation.
        self.span_count = 0
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.chunks_skipped = 0
        self.runtimes = []

    # -- spans -------------------------------------------------------------

    def span(self, fn, layer, name, layer_of=None, on_result=None):
        """``fn`` wrapped in a span of ``layer`` (or ``layer_of(args)``)."""
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer.stack
            record = [layer_of(args) if layer_of else layer, name, 0.0, 0.0,
                      stack[-1] if stack else -1, tracer.op]
            stack.append(len(tracer.spans))
            tracer.spans.append(record)
            record[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = perf_counter()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def operation(self, fn):
        """Run ``fn()`` as one benchmark operation under a ``harness`` root
        span, then fold its spans into the per-layer totals."""
        self.op += 1
        del self.spans[:]
        result = self.span(fn, "harness", "operation")()
        own = self_times(self.spans)
        for record, seconds in zip(self.spans, own):
            self.self_s[record[0]] += seconds
            self.calls[record[0]] += 1
        self.calls["harness"] -= 1  # the root is not a call into a layer
        self.span_count += len(self.spans) - 1
        return result

    # -- installing and removing the wrappers ------------------------------

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module, path, layer in _SPAN_TARGETS:
            self._patch(module, path,
                        lambda fn, layer=layer, path=path:
                        self.span(fn, layer, path, on_result=(
                            self._count_chunks
                            if path == "PhysicalPlan.execute" else None)))
        self._patch(*_EXECUTE_PARSED, lambda fn: self.span(
            fn, None, "Database.execute_parsed", layer_of=_statement_layer))
        self._patch(*_ROUTE, self._traced_route)
        self._patch(*_FORCE, self._outermost_force)
        self._patch_parse()

    def remove(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        del self._saved[:]

    def _patch(self, module_name, path, make):
        try:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for parent in parents:
                owner = getattr(owner, parent)
            original = vars(owner)[attr]
        except (ImportError, AttributeError, KeyError):
            self.missing += 1
            return
        if isinstance(original, (classmethod, staticmethod)):
            wrapped = type(original)(make(original.__func__))
        else:
            wrapped = make(original)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def _patch_parse(self):
        """``parse`` is imported by name all over ``repro``: rebind every
        module global that is the parser's function object."""
        module_name, attr = _PARSE
        try:
            original = getattr(importlib.import_module(module_name), attr)
        except (ImportError, AttributeError):
            self.missing += 1
            return
        wrapped = self.span(original, "sqldb.parse", "parser.parse")
        for name, module in list(sys.modules.items()):
            if name.startswith("repro.") and \
                    vars(module).get(attr) is original:
                self._saved.append((module, attr, original))
                setattr(module, attr, wrapped)

    # -- the special wrappers ----------------------------------------------

    def _traced_route(self, route):
        """The controller ``Dispatcher.route`` returns runs as ``apps``; it
        is also where the request's runtime is visible from outside."""
        tracer = self

        def traced_route(dispatcher, url):
            controller, template = route(dispatcher, url)

            def traced_controller(ctx, request):
                tracer.runtimes.append(ctx.runtime)
                return controller(ctx, request)

            return tracer.span(traced_controller, "apps", url), template

        return traced_route

    def _outermost_force(self, force):
        """Thunks force thunks; only the outermost force opens a span."""
        tracer = self
        spanned = self.span(force, "core", "Thunk.force")

        def traced_force(thunk):
            if tracer.force_depth:
                return force(thunk)
            tracer.force_depth += 1
            try:
                return spanned(thunk)
            finally:
                tracer.force_depth -= 1

        return traced_force

    def _count_chunks(self, result):
        self.chunks_skipped += result.chunks_skipped


def _statement_layer(args):
    """``Database.execute_parsed(self, stmt, ...)``: SELECTs are the read
    facade, everything else (DML, DDL, BEGIN/COMMIT) is the write path."""
    return ("sqldb.facade" if type(args[1]).__name__ == "Select"
            else "sqldb.write")
