"""Thunks: delayed computations with memoized forcing.

Mirrors the paper's compiled form (§3.2): every delayed statement becomes an
object with a ``_force`` method that runs the original computation once and
memoizes the result.  ``Thunk.force`` is where memoisation, accounting,
chained-laziness collapse and release live; a flavour only says how its
value is computed (``_compute``).  Two flavours, and a block of them:

- :class:`Thunk` — wraps a zero-argument callable.
- :class:`QueryThunk` — registers a query with the query store on
  *construction*; forced, it reads the result set off its id once landed
  (else the store flushes, waits or raises) and deserializes it (§3.3).
- :class:`ThunkBlock` — a group of statements coalesced into one deferred
  unit whose named outputs are individual thunks (§4.3); forcing any output
  runs the whole block once.  The kernel-language interpreter
  (:mod:`repro.compiler.lazy_interp`) binds coalesced runs and deferred
  branches with it.

:func:`force` forces any value: thunks and lazy proxies are evaluated
(recursively, so a thunk returning a thunk fully resolves); other values
pass through.
"""

_UNEVALUATED = object()


class Thunk:
    """A delayed computation of ``fn()``, forced at most once."""

    __slots__ = ("_fn", "_value", "_runtime")

    def __init__(self, fn, runtime=None):
        self._fn = fn
        self._value = _UNEVALUATED
        self._runtime = runtime
        if runtime is not None:
            runtime.on_thunk_allocated()

    @property
    def is_forced(self):
        return self._value is not _UNEVALUATED

    def force(self):
        """Evaluate the delayed computation (memoized); one that raises
        leaves the thunk unforced, to be run — and charged — again."""
        if self._value is _UNEVALUATED:
            if self._runtime is not None:
                self._runtime.on_force()
            value = self._compute()
            # Collapse chained laziness so callers always get a plain value.
            self._value = force(value) if isinstance(value, _LAZY) else value
            self._fn = None  # release captured state
        return self._value

    # The paper's concrete syntax calls this method ``_force``.
    _force = force

    def _compute(self):
        """How the value is computed: all a flavour of thunk supplies."""
        return self._fn()

    def __repr__(self):
        if self.is_forced:
            return f"Thunk(forced={self._value!r})"
        return "Thunk(<delayed>)"


class QueryThunk(Thunk):
    """A thunk for a database read (§3.3).

    Construction *eagerly* registers the SQL with the query store — this is
    the "third kind of computation" of extended lazy evaluation: the query's
    execution is delayed but its registration is not.  ``deserialize`` maps
    the raw result set to the value the application expects (e.g., an ORM
    entity); it runs once, memoized.
    """

    __slots__ = ("query_id",)

    def __init__(self, query_store, sql, params=(), deserialize=None,
                 runtime=None):
        # No closure: the id names its store and ``_fn`` holds the
        # deserialiser.  thunk -> id -> store is acyclic, so a never-forced
        # thunk (with the result its id holds) goes by refcount alone.
        self.query_id = query_store.register_query(sql, params)
        self._fn = deserialize
        self._value = _UNEVALUATED
        self._runtime = runtime
        if runtime is not None:
            runtime.on_thunk_allocated()

    def _compute(self):
        query_id = self.query_id
        result_set = query_id.result
        if result_set is None or query_id.completion is not None:
            result_set = query_id.store.get_result_set(query_id)
        return result_set if self._fn is None else self._fn(result_set)

    def __repr__(self):
        state = "forced" if self.is_forced else "pending"
        return f"QueryThunk(id={self.query_id!r}, {state})"


class ThunkBlock:
    """A coalesced group of deferred statements with named outputs (§4.3).

    ``fn`` runs the block's statements and returns a dict of output values.
    ``output(name)`` returns a :class:`Thunk` for one output; forcing any
    output executes the block exactly once.
    """

    __slots__ = ("_fn", "_values", "_runtime")

    def __init__(self, fn, runtime=None):
        self._fn = fn
        self._values = None
        self._runtime = runtime
        if runtime is not None:
            runtime.on_thunk_allocated()

    @property
    def is_forced(self):
        return self._values is not None

    def force_block(self):
        if self._values is None:
            if self._runtime is not None:
                self._runtime.on_force()
            values = self._fn()
            if not isinstance(values, dict):
                raise TypeError(
                    "ThunkBlock body must return a dict of outputs, got "
                    f"{type(values).__name__}")
            self._values = {key: force(value)
                            for key, value in values.items()}
            self._fn = None
        return self._values

    def output(self, name, live=True):
        """A thunk for the named output of this block.

        A block costs one allocation plus one per *live* output; a dead
        temporary has no thunk object in compiled code — avoiding those
        allocations is the point of coalescing — so a binding made for one
        (``live=False``) bypasses the accounting.
        """
        return Thunk(lambda: self.force_block()[name],
                     runtime=self._runtime if live else None)

    def __repr__(self):
        state = "forced" if self.is_forced else "pending"
        return f"ThunkBlock({state})"


def is_thunk(value):
    """Whether ``value`` is any flavour of delayed computation."""
    return isinstance(value, (Thunk, ThunkBlock, LazyProxy))


def force(value):
    """Force thunks/proxies to plain values; pass other values through."""
    while True:
        if isinstance(value, Thunk):
            value = value.force()
        elif isinstance(value, LazyProxy):
            value = object.__getattribute__(value, "_thunk").force()
        else:
            return value


# The thunk <-> proxy cycle, resolved once: ``proxy`` imports ``Thunk`` and
# ``force`` from this (by now fully defined) module, and ``is_thunk`` /
# ``force`` above find ``LazyProxy`` as a module global with no per-call
# import.  ``repro.core.__init__`` imports this module before ``proxy``.
from repro.core.proxy import LazyProxy  # noqa: E402
_LAZY = (Thunk, LazyProxy)  # what ``Thunk.force`` hands on to ``force``
