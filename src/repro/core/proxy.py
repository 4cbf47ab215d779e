"""Transparent lazy proxies.

A :class:`LazyProxy` wraps a thunk and behaves like the eventual value:
attribute access, indexing, iteration, comparison, arithmetic and string
conversion all force the underlying thunk first.  This is the dynamic-proxy
idiom that replaces the paper's bytecode-level thunk conversion in Python:
application code that receives a proxy instead of a value keeps working
unchanged, and the first *use* of the value is what triggers the batch flush.

Creating a proxy never executes anything; only operations that need the
value do.  Use :func:`unwrap` (or :func:`repro.core.thunk.force`) to get the
plain value explicitly.
"""

import operator

from repro.core.thunk import force


def unwrap(value):
    """Force a proxy (or thunk) into its plain value."""
    return force(value)


class LazyProxy:
    """Forwards (almost) everything to the forced value of a thunk."""

    __slots__ = ("_thunk",)

    def __init__(self, thunk):
        object.__setattr__(self, "_thunk", thunk)

    def _target(self):
        return object.__getattribute__(self, "_thunk").force()

    # -- attribute protocol -----------------------------------------------

    def __getattribute__(self, name):
        if name in ("_target", "__class__") or name.startswith("__"):
            # Dunders and internals resolve on the proxy itself; the
            # explicitly defined dunders below forward to the target.
            try:
                return object.__getattribute__(self, name)
            except AttributeError:
                pass
        target = object.__getattribute__(self, "_thunk").force()
        return getattr(target, name)

    def __setattr__(self, name, value):
        # Heap writes are not deferred (paper §3.5): force the receiver.
        setattr(self._target(), name, value)

    def __delattr__(self, name):
        delattr(self._target(), name)

    # -- conversions ---------------------------------------------------------

    def __repr__(self):
        return repr(self._target())

    def __str__(self):
        return str(self._target())

    def __bytes__(self):
        return bytes(self._target())

    def __format__(self, spec):
        return format(self._target(), spec)

    def __bool__(self):
        return bool(self._target())

    def __int__(self):
        return int(self._target())

    def __float__(self):
        return float(self._target())

    def __index__(self):
        return operator.index(self._target())

    def __hash__(self):
        return hash(self._target())

    # -- comparisons ---------------------------------------------------------

    def __eq__(self, other):
        return self._target() == unwrap(other)

    def __ne__(self, other):
        return self._target() != unwrap(other)

    def __lt__(self, other):
        return self._target() < unwrap(other)

    def __le__(self, other):
        return self._target() <= unwrap(other)

    def __gt__(self, other):
        return self._target() > unwrap(other)

    def __ge__(self, other):
        return self._target() >= unwrap(other)

    # -- containers ------------------------------------------------------------

    def __len__(self):
        return len(self._target())

    def __iter__(self):
        return iter(self._target())

    def __contains__(self, item):
        return unwrap(item) in self._target()

    def __getitem__(self, key):
        return self._target()[unwrap(key)]

    def __setitem__(self, key, value):
        self._target()[unwrap(key)] = value

    def __delitem__(self, key):
        del self._target()[unwrap(key)]

    # -- callables ---------------------------------------------------------------

    def __call__(self, *args, **kwargs):
        return self._target()(*args, **kwargs)

    # -- arithmetic ----------------------------------------------------------------

    def __add__(self, other):
        return self._target() + unwrap(other)

    def __radd__(self, other):
        return unwrap(other) + self._target()

    def __sub__(self, other):
        return self._target() - unwrap(other)

    def __rsub__(self, other):
        return unwrap(other) - self._target()

    def __mul__(self, other):
        return self._target() * unwrap(other)

    def __rmul__(self, other):
        return unwrap(other) * self._target()

    def __truediv__(self, other):
        return self._target() / unwrap(other)

    def __rtruediv__(self, other):
        return unwrap(other) / self._target()

    def __floordiv__(self, other):
        return self._target() // unwrap(other)

    def __mod__(self, other):
        return self._target() % unwrap(other)

    def __neg__(self):
        return -self._target()

    def __abs__(self):
        return abs(self._target())
