"""Secondary index structures.

Two index flavours serve the planner's two access-path families.  In both
a key's bucket is the ascending list of the row ids carrying it, so every
reader gets ids in row-id order (the scan's) without sorting: row ids only
grow, so keeping a bucket ordered is an append for a fresh row and a
bisect for a delete or an undo.

- :class:`HashIndex` maps a tuple of column values to the row ids
  carrying those values — equality lookups only.  Rows containing NULL in
  any indexed column are not indexed (matching standard SQL lookup
  semantics where ``col = NULL`` never matches).

- :class:`OrderedIndex` keeps its keys in sorted order (``CREATE INDEX ...
  USING ORDERED``) and additionally serves **range scans** (``BETWEEN``,
  ``<``, ``<=``, ``>``, ``>=``, equality-prefix + range suffix) and
  **ordered walks** that let the planner elide an ORDER BY sort.  Unlike
  the hash index it indexes every row, NULL key parts included, so a full
  in-order walk reproduces the engine's sort semantics exactly (NULLs
  first ascending, last descending); equality lookups still never match
  NULL, and the unique constraint ignores keys with NULL parts (as in
  standard SQL).

Both flavours expose the same equality surface (``covers`` / ``lookup`` /
``distinct_keys``), so everything built on equality — index lookups, index
nested-loop join probes, NDV statistics — works against either.
"""

from bisect import bisect_left, insort
from itertools import chain

from repro.sqldb.errors import ConstraintError

# Key parts are wrapped so heterogeneous parts stay comparable: NULL wraps
# to ``_NULL_PART`` (sorting before every real value, the engine's
# ascending NULLs-first order) and real values to ``(1, value)``.  The
# sentinels bound bisect searches: ``_AFTER_NULLS`` sits between the NULL
# region and the smallest real value, ``_AFTER_ALL`` after every real
# value.
_NULL_PART = (0, None)
_AFTER_NULLS = (1,)
_AFTER_ALL = (2,)


def wrap_part(value):
    """Order-preserving wrapper for one key part (NULLs sort first)."""
    return _NULL_PART if value is None else (1, value)


def wrap_key(values):
    """Order-preserving wrapper for a whole key tuple."""
    return tuple(wrap_part(v) for v in values)


class _BucketIndex:
    """What both flavours share: ``_buckets`` maps each indexed key to the
    ascending list of its row ids (never empty), and the equality surface
    (``covers`` / ``distinct_keys``) over it."""

    def __init__(self, info, ordinals):
        self.info = info
        self.ordinals = tuple(ordinals)
        self._buckets = {}

    def _link(self, key, row_id, unique, shown):
        """Add ``row_id`` to ``key``'s bucket — an append for a fresh row
        — refusing a second row when ``unique``; True for a new key."""
        bucket = self._buckets.get(key)
        if bucket is None:
            self._buckets[key] = [row_id]
            return True
        if unique:
            raise ConstraintError(
                f"unique index {self.info.name!r} violated for key {shown!r}")
        insort(bucket, row_id)
        return False

    def _unlink(self, key, row_id):
        """Remove ``row_id`` from ``key``'s bucket if it is there (a refused
        write unlinks its row from indexes it never reached); True when
        that empties the bucket and drops the key."""
        bucket = self._buckets.get(key, ())
        pos = bisect_left(bucket, row_id)
        if pos == len(bucket) or bucket[pos] != row_id:
            return False
        del bucket[pos]
        if bucket:
            return False
        del self._buckets[key]
        return True

    def covers(self, pinned):
        """Whether every indexed column appears in ``pinned`` (a set or
        mapping of column names the predicate equates to constants) — the
        planner's test for whether this index can serve a lookup."""
        return all(col in pinned for col in self.info.columns)

    @property
    def distinct_keys(self):
        """Live distinct-key count — the cost model's NDV estimate for the
        indexed column(s) (exact, since the buckets are the index)."""
        return len(self._buckets)

    def __len__(self):
        return sum(map(len, self._buckets.values()))


class HashIndex(_BucketIndex):
    """Equality index over one or more columns of a table."""

    def key_for(self, row):
        key = tuple(row[i] for i in self.ordinals)
        if any(part is None for part in key):
            return None
        return key

    def insert(self, row_id, row):
        key = self.key_for(row)
        if key is not None:
            self._link(key, row_id, self.info.unique, key)

    def delete(self, row_id, row):
        key = self.key_for(row)
        if key is not None:
            self._unlink(key, row_id)

    def lookup(self, key):
        """The ascending row ids matching the key tuple (empty when none):
        the index's own list, to read and not to change."""
        return self._buckets.get(tuple(key), ())


class OrderedIndex(_BucketIndex):
    """Sorted-key index over one or more columns of a table.

    Keys (wrapped via :func:`wrap_key`) key the buckets and also live in a
    sorted list maintained by binary insertion.  The sorted list is what
    makes this index more than a hash index: bisecting it answers range
    queries and yields rows in key order.  NULL-bearing keys count in
    :attr:`distinct_keys`.
    """

    method = "ordered"

    def __init__(self, info, ordinals):
        super().__init__(info, ordinals)
        self._keys = []  # sorted list of wrapped keys

    def key_for(self, row):
        return tuple(row[i] for i in self.ordinals)

    def insert(self, row_id, row):
        values = self.key_for(row)
        key = wrap_key(values)
        # SQL unique semantics: NULL-bearing keys never conflict.
        unique = self.info.unique and _NULL_PART not in key
        if self._link(key, row_id, unique, values):
            insort(self._keys, key)

    def delete(self, row_id, row):
        key = wrap_key(self.key_for(row))
        if self._unlink(key, row_id):
            del self._keys[bisect_left(self._keys, key)]

    def lookup(self, key):
        """The ascending row ids equal to ``key``, as
        :meth:`HashIndex.lookup`; NULL key parts never match."""
        key = tuple(key)
        if any(part is None for part in key):
            return ()
        return self._buckets.get(wrap_key(key), ())

    # -- ordered access ------------------------------------------------------

    def _region(self, prefix_values, low, high, low_incl, high_incl):
        """``(start, end)`` slice of ``_keys`` for an equality prefix plus
        an optional range on the next key column.

        Range bounds never admit NULL parts (``col < x`` is UNKNOWN for
        NULL); an unbounded side of an explicit range therefore starts
        after the NULL region, while a pure prefix walk (no range at all)
        spans it — that is what lets a bound-free walk serve ORDER BY.
        """
        wprefix = wrap_key(prefix_values)
        if low is not None:
            bound = (wprefix + (wrap_part(low),) if low_incl
                     else wprefix + (wrap_part(low), _AFTER_ALL))
            start = bisect_left(self._keys, bound)
        elif high is not None:
            start = bisect_left(self._keys, wprefix + (_AFTER_NULLS,))
        else:
            start = bisect_left(self._keys, wprefix)
        if high is not None:
            bound = (wprefix + (wrap_part(high), _AFTER_ALL) if high_incl
                     else wprefix + (wrap_part(high),))
            end = bisect_left(self._keys, bound)
        elif wprefix:
            end = bisect_left(self._keys, wprefix + (_AFTER_ALL,))
        else:
            end = len(self._keys)
        return start, max(start, end)  # crossed bounds (low > high) = empty

    def scan(self, prefix_values=(), low=None, high=None, low_incl=True,
             high_incl=True, descending=False):
        """An iterator of the row ids in key order for the equality prefix
        + range: the region's buckets chained, one C-level pass.

        Within one key, row ids come out ascending (each bucket's order),
        which matches the stable tie order of the engine's explicit sort —
        so an ordered walk is byte-identical to scan-then-sort, not merely
        multiset-equal.  ``descending`` reverses the key order (the
        engine's DESC semantics: NULLs last), keeping the ascending
        within-key tie order.
        """
        start, end = self._region(prefix_values, low, high, low_incl,
                                  high_incl)
        keys = self._keys[start:end]
        if descending:
            keys.reverse()
        return chain.from_iterable(map(self._buckets.__getitem__, keys))
