"""Sessions: the ORM's unit of work (Hibernate Session / JPA EntityManager).

A session deserializes rows into entities, maintains an identity map (the
first-level cache), loads relations according to their fetch strategy, and
issues writes.  It is parameterized by a *backend* that decides **when**
reads execute:

- :class:`OriginalBackend` (the unmodified application): ``read_eager``
  executes immediately, one round trip per query; ``read_lazy`` returns a
  transparent proxy that issues its query on first use (Hibernate's lazy
  fetching — still one round trip per collection, the classic 1+N).
- :class:`SlothBackend` (the Sloth-compiled application): *all* reads
  register with the query store and return transparent proxies; queries
  execute in batches only when something forces a proxy (paper §5, "JPA
  Extensions" / ``find_thunk``).

Both backends share deserialization, so the two application variants differ
only in query timing — exactly the comparison the paper's evaluation makes.

A read runs from the class's load plan (:mod:`repro.orm.mapping`): ``find``
/ ``Query.all`` / ``Relation.__get__`` → :meth:`Session.load_relation` →
``backend.read_*(sql, params, deserialize)``, ``deserialize`` a ``partial``
over :meth:`Session._deserialize_many`.  The descriptor and the hydrator both
look ``load_relation`` up on the session, so a tracer wrapping it sees every
relation load.
"""

from functools import partial

from repro.core.proxy import LazyProxy
from repro.core.thunk import QueryThunk, Thunk, force
from repro.orm.errors import EntityNotFound, MappingError
from repro.sqldb.result import ExecResult


class OriginalBackend:
    """Executes reads through the one-round-trip-per-statement driver."""

    def __init__(self, driver):
        self.driver = driver

    def read_eager(self, sql, params, deserialize):
        return deserialize(self.driver.execute(sql, tuple(params)))

    def read_lazy(self, sql, params, deserialize):
        return LazyProxy(Thunk(
            partial(self.read_eager, sql, tuple(params), deserialize)))

    def write(self, sql, params=()):
        return self.driver.execute(sql, tuple(params))

    def close(self):
        """Request end: a lazy proxy forced later raises before it reaches
        the request's driver."""
        self.driver = _ClosedDriver


class _ClosedDriver:
    """The driver of a closed :class:`OriginalBackend`."""

    @staticmethod
    def execute(sql, params=()):
        raise _detached()


def _detached():
    return MappingError("loading through a closed session: its entities "
                        "are detached")


class SlothBackend:
    """Registers reads with the Sloth runtime's query store."""

    def __init__(self, runtime):
        self.runtime = runtime

    def _register(self, sql, params, deserialize):
        # ``params`` goes as it came: the store tuples it into the key.
        thunk = QueryThunk(self.runtime.query_store, sql, params,
                           deserialize, runtime=self.runtime)
        return LazyProxy(thunk)

    # Under Sloth even "eager" reads are thunks; eagerness only affects when
    # the registration happens (at deserialization of the owner).
    read_eager = _register
    read_lazy = _register

    def write(self, sql, params=()):
        return self.runtime.execute_write(sql, params)

    def close(self):
        """Request end: nothing to stop here — the store drops what it
        never issued, and the session refuses to deserialize what it did
        (:meth:`Session._deserialize_many`)."""


class Session:
    """A unit of work bound to one backend."""

    def __init__(self, backend):
        self.backend = backend
        self.identity_map = {}  # (cls, pk) -> entity
        self.closed = False

    def close(self):
        """Detach every entity, empty the identity map and refuse every
        later load (request end): a proxy forced after it raises
        :class:`MappingError`, as Hibernate's lazy load after
        ``Session.close`` does."""
        for entity in self.identity_map.values():
            entity.__sloth_session__ = None
        self.identity_map.clear()
        self.closed = True
        self.backend.close()

    # -- finders ---------------------------------------------------------------

    def find(self, cls, pk):
        """Load an entity by primary key (None if missing).

        With the Sloth backend this is ``find_thunk``: the SELECT is
        registered and a transparent proxy returned immediately.
        """
        cached = self.identity_map.get((cls, pk))
        if cached is not None:
            return cached
        return self.backend.read_eager(cls.__info__.select_by_pk_sql, (pk,),
                                       partial(self._deserialize_one, cls))

    def get(self, cls, pk):
        """Like :meth:`find` but raises :class:`EntityNotFound` on miss.

        Forces the proxy under Sloth (by definition ``get`` needs the row).
        """
        entity = force(self.find(cls, pk))
        if entity is None:
            raise EntityNotFound(f"{cls.__name__} with pk={pk!r}")
        return entity

    def query(self, cls):
        """Start a fluent query over ``cls``."""
        return Query(self, cls)

    # -- writes -----------------------------------------------------------------

    def persist(self, entity):
        """INSERT the entity and attach it to this session."""
        info = type(entity).__info__
        result = self.backend.write(info.insert_sql,
                                    entity.column_values())
        entity.__sloth_session__ = self
        self.identity_map[(type(entity), entity.pk_value)] = entity
        return result

    def update(self, entity):
        """UPDATE all mapped columns of the entity by primary key."""
        info = type(entity).__info__
        values = [getattr(entity, c.name) for c in info.columns
                  if c.column != info.pk.column]
        values.append(entity.pk_value)
        return self.backend.write(info.update_sql, values)

    def delete(self, entity):
        info = type(entity).__info__
        self.identity_map.pop((type(entity), entity.pk_value), None)
        return self.backend.write(info.delete_sql, (entity.pk_value,))

    def execute_write(self, sql, params=()):
        """Escape hatch for raw writes (used by the TPC workloads)."""
        return self.backend.write(sql, params)

    # -- transactions -------------------------------------------------------------

    def begin(self):
        self.backend.write("BEGIN")

    def commit(self):
        self.backend.write("COMMIT")

    def rollback(self):
        self.backend.write("ROLLBACK")

    # -- loading: relations (first access, EAGER) and result sets -------------------

    def load_relation(self, instance, relation):
        """The relation's value, for the caller to store on ``instance``."""
        return relation.load(self, instance)

    def _deserialize_many(self, cls, result_set):
        """Materialize entities from a result set, honoring the identity map
        and triggering EAGER relation loads (paper §6.1: eager fetching
        issues queries whether or not the data is used)."""
        if self.closed:
            raise _detached()
        pk_at, fill, eager = cls.__info__.hydration(tuple(result_set.columns))
        identity_map = self.identity_map
        entities = []
        for row in result_set.rows:
            key = (cls, row[pk_at])
            entity = identity_map.get(key)
            if entity is None:
                entity = identity_map[key] = cls.__new__(cls)
                fill(entity, row, self)
                for relation in eager:
                    setattr(entity, relation.name,
                            self.load_relation(entity, relation))
            entities.append(entity)
        return entities

    def _deserialize_one(self, cls, result_set):
        entities = self._deserialize_many(cls, result_set)
        return entities[0] if entities else None


class Query:
    """Fluent query builder: ``session.query(C).where(...).all()``.

    ``where`` fragments use ``?`` placeholders and combine with AND.
    """

    def __init__(self, session, cls):
        self.session = session
        self.cls = cls
        self._where = ()
        self._params = []
        self._order_by = None
        self._limit = None

    def where(self, fragment, *params):
        self._where += (fragment,)
        self._params.extend(params)
        return self

    def order_by(self, clause):
        self._order_by = clause
        return self

    def limit(self, n):
        self._limit = n
        return self

    def all(self):
        """All matching entities (a transparent proxy under Sloth)."""
        sql = self.cls.__info__.query_sql(self._where, self._order_by,
                                          self._limit)
        session = self.session
        return session.backend.read_eager(
            sql, self._params, partial(session._deserialize_many, self.cls))

    def first(self):
        """First matching entity or None (forces under Sloth); the
        ``LIMIT 1`` goes on a copy, this query keeps its own limit."""
        limited = Query(self.session, self.cls)
        limited.__dict__.update(self.__dict__, _limit=1)
        entities = force(limited.all())
        return entities[0] if entities else None

    def count(self):
        """COUNT(*) over the filter (a lazy scalar under Sloth)."""
        return self.session.backend.read_eager(
            self.cls.__info__.query_sql(self._where, count=True),
            self._params, ExecResult.scalar)
