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
"""

from repro.core.proxy import LazyProxy
from repro.core.thunk import QueryThunk, Thunk, force
from repro.orm.errors import EntityNotFound, MappingError
from repro.orm.mapping import EAGER, ManyToOne, OneToMany


class OriginalBackend:
    """Executes reads through the one-round-trip-per-statement driver."""

    def __init__(self, driver):
        self.driver = driver

    def read_eager(self, sql, params, deserialize):
        return deserialize(self.driver.execute(sql, tuple(params)))

    def read_lazy(self, sql, params, deserialize):
        params = tuple(params)

        def _load():
            return deserialize(self.driver.execute(sql, params))

        return LazyProxy(Thunk(_load))

    def write(self, sql, params=()):
        return self.driver.execute(sql, tuple(params))


class SlothBackend:
    """Registers reads with the Sloth runtime's query store."""

    def __init__(self, runtime):
        self.runtime = runtime

    def _register(self, sql, params, deserialize):
        thunk = QueryThunk(self.runtime.query_store, sql, tuple(params),
                           deserialize, runtime=self.runtime)
        return LazyProxy(thunk)

    # Under Sloth even "eager" reads are thunks; eagerness only affects when
    # the registration happens (at deserialization of the owner).
    read_eager = _register
    read_lazy = _register

    def write(self, sql, params=()):
        return self.runtime.execute_write(sql, tuple(params))


class Session:
    """A unit of work bound to one backend."""

    def __init__(self, backend):
        self.backend = backend
        self.identity_map = {}  # (cls, pk) -> entity

    # -- finders ---------------------------------------------------------------

    def find(self, cls, pk):
        """Load an entity by primary key (None if missing).

        With the Sloth backend this is ``find_thunk``: the SELECT is
        registered and a transparent proxy returned immediately.
        """
        cached = self.identity_map.get((cls, pk))
        if cached is not None:
            return cached
        info = cls.__info__
        sql = info.select_by_pk_sql()

        def _one(result_set):
            entities = self._deserialize_many(cls, result_set)
            return entities[0] if entities else None

        return self.backend.read_eager(sql, (pk,), _one)

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
        result = self.backend.write(info.insert_sql(),
                                    entity.column_values())
        self._attach(entity)
        self.identity_map[(type(entity), entity.pk_value)] = entity
        return result

    def update(self, entity):
        """UPDATE all mapped columns of the entity by primary key."""
        info = type(entity).__info__
        values = [getattr(entity, c.name) for c in info.columns
                  if c.column != info.pk.column]
        values.append(entity.pk_value)
        return self.backend.write(info.update_sql(), values)

    def delete(self, entity):
        info = type(entity).__info__
        self.identity_map.pop((type(entity), entity.pk_value), None)
        return self.backend.write(info.delete_sql(), (entity.pk_value,))

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

    # -- relation loading (called by Relation descriptors) -------------------------

    def load_relation(self, instance, relation):
        if isinstance(relation, ManyToOne):
            return self._load_many_to_one(instance, relation)
        if isinstance(relation, OneToMany):
            return self._load_one_to_many(instance, relation)
        raise MappingError(f"unknown relation type {type(relation).__name__}")

    def _load_many_to_one(self, instance, relation):
        fk_value = getattr(instance, relation.column)
        if fk_value is None:
            return None
        target = relation.target
        cached = self.identity_map.get((target, fk_value))
        if cached is not None:
            return cached
        info = target.__info__
        sql = info.select_by_pk_sql()

        def _one(result_set):
            entities = self._deserialize_many(target, result_set)
            return entities[0] if entities else None

        if relation.fetch == EAGER:
            return self.backend.read_eager(sql, (fk_value,), _one)
        return self.backend.read_lazy(sql, (fk_value,), _one)

    def _load_one_to_many(self, instance, relation):
        target = relation.target
        info = target.__info__
        sql = info.select_by_fk_sql(relation.foreign_key, relation.order_by)
        pk = instance.pk_value

        def _many(result_set):
            return self._deserialize_many(target, result_set)

        if relation.fetch == EAGER:
            return self.backend.read_eager(sql, (pk,), _many)
        return self.backend.read_lazy(sql, (pk,), _many)

    # -- deserialization ------------------------------------------------------------

    def _attach(self, entity):
        entity.__sloth_session__ = self

    def _deserialize_many(self, cls, result_set):
        """Materialize entities from a result set, honoring the identity map
        and triggering EAGER relation loads (paper §6.1: eager fetching
        issues queries whether or not the data is used)."""
        info = cls.__info__
        by_name = {}
        for i, name in enumerate(result_set.columns):
            by_name[name] = i
        entities = []
        for row in result_set.rows:
            pk_value = row[by_name[info.pk.column]]
            cached = self.identity_map.get((cls, pk_value))
            if cached is not None:
                entities.append(cached)
                continue
            entity = cls.__new__(cls)
            for column in info.columns:
                entity.__dict__[column.name] = row[by_name[column.column]]
            self._attach(entity)
            self.identity_map[(cls, pk_value)] = entity
            for relation in info.relations:
                if relation.fetch == EAGER:
                    entity.__dict__[relation.name] = self.load_relation(
                        entity, relation)
            entities.append(entity)
        return entities


class Query:
    """Fluent query builder: ``session.query(C).where(...).all()``.

    ``where`` fragments use ``?`` placeholders and combine with AND.
    """

    def __init__(self, session, cls):
        self.session = session
        self.cls = cls
        self._where = []
        self._params = []
        self._order_by = None
        self._limit = None

    def where(self, fragment, *params):
        self._where.append(fragment)
        self._params.extend(params)
        return self

    def order_by(self, clause):
        self._order_by = clause
        return self

    def limit(self, n):
        self._limit = n
        return self

    def _sql(self, select_list=None):
        info = self.cls.__info__
        sql = (f"SELECT {select_list or info.select_list} "
               f"FROM {info.table}")
        if self._where:
            sql += " WHERE " + " AND ".join(self._where)
        if self._order_by:
            sql += f" ORDER BY {self._order_by}"
        if self._limit is not None:
            sql += f" LIMIT {self._limit}"
        return sql

    def all(self):
        """All matching entities (a transparent proxy under Sloth)."""
        sql = self._sql()

        def _many(result_set):
            return self.session._deserialize_many(self.cls, result_set)

        return self.session.backend.read_eager(sql, self._params, _many)

    def first(self):
        """First matching entity or None (forces under Sloth)."""
        entities = force(self.limit(1).all())
        return entities[0] if entities else None

    def count(self):
        """COUNT(*) over the filter (a lazy scalar under Sloth)."""
        info = self.cls.__info__
        sql = f"SELECT COUNT(*) AS n FROM {info.table}"
        if self._where:
            sql += " WHERE " + " AND ".join(self._where)

        def _scalar(result_set):
            return result_set.scalar()

        return self.session.backend.read_eager(sql, self._params, _scalar)
