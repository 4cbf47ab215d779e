"""Declarative entity mapping (the Hibernate/JPA analog).

Entities are declared as classes with :class:`Column` and relationship
descriptors::

    class Patient(Entity):
        __table__ = "patient"
        id = Column(INTEGER, primary_key=True)
        name = Column(TEXT)
        encounters = OneToMany("Encounter", foreign_key="patient_id",
                               fetch=LAZY)

    class Encounter(Entity):
        __table__ = "encounter"
        id = Column(INTEGER, primary_key=True)
        patient_id = Column(INTEGER)
        patient = ManyToOne("Patient", column="patient_id", fetch=LAZY)

Fetch strategies mirror Hibernate's (paper §1): ``LAZY`` relations load on
first access (one round trip each — the 1+N pattern); ``EAGER`` relations
load as soon as the owning entity is deserialized, whether or not they are
ever used.  The Sloth session turns both into query-store registrations.

Each mapped class gets a :class:`EntityInfo` at class-creation time with the
table name, columns, primary key and relations; string relation targets
resolve lazily through the module-level registry so mutually referential
entities can be declared in any order.

The info is also the class's **load plan** (ARCHITECTURE.md, "The statement
path"): what a load needs and the mapping alone decides is resolved once —
per class the SQL text (one ``str`` object a statement, hashed once
downstream), the EAGER relations and each relation's key :class:`Column`;
per relation its target and SELECT; per ``Query`` shape its text
(:meth:`EntityInfo.query_sql`); per result shape
:meth:`EntityInfo.hydration`.  A row costs an identity-map probe, one
generated ``fill`` and its EAGER loads.

:class:`Column` and :class:`Relation` are **non-data descriptors** (no
``__set__``): assignment and hydration store on the instance, which then
shadows the descriptor, so reading a hydrated column or a loaded relation
enters no Python code; ``__get__`` runs only while the instance lacks the
attribute (a column never set reads ``None``, a relation never loaded loads).
"""

from functools import cache, cached_property, lru_cache, partial
from operator import attrgetter

from repro.orm.errors import MappingError
from repro.sqldb import types as sqltypes

LAZY = "lazy"
EAGER = "eager"

# name -> entity class, for resolving string targets in relations
_REGISTRY = {}


class Column:
    """A persistent scalar attribute backed by a table column."""

    def __init__(self, type_name=sqltypes.TEXT, primary_key=False,
                 not_null=False, column=None):
        self.type_name = type_name
        self.primary_key = primary_key
        self.not_null = not_null
        self.column = column  # defaults to the attribute name
        self.name = None  # attribute name, set by the metaclass

    def __set_name__(self, owner, name):
        self.name = name
        if self.column is None:
            self.column = name

    def __get__(self, instance, owner=None):
        return self if instance is None else None  # not set on the instance

    def __repr__(self):
        return f"Column({self.name!r}, {self.type_name})"


class Relation:
    """Base class for relationship descriptors.

    A subclass carries its half of the load plan: ``bind(info)`` sets
    ``key``, the owner's :class:`Column` whose value parametrises the SELECT
    that ``load(session, instance)`` (``Session.load_relation``) registers.
    """

    def __init__(self, target, fetch=LAZY):
        self.target_ref = target
        self.fetch = fetch
        self.name = None
        # LAZY and EAGER loads differ only in the backend read they go to.
        self._read = attrgetter("backend.read_eager" if fetch == EAGER
                                else "backend.read_lazy")

    def __set_name__(self, owner, name):
        self.name = name

    @cached_property
    def target(self):
        """The target class, resolved from a class or a class name."""
        ref = self.target_ref
        target = ref if isinstance(ref, type) else _REGISTRY.get(ref)
        if target is None:
            raise MappingError(f"unknown entity {ref!r}; declared entities: "
                               f"{sorted(_REGISTRY)}")
        return target

    def __get__(self, instance, owner=None):
        # The first access of a relation not loaded or assigned yet.
        if instance is None:
            return self
        session = instance.__sloth_session__
        if session is None:
            raise MappingError(
                f"accessing relation {self.name!r} on a detached "
                f"{type(instance).__name__} instance")
        value = session.load_relation(instance, self)
        setattr(instance, self.name, value)
        return value


class ManyToOne(Relation):
    """A reference to the owning side of a foreign key."""

    def __init__(self, target, column, fetch=LAZY):
        super().__init__(target, fetch)
        self.column = column  # FK column on *this* entity's table

    def bind(self, info):  # key: the Column mapping ``column``
        self.key = next(
            (c for c in info.columns if c.column == self.column), None)
        if self.key is None:
            raise MappingError(
                f"{info.cls.__name__}.{self.name}: ManyToOne over column "
                f"{self.column!r}, which {info.cls.__name__} does not map")

    def load(self, session, instance):
        fk_value = getattr(instance, self.key.name)
        if fk_value is None:
            return None
        target = self.target
        cached = session.identity_map.get((target, fk_value))
        if cached is not None:
            return cached
        return self._read(session)(
            target.__info__.select_by_pk_sql, (fk_value,),
            partial(session._deserialize_one, target))


class OneToMany(Relation):
    """A collection of child entities holding a foreign key to us."""

    def __init__(self, target, foreign_key, fetch=LAZY, order_by=None):
        super().__init__(target, fetch)
        self.foreign_key = foreign_key  # FK column on the *target* table
        self.order_by = order_by

    def bind(self, info):  # key: the owner's primary key
        self.key = info.pk

    @cached_property
    def select_by_fk_sql(self):
        info = self.target.__info__
        order = f" ORDER BY {self.order_by}" if self.order_by else ""
        return (f"SELECT {info.select_list} FROM {info.table} "
                f"WHERE {self.foreign_key} = ?{order}")

    def load(self, session, instance):
        return self._read(session)(
            self.select_by_fk_sql, (getattr(instance, self.key.name),),
            partial(session._deserialize_many, self.target))


class EntityInfo:
    """Mapping metadata extracted from an entity class, and its load plan
    (module docstring)."""

    def __init__(self, cls, table, columns, relations):
        self.cls = cls
        self.table = table
        self.columns = columns  # list of Column in declaration order
        self.relations = relations  # list of Relation
        pks = [c for c in columns if c.primary_key]
        if len(pks) != 1:
            raise MappingError(
                f"entity {cls.__name__} must declare exactly one "
                f"primary-key Column, found {len(pks)}")
        self.pk = pk = pks[0]
        self.column_names = names = [c.column for c in columns]
        self.select_list = ", ".join(names)
        self.select_by_pk_sql = (f"SELECT {self.select_list} FROM {table} "
                                 f"WHERE {pk.column} = ?")
        self.insert_sql = (f"INSERT INTO {table} ({self.select_list}) "
                           f"VALUES ({', '.join('?' for _ in names)})")
        sets = ", ".join(f"{c} = ?" for c in names if c != pk.column)
        self.update_sql = f"UPDATE {table} SET {sets} WHERE {pk.column} = ?"
        self.delete_sql = f"DELETE FROM {table} WHERE {pk.column} = ?"
        for relation in relations:
            relation.bind(self)
        self._eager = tuple(r for r in relations if r.fetch == EAGER)
        # The method runs at the first result set of a shape; a hit is a
        # C-level probe, and a refused shape is not remembered.
        self.hydration = cache(self.hydration)

    # One ``str`` per query shape, shared by every query of it (one cache
    # for every class: the infos live as long as their classes anyway);
    # ``typed``: a LIMIT of 1 and one of 1.0 are two shapes.
    @lru_cache(maxsize=None, typed=True)
    def query_sql(self, where, order_by=None, limit=None, count=False):
        """``Query.all``'s text (``Query.count``'s with ``count``) for AND-ed
        ``where`` fragments (a tuple), an ORDER BY clause and a LIMIT."""
        sql = (f"SELECT {'COUNT(*) AS n' if count else self.select_list} "
               f"FROM {self.table}")
        if where:
            sql += " WHERE " + " AND ".join(where)
        if order_by:
            sql += f" ORDER BY {order_by}"
        if limit is not None:
            sql += f" LIMIT {limit}"
        return sql

    def hydration(self, columns):
        """``(pk_position, fill, eager)`` for rows whose columns are the
        tuple ``columns``.  ``fill(entity, row, session)`` is generated for
        the shape: a plain attribute store per mapped column, its row
        position a constant, then the session — a hand-written hydrator,
        the form the interpreter runs fastest (no ``__dict__`` materialised).
        ``eager``: what every new instance loads, in ``relations`` order."""
        position = {name: i for i, name in enumerate(columns)}
        missing = [c for c in self.column_names if c not in position]
        if missing:
            raise MappingError(
                f"cannot hydrate {self.cls.__name__}: the result set lacks "
                f"{missing} (its columns: {list(columns)})")
        stores = "".join(f"    entity.{c.name} = row[{position[c.column]}]\n"
                         for c in self.columns)
        namespace = {}
        exec(f"def fill(entity, row, session):\n{stores}"
             f"    entity.__sloth_session__ = session\n", namespace)
        return position[self.pk.column], namespace["fill"], self._eager

    def ddl(self):
        """CREATE TABLE statement for this entity."""
        parts = []
        for col in self.columns:
            piece = f"{col.column} {col.type_name}"
            if col.primary_key:
                piece += " PRIMARY KEY"
            elif col.not_null:
                piece += " NOT NULL"
            parts.append(piece)
        return f"CREATE TABLE {self.table} ({', '.join(parts)})"


class EntityMeta(type):
    """Collects Column/Relation declarations into ``__info__``."""

    def __new__(mcs, name, bases, namespace):
        cls = super().__new__(mcs, name, bases, namespace)
        if namespace.get("__abstract__"):
            return cls
        table = namespace.get("__table__")
        if table is None:
            return cls  # plain helper subclass, not mapped
        columns = []
        relations = []
        for base in reversed(cls.__mro__):
            for value in vars(base).values():
                if isinstance(value, Column) and value not in columns:
                    columns.append(value)
                elif isinstance(value, Relation) and value not in relations:
                    relations.append(value)
        cls.__info__ = EntityInfo(cls, table, columns, relations)
        _REGISTRY[name] = cls
        return cls


class Entity(metaclass=EntityMeta):
    """Base class for all mapped entities."""

    __abstract__ = True
    __sloth_session__ = None  # set when the entity is attached to a session

    def __init__(self, **kwargs):
        info = getattr(type(self), "__info__", None)
        if info is not None:
            valid = {c.name for c in info.columns}
            valid.update(r.name for r in info.relations)
            for key in kwargs:
                if key not in valid:
                    raise TypeError(
                        f"{type(self).__name__} has no mapped attribute "
                        f"{key!r}")
        for key, value in kwargs.items():
            setattr(self, key, value)

    @property
    def pk_value(self):
        return getattr(self, type(self).__info__.pk.name)

    def column_values(self):
        """Values in mapping order, for INSERT."""
        return [getattr(self, c.name) for c in type(self).__info__.columns]

    def __repr__(self):
        info = getattr(type(self), "__info__", None)
        if info is None:
            return super().__repr__()
        return f"{type(self).__name__}(pk={self.pk_value!r})"


def schema_ddl(entities):
    """CREATE TABLE + FK index statements for a list of entity classes."""
    statements = [cls.__info__.ddl() for cls in entities]
    for cls in entities:
        info = cls.__info__
        for relation in info.relations:
            if isinstance(relation, ManyToOne):
                statements.append(
                    f"CREATE INDEX idx_{info.table}_{relation.column} "
                    f"ON {info.table} ({relation.column})")
    return statements
