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
"""

from repro.orm.errors import MappingError
from repro.sqldb import types as sqltypes

LAZY = "lazy"
EAGER = "eager"

# name -> entity class, for resolving string targets in relations
_REGISTRY = {}


def resolve_entity(ref):
    """Resolve a relation target given as a class or class name."""
    if isinstance(ref, type):
        return ref
    target = _REGISTRY.get(ref)
    if target is None:
        raise MappingError(f"unknown entity {ref!r}; declared entities: "
                           f"{sorted(_REGISTRY)}")
    return target


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
        if instance is None:
            return self
        return instance.__dict__.get(self.name)

    def __set__(self, instance, value):
        instance.__dict__[self.name] = value

    def __repr__(self):
        return f"Column({self.name!r}, {self.type_name})"


class Relation:
    """Base class for relationship descriptors."""

    def __init__(self, target, fetch=LAZY):
        self.target_ref = target
        self.fetch = fetch
        self.name = None

    def __set_name__(self, owner, name):
        self.name = name

    @property
    def target(self):
        return resolve_entity(self.target_ref)

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        cached = instance.__dict__.get(self.name)
        if cached is not None or self.name in instance.__dict__:
            return cached
        session = instance.__sloth_session__
        if session is None:
            raise MappingError(
                f"accessing relation {self.name!r} on a detached "
                f"{type(instance).__name__} instance")
        value = session.load_relation(instance, self)
        instance.__dict__[self.name] = value
        return value

    def __set__(self, instance, value):
        instance.__dict__[self.name] = value


class ManyToOne(Relation):
    """A reference to the owning side of a foreign key."""

    def __init__(self, target, column, fetch=LAZY):
        super().__init__(target, fetch)
        self.column = column  # FK column on *this* entity's table


class OneToMany(Relation):
    """A collection of child entities holding a foreign key to us."""

    def __init__(self, target, foreign_key, fetch=LAZY, order_by=None):
        super().__init__(target, fetch)
        self.foreign_key = foreign_key  # FK column on the *target* table
        self.order_by = order_by


class EntityInfo:
    """Mapping metadata extracted from an entity class."""

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
        self.pk = pks[0]
        self.column_names = [c.column for c in columns]

    @property
    def select_list(self):
        return ", ".join(self.column_names)

    def select_by_pk_sql(self):
        return (f"SELECT {self.select_list} FROM {self.table} "
                f"WHERE {self.pk.column} = ?")

    def select_by_fk_sql(self, fk_column, order_by=None):
        sql = (f"SELECT {self.select_list} FROM {self.table} "
               f"WHERE {fk_column} = ?")
        if order_by:
            sql += f" ORDER BY {order_by}"
        return sql

    def insert_sql(self):
        placeholders = ", ".join("?" for _ in self.column_names)
        return (f"INSERT INTO {self.table} "
                f"({', '.join(self.column_names)}) VALUES ({placeholders})")

    def update_sql(self):
        sets = ", ".join(f"{c} = ?" for c in self.column_names
                         if c != self.pk.column)
        return (f"UPDATE {self.table} SET {sets} "
                f"WHERE {self.pk.column} = ?")

    def delete_sql(self):
        return f"DELETE FROM {self.table} WHERE {self.pk.column} = ?"

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
