"""The load plan against a by-name hydrator, and the page counts it must keep.

``reference_state`` is the hydrator the session had before it ran from a
plan (a name -> position dict per result set, one lookup per column).  For
every mapped class of the two applications and a synthetic pair whose FK
column is mapped under another attribute name, seeded result sets — columns
permuted and padded — go through ``Session._deserialize_many`` under both
backends; the entities, the identity-map behaviour and the EAGER statements
(text and order) must be what the reference predicts.  Two pinned pages keep
the plan from moving a registration: same counts, same simulated time, same
HTML as before it existed.
"""

import hashlib
import random

import pytest

from repro.apps.itracker import schema as itracker_schema
from repro.apps.openmrs import schema as openmrs_schema
from repro.bench.harness import load_page
from repro.core.runtime import SlothRuntime
from repro.core.thunk import force
from repro.orm import (
    Column, EAGER, Entity, LAZY, ManyToOne, MappingError, OneToMany,
    OriginalBackend, Session, SlothBackend, schema_ddl,
)
from repro.orm.mapping import Relation
from repro.sqldb.result import ExecResult
from repro.sqldb.types import INTEGER, TEXT
from repro.web import appserver
from repro.web.appserver import MODE_ORIGINAL, MODE_SLOTH


class PlanOwner(Entity):
    __table__ = "plan_owner"
    id = Column(INTEGER, primary_key=True)
    label = Column(TEXT)
    pets = OneToMany("PlanPet", foreign_key="owner_id", fetch=EAGER,
                     order_by="id")


class PlanPet(Entity):
    __table__ = "plan_pet"
    id = Column(INTEGER, primary_key=True)
    owner_ref = Column(INTEGER, column="owner_id")  # attribute != column
    keeper_ref = Column(INTEGER, column="keeper_id")
    nickname = Column(TEXT, column="name")
    owner = ManyToOne("PlanOwner", column="owner_id", fetch=EAGER)
    keeper = ManyToOne(PlanOwner, column="keeper_id", fetch=LAZY)


SYNTHETIC = [PlanOwner, PlanPet]
MAPPED = itracker_schema.ENTITIES + openmrs_schema.ENTITIES + SYNTHETIC
BACKENDS = ("original", "sloth")


# -- the reference ------------------------------------------------------------


def reference_state(cls, columns, row):
    """attribute -> value, found by column name."""
    by_name = {}
    for i, name in enumerate(columns):
        by_name[name] = i
    return {column.name: row[by_name[column.column]]
            for column in cls.__info__.columns}


def reference_select(info, where_column, order_by=None):
    sql = (f"SELECT {', '.join(c.column for c in info.columns)} "
           f"FROM {info.table} WHERE {where_column} = ?")
    return sql + (f" ORDER BY {order_by}" if order_by else "")


def reference_eager(cls, states):
    """The ``(sql, params)`` the EAGER relations of ``states`` (attribute
    dicts of new instances, in row order) issue: per instance in
    ``info.relations`` order; a NULL FK and an instance this session already
    holds (here: an earlier row of a self-referential class) issue nothing."""
    info = cls.__info__
    attribute_of = {c.column: c.name for c in info.columns}
    held = set()
    for state in states:
        held.add((cls, state[info.pk.name]))
        for relation in info.relations:
            if relation.fetch != EAGER:
                continue
            target = relation.target.__info__
            if isinstance(relation, ManyToOne):
                fk = state[attribute_of[relation.column]]
                if fk is not None and (relation.target, fk) not in held:
                    yield reference_select(target, target.pk.column), (fk,)
            else:
                yield (reference_select(target, relation.foreign_key,
                                        relation.order_by),
                       (state[info.pk.name],))


# -- stacks -------------------------------------------------------------------


@pytest.fixture
def stack(sim_stack):
    """A database with every mapped table, all empty (an EAGER load that
    executes finds nothing and goes no further), and ``make(kind)`` ->
    ``(session, issued)``: a session on that backend and a function listing
    the ``(sql, params)`` issued so far — the driver's calls under the
    original backend, the query store's buffer (nothing forces it) under
    Sloth."""
    db, clock, server, driver, batch_driver = sim_stack
    for ddl in schema_ddl(MAPPED):
        db.execute(ddl)

    def make(kind):
        if kind == "sloth":
            runtime = SlothRuntime(batch_driver, clock, server.cost_model)
            return (Session(SlothBackend(runtime)),
                    lambda: list(runtime.query_store._buffer))
        calls = []
        execute = driver.execute

        def recording_execute(sql, params=()):
            calls.append((sql, tuple(params)))
            return execute(sql, params)

        driver.execute = recording_execute
        return Session(OriginalBackend(driver)), lambda: list(calls)

    return make


@pytest.fixture
def pets(sim_stack, stack):
    """``stack`` with two owners and four pets in the synthetic tables."""
    db = sim_stack[0]
    db.execute("INSERT INTO plan_owner (id, label) VALUES (1, 'ann'), "
               "(2, 'bob')")
    db.execute("INSERT INTO plan_pet (id, owner_id, keeper_id, name) VALUES "
               "(10, 1, 1, 'rex'), (11, 1, 2, 'tom'), (12, 2, 2, 'kit'), "
               "(13, NULL, NULL, 'stray')")
    return stack


def seeded_result(cls, rng, pks):
    """A result set for ``cls``: its columns and 1-3 others in a seeded
    order, one row per pk; non-pk cells are small ints (so FKs repeat and
    self-references hit) or NULL."""
    info = cls.__info__
    columns = info.column_names + [f"extra_{i}"
                                   for i in range(rng.randint(1, 3))]
    rng.shuffle(columns)
    rows = [tuple(pk if name == info.pk.column
                  else rng.choice([None, 1, 2, 3, rng.randint(4, 9)])
                  for name in columns)
            for pk in pks]
    return ExecResult(columns, rows)


# -- the oracle ---------------------------------------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
@pytest.mark.parametrize("cls", MAPPED, ids=lambda cls: cls.__name__)
def test_hydration_matches_the_by_name_reference(cls, kind, stack):
    rng = random.Random(f"{cls.__name__}/{kind}")
    session, issued = stack(kind)
    info = cls.__info__
    # pk 3 comes twice: the second row is an identity-map hit.
    first = seeded_result(cls, rng, [1, 2, 3, 3, 4])
    entities = session._deserialize_many(cls, first)

    expected = {}
    for row in first.rows:
        state = reference_state(cls, first.columns, row)
        expected.setdefault(state[info.pk.name], state)
    assert [e.__dict__[info.pk.name] for e in entities] == [1, 2, 3, 3, 4]
    assert entities[2] is entities[3]
    for entity in entities:
        state = {c.name: entity.__dict__[c.name] for c in info.columns}
        assert state == expected[entity.pk_value]
        assert entity.__sloth_session__ is session
        assert not any(name.startswith("extra_") for name in entity.__dict__)

    statements = list(reference_eager(cls, expected.values()))
    if kind == "sloth":  # the store holds one of each pending statement
        statements = list(dict.fromkeys(statements))
    assert issued() == statements

    # The same pks again, other values, other column order: the objects
    # first loaded come back as they were, and nothing is issued for them.
    again = session._deserialize_many(
        cls, seeded_result(cls, rng, [4, 3, 2, 1]))
    assert [id(e) for e in again] == [
        id(e) for e in (entities[4], entities[2], entities[1], entities[0])]
    for entity in again:
        state = {c.name: entity.__dict__[c.name] for c in info.columns}
        assert state == expected[entity.pk_value]
    assert issued() == statements


def test_one_plan_per_class_and_result_shape():
    info = PlanPet.__info__
    columns = ("name", "id", "pad", "owner_id", "keeper_id")
    assert info.hydration(columns) is info.hydration(tuple(list(columns)))
    pk_at, fill, eager = info.hydration(columns)
    assert pk_at == 1
    assert eager == (PlanPet.owner,)
    pet = PlanPet.__new__(PlanPet)
    fill(pet, ("rex", 10, "-", 1, 2), "session")
    assert pet.__dict__ == {"id": 10, "owner_ref": 1, "keeper_ref": 2,
                            "nickname": "rex",
                            "__sloth_session__": "session"}


# -- relation loads -------------------------------------------------------------


@pytest.fixture
def counted(monkeypatch):
    """The ``(instance, relation)`` of every ``Session.load_relation`` call
    and of every ``Relation.__get__`` on an instance, patched on the classes
    the way a tracer patches them."""
    calls = {"loads": [], "gets": []}
    load_relation, get = Session.load_relation, Relation.__get__

    def counting_load(self, instance, relation):
        calls["loads"].append((instance, relation))
        return load_relation(self, instance, relation)

    def counting_get(self, instance, owner=None):
        if instance is not None:
            calls["gets"].append((instance, self))
        return get(self, instance, owner)

    monkeypatch.setattr(Session, "load_relation", counting_load)
    monkeypatch.setattr(Relation, "__get__", counting_get)
    return calls


@pytest.mark.parametrize("kind", BACKENDS)
def test_a_relation_loads_once_through_load_relation(kind, pets, counted):
    session, _ = pets(kind)
    pet = session.get(PlanPet, 10)
    assert pet.owner.label == "ann"
    keeper = pet.keeper  # LAZY: the descriptor loads it, once
    assert pet.keeper is keeper and pet.__dict__["keeper"] is keeper
    assert force(keeper) is force(pet.owner)  # the identity map's instance
    assert [p.nickname for p in keeper.pets] == ["rex", "tom"]
    assert force(keeper.pets)[0] is force(pet)

    loads, gets = counted["loads"], counted["gets"]
    assert gets == [(force(pet), PlanPet.keeper)]
    # Whenever the backend ran them, by now: one load per EAGER relation of
    # every instance the session holds, one per descriptor call, none twice.
    held = session.identity_map
    assert set(held) == {(PlanPet, 10), (PlanPet, 11), (PlanOwner, 1)}
    eager = [(entity, relation) for entity in held.values()
             for relation in type(entity).__info__.relations
             if relation.fetch == EAGER]
    assert len(loads) == len(set(loads)) == 4
    assert set(loads) == set(eager + gets)


@pytest.mark.parametrize("kind", BACKENDS)
def test_renamed_fk_column_and_null_fk(kind, pets):
    session, _ = pets(kind)
    pet = session.get(PlanPet, 12)
    assert pet.owner_ref == 2 and pet.nickname == "kit"
    assert pet.owner.label == "bob" and pet.keeper.label == "bob"
    stray = session.get(PlanPet, 13)
    assert stray.owner is None and stray.keeper is None


def test_many_to_one_over_an_unmapped_column_is_a_mapping_error():
    with pytest.raises(MappingError) as error:
        class PlanOrphan(Entity):
            __table__ = "plan_orphan"
            id = Column(INTEGER, primary_key=True)
            owner = ManyToOne("PlanOwner", column="owner_id")
    for part in ("PlanOrphan", "owner", "owner_id"):
        assert part in str(error.value)


@pytest.mark.parametrize("kind", BACKENDS)
def test_assignment_lands_on_the_instance(kind, pets, counted):
    session, issued = pets(kind)
    pet = session.get(PlanPet, 11)
    before = issued()
    ann = PlanOwner(id=7, label="new")
    pet.nickname = "thomas"
    pet.keeper = ann  # assigned before any load: nothing to fetch
    assert pet.__dict__["nickname"] == "thomas" and pet.nickname == "thomas"
    assert pet.__dict__["keeper"] is ann and pet.keeper is ann
    assert counted["gets"] == [] and issued() == before
    fresh = PlanPet(id=99, nickname="new")
    assert fresh.__dict__ == {"id": 99, "nickname": "new"}
    assert fresh.owner_ref is None  # a column never set
    with pytest.raises(MappingError):
        fresh.owner  # detached


# -- satellite bugs -------------------------------------------------------------


@pytest.mark.parametrize("kind", BACKENDS)
def test_first_leaves_the_query_unlimited(kind, pets):
    session, _ = pets(kind)
    query = session.query(PlanPet).order_by("id")
    assert query.first().id == 10
    assert [pet.id for pet in query.all()] == [10, 11, 12, 13]
    limited = session.query(PlanPet).order_by("id").limit(3)
    assert limited.first().id == 10
    assert [pet.id for pet in limited.all()] == [10, 11, 12]


@pytest.mark.parametrize("kind", BACKENDS)
def test_result_without_a_mapped_column_is_a_mapping_error(kind, stack):
    session, _ = stack(kind)
    short = ExecResult(["id", "name", "keeper_id"], [(10, "rex", 1)])
    for _ in range(2):  # the refused shape is not remembered as a plan
        with pytest.raises(MappingError) as error:
            session._deserialize_many(PlanPet, short)
        assert "PlanPet" in str(error.value)
        assert "owner_id" in str(error.value)
    assert session.identity_map == {}
    no_pk = ExecResult(["owner_id", "keeper_id", "name"], [(1, 1, "rex")])
    with pytest.raises(MappingError, match="'id'"):
        session._deserialize_many(PlanPet, no_pk)


# -- two pinned pages -----------------------------------------------------------

# (queries_registered, round_trips, thunks_allocated, time_ms, sha256(html)[:16])
# per mode, read at the commit before the load plan.
PINNED = {
    ("itracker", "module-projects/view_issue.jsp"): {
        MODE_SLOTH: (22, 7, 37, 21.757, "d2a45ac6a4639fd4"),
        MODE_ORIGINAL: (16, 16, 0, 31.042, "d2a45ac6a4639fd4"),
    },
    ("openmrs", "encounters/encounterDisplay.jsp"): {
        MODE_SLOTH: (215, 7, 237, 36.933, "3be06961e0eb5fd6"),
        MODE_ORIGINAL: (129, 129, 0, 112.224, "3be06961e0eb5fd6"),
    },
}


@pytest.mark.parametrize("app,url", list(PINNED))
def test_pinned_page_counts(app, url, request, monkeypatch):
    db, dispatcher = request.getfixturevalue(f"{app}_app")
    runtimes = []

    class RecordedRuntime(SlothRuntime):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runtimes.append(self)

    monkeypatch.setattr(appserver, "SlothRuntime", RecordedRuntime)
    for mode, pinned in PINNED[app, url].items():
        page = load_page(db, dispatcher, url, mode=mode)
        assert (page.queries_registered, page.round_trips,
                runtimes[-1].stats.thunks_allocated,
                round(page.time_ms, 6),
                hashlib.sha256(page.html.encode()).hexdigest()[:16]
                ) == pinned, mode


# -- query text per shape -------------------------------------------------------


def reference_query_sql(info, where, order_by, limit, count=False):
    """The text ``Query.all`` / ``Query.count`` assembled on every call
    before it was built once per shape."""
    if count:
        sql = f"SELECT COUNT(*) AS n FROM {info.table}"
    else:
        sql = f"SELECT {info.select_list} FROM {info.table}"
    if where:
        sql += " WHERE " + " AND ".join(where)
    if not count:
        if order_by:
            sql += f" ORDER BY {order_by}"
        if limit is not None:
            sql += f" LIMIT {limit}"
    return sql


QUERY_SHAPES = [
    (where, order_by, limit)
    for where in ((), ("owner_id = ?",), ("owner_id = ?", "name <> ?"))
    for order_by in (None, "", "id", "id DESC, name")
    for limit in (None, 0, 1, 1.0, True, 3)
]


class TextBackend:
    """A backend that records the text of each read and runs nothing."""

    def __init__(self):
        self.texts = []

    def read_eager(self, sql, params, deserialize):
        self.texts.append(sql)


@pytest.mark.parametrize("cls", SYNTHETIC, ids=lambda cls: cls.__name__)
def test_query_text_is_built_once_per_shape_and_byte_identical(cls):
    """Every ``(where, order_by, limit)`` gives the text the per-call
    assembly gave, and every query of one shape issues the same ``str``;
    ``count`` likewise per ``where``.  A LIMIT of 1.0 or True is its own
    shape, not the one of 1."""
    backend = TextBackend()
    session = Session(backend)
    info = cls.__info__
    for count in (False, True):
        for where, order_by, limit in QUERY_SHAPES:
            expected = reference_query_sql(info, where, order_by, limit,
                                           count)
            for twin in range(3):
                query = session.query(cls)
                for fragment in where:
                    query.where(fragment, twin)
                if order_by is not None:
                    query.order_by(order_by)
                if limit is not None:
                    query.limit(limit)
                query.count() if count else query.all()
            first, *later = backend.texts[-3:]
            assert first == expected
            assert all(text is first for text in later), expected
