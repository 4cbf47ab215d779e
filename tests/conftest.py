"""Shared fixtures: seeded databases and app stacks (built once)."""

import pytest

from repro.net.clock import CostModel, SimClock
from repro.net.driver import BatchDriver, Driver
from repro.net.server import DatabaseServer
from repro.sqldb import Database
from repro.sqldb.result_cache import DEFAULT_RESULT_CACHE_LIMIT


@pytest.fixture(params=["cached", "uncached"])
def cache_size(request):
    """A ``result_cache_size`` for each of a SELECT's two paths: the cache
    on (probe, run, store) and off (plan and run only)."""
    return {"cached": DEFAULT_RESULT_CACHE_LIMIT,
            "uncached": 0}[request.param]


@pytest.fixture
def db():
    """An empty database."""
    return Database()


@pytest.fixture
def people_db():
    """A small two-table database used across sqldb tests."""
    database = Database()
    database.execute_script("""
    CREATE TABLE person (id INT PRIMARY KEY, name TEXT NOT NULL, age INT,
                         city TEXT);
    CREATE TABLE pet (id INT PRIMARY KEY, owner_id INT, species TEXT);
    CREATE INDEX idx_pet_owner ON pet (owner_id)
    """)
    rows = [
        (1, "alice", 34, "boston"),
        (2, "bob", 28, "nyc"),
        (3, "carol", 41, "boston"),
        (4, "dave", None, "sf"),
    ]
    for row in rows:
        database.execute(
            "INSERT INTO person (id, name, age, city) VALUES (?, ?, ?, ?)",
            row)
    pets = [(10, 1, "cat"), (11, 1, "dog"), (12, 2, "cat"), (13, 3, "fish")]
    for pet in pets:
        database.execute(
            "INSERT INTO pet (id, owner_id, species) VALUES (?, ?, ?)", pet)
    return database


@pytest.fixture
def sim_stack(db):
    """(db, clock, server, driver, batch_driver) wired together."""
    cost_model = CostModel()
    clock = SimClock()
    server = DatabaseServer(db, cost_model)
    driver = Driver(server, clock, cost_model)
    batch_driver = BatchDriver(server, clock, cost_model)
    return db, clock, server, driver, batch_driver


@pytest.fixture(scope="session")
def itracker_app():
    from repro.apps import itracker

    return itracker.build_app()


@pytest.fixture(scope="session")
def openmrs_app():
    from repro.apps import openmrs

    return openmrs.build_app()
