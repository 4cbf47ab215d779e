"""A page load frees itself.

``AppServer.load_page`` ends every request, returned or raised: the session
is closed (its entities detached, its identity map emptied) and the query
store drops the registrations it never issued.  Nothing the request built
then refers back to the session or the store, so its whole graph —
session, runtime, driver, entities, thunks, proxies, results — is freed by
refcount.  The tests run with the cycle collector off and want it to find
nothing.
"""

import gc

import pytest

from repro.apps import itracker, openmrs
from repro.apps.itracker import schema as S
from repro.apps.itracker.controllers import view_issue
from repro.bench.harness import MODE_ASYNC, load_page
from repro.core.thunk import force
from repro.orm.errors import MappingError
from repro.web.appserver import MODE_ORIGINAL, MODE_SLOTH
from repro.web.framework import Dispatcher

MODES = (MODE_ORIGINAL, MODE_SLOTH, MODE_ASYNC)
APPS = {"itracker": itracker, "openmrs": openmrs}
URL = "module-projects/view_issue.jsp"


def cyclic_garbage_after(run):
    """What the cycle collector finds after ``run()`` ran without it."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        run()
        return gc.collect()
    finally:
        if enabled:
            gc.enable()


def one_page(dispatcher, controller):
    """A dispatcher serving ``controller`` with view_issue's template."""
    one = Dispatcher()
    one.register(URL, controller, dispatcher.route(URL)[1])
    return one


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("app", sorted(APPS))
def test_page_loads_leave_no_cyclic_garbage(app, mode, request):
    db, dispatcher = request.getfixturevalue(f"{app}_app")
    urls = APPS[app].BENCHMARK_URLS[::6]

    def sweep():
        for url in urls:
            assert load_page(db, dispatcher, url, mode=mode).html

    assert cyclic_garbage_after(sweep) == 0


class Boom(Exception):
    pass


@pytest.mark.parametrize("mode", MODES)
def test_a_request_that_raises_mid_way_leaves_no_cyclic_garbage(
        mode, itracker_app):
    db, dispatcher = itracker_app

    def failing(ctx, request):
        view_issue(ctx, request)  # entities loaded, queries registered
        assert ctx.session.identity_map
        raise Boom

    def load():
        with pytest.raises(Boom):
            load_page(db, one_page(dispatcher, failing), URL, mode=mode)

    assert cyclic_garbage_after(load) == 0


@pytest.mark.parametrize("mode", MODES)
def test_entities_are_detached_when_the_request_ends(mode, itracker_app):
    """What the request loaded stays readable; a relation it never loaded
    raises ``MappingError``, as Hibernate's lazy load after
    ``Session.close`` does, and issues nothing."""
    db, dispatcher = itracker_app
    kept = []

    def keeping(ctx, request):
        mav = view_issue(ctx, request)
        issue = ctx.session.get(S.Issue, 1)
        kept.append((issue, force(issue.history)))
        return mav

    assert load_page(db, one_page(dispatcher, keeping), URL, mode=mode).html
    issue, history = kept.pop()
    project = force(issue.project)  # EAGER, and rendered by the page
    assert (issue.id, project.id) == (1, issue.project_id)
    assert force(issue.history) == history
    touched = db.total_rows_touched
    for entity, relation in ((issue, "owner"), (project, "issues")):
        assert entity.__sloth_session__ is None
        with pytest.raises(MappingError, match=f"{relation!r}.*detached"):
            getattr(entity, relation)
    assert db.total_rows_touched == touched


@pytest.mark.parametrize("mode", MODES)
def test_a_proxy_forced_after_the_request_ends_raises(mode, itracker_app):
    """A LAZY relation the page never renders, stashed unforced: the
    original's proxy never ran its query, Sloth's ran it with one of the
    page's batches.  Forced after the request ended, either raises
    ``MappingError`` like any lazy load on a detached entity — no
    statement issued, no row touched, nothing attached to the closed
    session again."""
    db, dispatcher = itracker_app
    kept = []

    def keeping(ctx, request):
        mav = view_issue(ctx, request)
        kept.append((mav.model["attachments"], ctx.session,
                     ctx.runtime.driver))
        return mav

    assert load_page(db, one_page(dispatcher, keeping), URL, mode=mode).html
    attachments, session, driver = kept.pop()
    thunk = object.__getattribute__(attachments, "_thunk")
    assert not thunk.is_forced
    if mode != MODE_ORIGINAL:
        assert thunk.query_id.result is not None  # issued with the page
    before = (driver.stats.statements, db.total_rows_touched)
    with pytest.raises(MappingError, match="detached"):
        force(attachments)
    assert (driver.stats.statements, db.total_rows_touched) == before
    assert session.identity_map == {}
