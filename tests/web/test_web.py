import pytest

from repro.core.thunk import Thunk
from repro.net.clock import CostModel
from repro.sqldb import Database
from repro.web.appserver import AppServer, MODE_ORIGINAL, MODE_SLOTH
from repro.web.framework import Dispatcher, ModelAndView, Request
from repro.web.templates import Template, TemplateError
from repro.web.writer import ThunkWriter


class TestWriter:
    """The writer is its buffer: a ``str`` per text entry, ``(value, path
    still to walk)`` per cell that may still be delayed."""

    def test_plain_writes(self):
        w = ThunkWriter()
        w.buffer.append("a")
        w.buffer.append("b")
        assert w.flush() == "ab"

    def test_thunk_not_forced_until_flush(self):
        calls = []
        w = ThunkWriter()
        w.buffer.append((Thunk(lambda: calls.append(1) or "x"), ()))
        assert not calls
        assert w.flush() == "x"
        assert calls == [1]

    def test_none_renders_empty(self):
        w = ThunkWriter()
        w.buffer.append((Thunk(lambda: None), ()))
        w.buffer.append((Thunk(lambda: None), ("name", "x")))
        assert w.flush() == ""

    def test_float_formatting(self):
        w = ThunkWriter()
        w.buffer.append((Thunk(lambda: 2.5), ()))
        assert w.flush() == "2.5"

    def test_path_walked_from_a_delayed_value_at_flush(self):
        w = ThunkWriter()
        w.buffer.append((Thunk(lambda: {"a": Thunk(lambda: {"b": 7})}),
                         ("a", "b")))
        assert w.flush() == "7"


class TestTemplates:
    def test_variable_substitution(self):
        t = Template("Hello {{ name }}!")
        w = ThunkWriter()
        t.render({"name": "World"}, w)
        assert w.flush() == "Hello World!"

    def test_dotted_path_and_dict(self):
        class Obj:
            inner = {"x": 5}

        t = Template("{{ o.inner.x }}")
        w = ThunkWriter()
        t.render({"o": Obj()}, w)
        assert w.flush() == "5"

    def test_for_loop(self):
        t = Template("{% for i in items %}[{{ i }}]{% endfor %}")
        w = ThunkWriter()
        t.render({"items": [1, 2, 3]}, w)
        assert w.flush() == "[1][2][3]"

    def test_if_else(self):
        t = Template("{% if flag %}yes{% else %}no{% endif %}")
        for flag, expected in ((True, "yes"), (False, "no")):
            w = ThunkWriter()
            t.render({"flag": flag}, w)
            assert w.flush() == expected

    def test_if_not(self):
        t = Template("{% if not flag %}inverted{% endif %}")
        w = ThunkWriter()
        t.render({"flag": False}, w)
        assert w.flush() == "inverted"

    def test_nested_loops(self):
        t = Template("{% for row in rows %}{% for c in row.cells %}"
                     "{{ c }},{% endfor %};{% endfor %}")
        w = ThunkWriter()
        t.render({"rows": [{"cells": [1, 2]}, {"cells": [3]}]}, w)
        assert w.flush() == "1,2,;3,;"

    def test_lazy_mode_defers_delayed_values_to_flush(self):
        # Plain attribute chains resolve at render time (that is what
        # registers relation queries); the first *delayed* value and the
        # rest of the path wait until flush.
        calls = []
        delayed = Thunk(lambda: calls.append(1) or "n")

        class Entity:
            name = delayed

        t = Template("{{ e.name }}")
        w = ThunkWriter()
        t.render({"e": Entity()}, w, lazy_mode=True)
        assert not calls  # not forced at render
        assert w.flush() == "n"
        assert calls == [1]

    def test_lazy_mode_walks_to_first_delayed_value(self):
        forced = []

        class Rel:
            name = "deep"

        proxy = Thunk(lambda: forced.append(1) or Rel())

        class Entity:
            rel = proxy

        t = Template("{{ e.rel.name }}")
        w = ThunkWriter()
        t.render({"e": Entity()}, w, lazy_mode=True)
        assert not forced  # the relation proxy was not forced at render
        assert w.flush() == "deep"

    def test_unknown_variable_raises(self):
        t = Template("{{ missing }}")
        w = ThunkWriter()
        with pytest.raises(TemplateError):
            t.render({}, w)
            w.flush()

    def test_unclosed_tag_raises(self):
        with pytest.raises(TemplateError):
            Template("{% for x in items %}no end")

    def test_unknown_tag_raises(self):
        with pytest.raises(TemplateError):
            Template("{% frob x %}")

    def test_bad_expression_raises(self):
        with pytest.raises(TemplateError):
            Template("{{ a + b }}")


MODES = pytest.mark.parametrize("lazy", [False, True],
                                ids=["eager", "lazy"])


def _render(source, scope, lazy):
    writer = ThunkWriter()
    Template(source).render(scope, writer, lazy_mode=lazy)
    return writer


class TestTemplateSemantics:
    """What a page sees of the template engine, pinned in both modes."""

    @MODES
    @pytest.mark.parametrize("source", [
        "{{ missing }}", "{{ missing.attr }}",
        "{% for x in missing %}{% endfor %}",
        "{% if missing %}{% endif %}", "{% if not missing %}{% endif %}"])
    def test_unknown_head_variable_raises_at_render(self, lazy, source):
        with pytest.raises(TemplateError, match="unknown template "
                                                "variable 'missing'"):
            _render(source, {"other": 1}, lazy)

    @MODES
    def test_none_in_the_middle_of_a_path_renders_empty(self, lazy):
        class Obj:
            rel = None

        scope = {"d": {"b": None}, "o": Obj(),
                 "t": Thunk(lambda: None)}
        writer = _render("[{{ d.b.c }}|{{ o.rel.name.x }}|{{ t.name }}]",
                         scope, lazy)
        assert writer.flush() == "[||]"

    @MODES
    def test_missing_attribute_on_plain_value_raises_at_render(self, lazy):
        class Patient:
            name = "p"

        with pytest.raises(TemplateError,
                           match="Patient has no attribute 'nme'"):
            _render("{{ p.nme }}", {"p": Patient()}, lazy)

    def test_lazy_missing_attribute_past_delayed_value_raises_at_flush(self):
        class Concept:
            text = "c"

        forced = []

        class Obs:
            concept = Thunk(lambda: forced.append(1) or Concept())

        writer = _render("{{ o.concept.txt }}", {"o": Obs()}, True)
        assert not forced
        with pytest.raises(TemplateError,
                           match="Concept has no attribute 'txt'"):
            writer.flush()

    def test_eager_missing_attribute_past_delayed_value_raises_at_render(
            self):
        class Concept:
            text = "c"

        class Obs:
            concept = Thunk(lambda: Concept())

        with pytest.raises(TemplateError,
                           match="Concept has no attribute 'txt'"):
            _render("{{ o.concept.txt }}", {"o": Obs()}, False)

    @MODES
    def test_loop_variable_restores_the_binding_it_shadowed(self, lazy):
        writer = _render("{{ x }}:{% for x in xs %}{{ x }}{% endfor %}:{{ x }}",
                         {"x": "outer", "xs": [1, 2]}, lazy)
        assert writer.flush() == "outer:12:outer"

    @MODES
    def test_same_named_inner_loop_leaves_the_outer_variable(self, lazy):
        writer = _render("{% for r in rows %}{% for r in r.cells %}{{ r }}"
                         "{% endfor %}/{{ r.name }};{% endfor %}",
                         {"rows": [{"name": "a", "cells": [1, 2]},
                                   {"name": "b", "cells": []}]}, lazy)
        assert writer.flush() == "12/a;/b;"

    @MODES
    def test_loop_variable_is_unbound_after_a_loop_that_shadowed_nothing(
            self, lazy):
        with pytest.raises(TemplateError,
                           match="unknown template variable 'x'"):
            _render("{% for x in xs %}{% endfor %}{{ x }}", {"xs": [1]},
                    lazy)

    @MODES
    def test_for_over_none_renders_nothing(self, lazy):
        writer = _render("a{% for x in xs %}[{{ x }}]{% endfor %}b",
                         {"xs": None}, lazy)
        assert writer.flush() == "ab"
        writer = _render("a{% for x in t.xs %}[{{ x }}]{% endfor %}b",
                         {"t": Thunk(lambda: {"xs": None})}, lazy)
        assert writer.flush() == "ab"

    @MODES
    @pytest.mark.parametrize("flag, expected", [
        (False, "not-set"), (True, "set"), (None, "not-set"), ([], "not-set"),
        ([0], "set")])
    def test_if_not_with_and_without_else(self, lazy, flag, expected):
        writer = _render("{% if not f %}not-set{% else %}set{% endif %}"
                         "|{% if not f %}bare{% endif %}",
                         {"f": flag}, lazy)
        bare = "bare" if expected == "not-set" else ""
        assert writer.flush() == f"{expected}|{bare}"

    @MODES
    def test_if_condition_through_a_delayed_value(self, lazy):
        writer = _render("{% if not t.f %}no{% else %}yes{% endif %}",
                         {"t": Thunk(lambda: {"f": 1})}, lazy)
        assert writer.flush() == "yes"

    @MODES
    @pytest.mark.parametrize("xs, flag, entries", [
        # "<ul>" + 2 texts and 1 cell per item + "</ul>" + one if-arm
        # (the then-arm is a cell, the else-arm one text) + one cell that
        # renders empty, None part-way along its path.
        ([], True, 4), ([1, 2, 3], True, 13), ([1, 2, 3], False, 13),
        ([7], False, 7)])
    def test_render_charge_counts_texts_and_executed_cells(
            self, lazy, xs, flag, entries):
        """``AppServer.load_page`` charges ``app_op_ms`` per buffer entry:
        one per text node and one per ``{{ }}`` cell executed."""
        dispatcher = Dispatcher()
        dispatcher.register(
            "p", lambda ctx, request: ModelAndView(
                "p", {"xs": xs, "f": flag, "a": "A", "n": None}),
            Template("<ul>{% for i in xs %}<li>{{ i }}</li>{% endfor %}</ul>"
                     "{% if f %}{{ a }}{% else %}x{% endif %}{{ n.x }}"))
        server = AppServer(Database(), dispatcher, CostModel(app_op_ms=1.0),
                           mode=MODE_SLOTH if lazy else MODE_ORIGINAL)
        result = server.load_page(Request("p"))
        assert result.phases["app"] == entries
        items = "".join(f"<li>{i}</li>" for i in xs)
        assert result.html == f"<ul>{items}</ul>" + ("A" if flag else "x")


class TestDispatcher:
    def test_route_and_urls(self):
        d = Dispatcher()
        controller = object()
        template = object()
        d.register("a.jsp", controller, template)
        assert d.route("a.jsp") == (controller, template)
        assert d.urls() == ["a.jsp"]
        assert len(d) == 1

    def test_duplicate_route_raises(self):
        d = Dispatcher()
        d.register("a.jsp", None, None)
        with pytest.raises(ValueError):
            d.register("a.jsp", None, None)

    def test_missing_route_raises(self):
        from repro.web.framework import RouteNotFound

        with pytest.raises(RouteNotFound):
            Dispatcher().route("missing.jsp")

    def test_request_accessors(self):
        r = Request("u", params={"a": "1"})
        assert r.get_parameter("a") == "1"
        assert r.get_parameter("zz", "d") == "d"
