import pytest

from repro.core.thunk import Thunk
from repro.web.framework import Dispatcher, Request
from repro.web.templates import Template, TemplateError
from repro.web.writer import ThunkWriter


class TestWriter:
    def test_plain_writes(self):
        w = ThunkWriter()
        w.write("a")
        w.write("b")
        assert w.flush() == "ab"

    def test_thunk_not_forced_until_flush(self):
        calls = []
        w = ThunkWriter()
        w.write_thunk(Thunk(lambda: calls.append(1) or "x"))
        assert not calls
        assert w.flush() == "x"
        assert calls == [1]

    def test_none_renders_empty(self):
        w = ThunkWriter()
        w.write_thunk(Thunk(lambda: None))
        assert w.flush() == ""

    def test_float_formatting(self):
        w = ThunkWriter()
        w.write_thunk(Thunk(lambda: 2.5))
        assert w.flush() == "2.5"


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
