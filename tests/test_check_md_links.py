"""``tools/check_md_links.py`` resolves code references as well as links:
a ``tests/....py::name`` reference must name a definition of that file,
and a ``src/...`` path must exist."""

import importlib.util
import os

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_md_links", os.path.join(ROOT, "tools", "check_md_links.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _check(tmp_path, text):
    doc = tmp_path / "doc.md"
    doc.write_text(text, encoding="utf-8")
    return _load_tool().main(["check_md_links.py", str(doc)])


def test_the_repository_documents_resolve():
    assert _load_tool().main(["check_md_links.py"]) == 0


def test_references_that_resolve_pass(tmp_path):
    assert _check(tmp_path, (
        "`tests/sqldb/test_vectorized.py::FALLBACK_SHAPES` (an assignment),\n"
        "`tests/net/test_net.py::TestOpenAppInterval` (a class),\n"
        "`tests/web/test_web.py::TestTemplateSemantics::"
        "test_loop_variable_restores_the_binding_it_shadowed` (a method),\n"
        "`src/repro/sqldb/plan/compile.py` and `src/repro/sqldb`.\n")) == 0


@pytest.mark.parametrize("reference", [
    "tests/sqldb/test_vectorized.py::NO_SUCH_SHAPES",
    "tests/sqldb/test_no_such_file.py::FALLBACK_SHAPES",
    "tests/web/test_web.py::TestTemplateSemantics::test_no_such_case",
    "tests/sqldb/test_vectorized.py::_db::nested",
    "src/repro/sqldb/no_such_module.py",
])
def test_a_dangling_reference_fails(tmp_path, capsys, reference):
    assert _check(tmp_path, f"See `{reference}`.\n") == 1
    out = capsys.readouterr().out
    assert out.startswith("BROKEN ") and out.endswith(
        f"doc.md:1: {reference}\n")
