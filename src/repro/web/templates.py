"""Miniature template engine (the JSP analog).

Syntax::

    <h1>{{ patient.name }}</h1>
    {% for enc in encounters %}<li>{{ enc.concept.text }}</li>{% endfor %}
    {% if visits %} ... {% else %} ... {% endif %}

A template parses once into an *op program*, a list of ``(op, arg)``:
``(TEXT, str)``, ``(VAR, path)`` for a ``{{ }}`` cell, ``(FOR, (path,
name, body_ops))`` and ``(IF, (path, negated, body_ops, orelse_ops))``.  A
dotted ``path`` compiles to its head name and the suffixes left to walk
after it: ``a.b.c`` is ``("a", (("b", "c"), ("c",)))``.  A segment reads a
dict key (missing: ``None``) or an attribute (missing: a
:class:`TemplateError` naming the type and the attribute); ``None`` part-way
along a path renders as nothing.  One loop, :func:`_run`, executes a
program, appending straight to the writer's ``buffer``
(:class:`repro.web.writer.ThunkWriter`), with the paper's semantics (§5):

- ``{{ }}`` — the original stack walks the path, forcing any lazily-fetched
  ORM value right there (one round trip per OpenMRS concept), and appends
  its text.  Under Sloth the walk goes on while values are plain —
  attribute access on a plain entity is what *registers* its relation
  queries, so all N queries of a 1+N pattern register before any is forced
  — and stops at the first delayed value: the entry is then ``(value
  reached, path still to walk)``, finished at flush.
- ``{% for %}`` / ``{% if %}`` force their collection / condition in both
  modes: the page's shape cannot be deferred.  A loop over ``None`` renders
  nothing.  A loop variable lives for its loop: afterwards the name is
  bound again to what it shadowed, or unbound if it shadowed nothing.

Each ``TEXT`` op and each executed cell is exactly one buffer entry, in
both modes: ``AppServer.load_page`` charges the simulated render cost per
entry, so the count is part of every page's virtual time.
"""

import re
import sys
from functools import cache

from repro.core.proxy import LazyProxy
from repro.core.thunk import Thunk, force


class TemplateError(Exception):
    """Raised for malformed template syntax or bad expressions."""


_TOKEN_RE = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)
_PATH_RE = re.compile(r"\w+(\.\w+)*$")

TEXT, VAR, FOR, IF = range(4)

# What ``force`` evaluates: a lazy-mode walk stops at it.
_DELAYED = (Thunk, LazyProxy)
_UNBOUND = object()


class Template:
    """A compiled template: its op program (module docstring)."""

    def __init__(self, source, name="<template>"):
        self.name = name
        self.ops = _parse(_tokenize(source), name)

    def render(self, scope, writer, lazy_mode=False):
        """Render into ``writer``; ``lazy_mode`` selects Sloth semantics
        (defer ``{{ }}`` to flush)."""
        _run(self.ops, dict(scope), writer.buffer.append, lazy_mode)


def _tokenize(source):
    return [piece for piece in _TOKEN_RE.split(source) if piece]


def _parse(tokens, name, stop=None):
    """Parse a token stream into ops until one of the ``stop`` tags."""
    ops = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.startswith("{{"):
            ops.append((VAR, _compile_path(token[2:-2], name)))
            i += 1
            continue
        if token.startswith("{%"):
            tag = token[2:-2].strip()
            word = tag.split()[0]
            if stop and word in stop:
                return ops, i, word
            if word == "for":
                match = re.match(r"for\s+(\w+)\s+in\s+(.+)$", tag)
                if not match:
                    raise TemplateError(f"{name}: bad for tag {tag!r}")
                body, consumed, _ = _parse(tokens[i + 1:], name,
                                           stop=("endfor",))
                ops.append((FOR, (_compile_path(match.group(2), name),
                                  match.group(1), body)))
                i += consumed + 2
                continue
            if word == "if":
                path = tag[2:].strip()
                negated = path.startswith("not ")
                if negated:
                    path = path[4:]
                body, consumed, closer = _parse(tokens[i + 1:], name,
                                                stop=("else", "endif"))
                i += consumed + 2
                orelse = []
                if closer == "else":
                    orelse, consumed, _ = _parse(tokens[i:], name,
                                                 stop=("endif",))
                    i += consumed + 1
                ops.append((IF, (_compile_path(path, name), negated, body,
                                 orelse)))
                continue
            raise TemplateError(f"{name}: unknown tag {tag!r}")
        ops.append((TEXT, sys.intern(token)))
        i += 1
    if stop:
        raise TemplateError(f"{name}: missing closing tag {stop}")
    return ops


def _compile_path(expr, name):
    expr = expr.strip()
    if not _PATH_RE.match(expr):
        raise TemplateError(f"{name}: unsupported expression {expr!r}")
    return _path(expr)


@cache
def _path(expr):
    """``a.b.c`` → ``("a", (("b", "c"), ("c",)))`` (module docstring).
    Shared by every template that repeats the expression, as interned text
    is: a page set repeats both across its templates (memory)."""
    head, *tail = expr.split(".")
    return head, tuple(tuple(tail[i:]) for i in range(len(tail)))


def _run(ops, frame, append, lazy):
    """Execute an op program against ``frame`` (the render scope, with the
    enclosing loops' variables bound), appending buffer entries."""
    for op, arg in ops:
        if op == TEXT:
            append(arg)
            continue
        head, steps = arg if op == VAR else arg[0]
        try:
            value = frame[head]
        except KeyError:
            raise TemplateError(
                f"unknown template variable {head!r}") from None
        # One walk: a delayed value on the way is forced, or, for a cell
        # under Sloth, parked with the path still to walk from it.
        defer = lazy and op == VAR
        for rest in steps:
            if isinstance(value, _DELAYED):
                if defer:
                    break
                value = force(value)
            if value is None:
                break
            segment = rest[0]
            if isinstance(value, dict):
                value = value.get(segment)
                continue
            try:
                value = getattr(value, segment)
            except AttributeError:
                raise _no_attribute(value, segment) from None
        else:
            rest = ()
            if not defer and isinstance(value, _DELAYED):
                value = force(value)
        if op == VAR:
            if value.__class__ is not str:
                value = ((value, rest) if defer and value is not None
                         else to_text(value))
            append(value)
        elif op == FOR:
            if value is None:
                continue
            _, name, body = arg
            shadowed = frame.get(name, _UNBOUND)
            for item in value:
                frame[name] = item
                _run(body, frame, append, lazy)
            if shadowed is _UNBOUND:
                frame.pop(name, None)
            else:
                frame[name] = shadowed
        else:
            _, negated, body, orelse = arg
            _run(body if bool(value) is not negated else orelse, frame,
                 append, lazy)


def _no_attribute(value, segment):
    return TemplateError(
        f"{type(value).__name__} has no attribute {segment!r}")


def step(value, segment):
    """One path segment from a plain value (module docstring)."""
    if isinstance(value, dict):
        return value.get(segment)
    try:
        return getattr(value, segment)
    except AttributeError:
        raise _no_attribute(value, segment) from None


def to_text(value):
    """A forced value as page text (None renders as nothing)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
