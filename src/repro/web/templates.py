"""Miniature template engine (the JSP analog).

Syntax::

    <h1>{{ patient.name }}</h1>
    {% for enc in encounters %}
      <li>{{ enc.note }} — {{ enc.concept.text }}</li>
    {% endfor %}
    {% if visits %} ... {% else %} ... {% endif %}

Semantics match the paper's extended JSP engine:

- ``{{ expr }}`` — under the original stack the expression is evaluated and
  written immediately (forcing any lazily-fetched ORM value right there,
  which is how the original OpenMRS pages incur one round trip per concept).
  Under Sloth the value reached so far and the rest of the path are handed
  to :meth:`repro.web.writer.ThunkWriter.write_thunk`, walked only when the
  page flushes.
- ``{% for %}`` / ``{% if %}`` — control flow needs real values, so the
  iterated collection / condition is forced in both modes (rendering is an
  externally visible output; its shape cannot be deferred).

Expressions are dotted paths (``a.b.c``) resolved against the render scope,
with dict-style lookup as a fallback, plus the literal ``not`` prefix for
conditions.
"""

import re

from repro.core.thunk import force, is_thunk


class TemplateError(Exception):
    """Raised for malformed template syntax or bad expressions."""


_TOKEN_RE = re.compile(r"({{.*?}}|{%.*?%})", re.DOTALL)


class Template:
    """A compiled template."""

    def __init__(self, source, name="<template>"):
        self.name = name
        self.nodes = _parse(_tokenize(source), name)

    def render(self, scope, writer, lazy_mode=False):
        """Render into ``writer``; ``lazy_mode`` selects Sloth semantics
        (defer ``{{ }}`` to flush)."""
        frame = dict(scope)
        for node in self.nodes:
            node.render(frame, writer, lazy_mode)


def _tokenize(source):
    return [piece for piece in _TOKEN_RE.split(source) if piece]


def _parse(tokens, name, stop=None):
    """Parse a token stream into nodes until one of the ``stop`` tags."""
    nodes = []
    i = 0
    while i < len(tokens):
        token = tokens[i]
        if token.startswith("{{"):
            expr = token[2:-2].strip()
            nodes.append(_VarNode(_compile_path(expr, name)))
            i += 1
            continue
        if token.startswith("{%"):
            tag = token[2:-2].strip()
            word = tag.split()[0]
            if stop and word in stop:
                return nodes, i, word
            if word == "for":
                match = re.match(r"for\s+(\w+)\s+in\s+(.+)$", tag)
                if not match:
                    raise TemplateError(f"{name}: bad for tag {tag!r}")
                var, path = match.group(1), match.group(2).strip()
                body, consumed, _ = _parse(tokens[i + 1:], name,
                                           stop=("endfor",))
                nodes.append(_ForNode(var, _compile_path(path, name), body))
                i += consumed + 2
                continue
            if word == "if":
                path = tag[2:].strip()
                negated = False
                if path.startswith("not "):
                    negated = True
                    path = path[4:].strip()
                body, consumed, closer = _parse(tokens[i + 1:], name,
                                                stop=("else", "endif"))
                i += consumed + 2
                orelse = []
                if closer == "else":
                    orelse, consumed, _ = _parse(tokens[i:], name,
                                                 stop=("endif",))
                    i += consumed + 1
                nodes.append(_IfNode(_compile_path(path, name), negated,
                                     body, orelse))
                continue
            raise TemplateError(f"{name}: unknown tag {tag!r}")
        nodes.append(_TextNode(token))
        i += 1
    if stop:
        raise TemplateError(f"{name}: missing closing tag {stop}")
    return nodes


def _compile_path(expr, name):
    expr = expr.strip()
    if not re.match(r"^\w+(\.\w+)*$", expr):
        raise TemplateError(f"{name}: unsupported expression {expr!r}")
    return tuple(expr.split("."))


def _lookup(scope, path):
    """Resolve a dotted path against the scope to a plain value."""
    head = path[0]
    if head not in scope:
        raise TemplateError(f"unknown template variable {head!r}")
    return walk(scope[head], path[1:])


def _lookup_until_delayed(scope, path):
    """Walk the path while values are plain (entities, dicts, scalars).

    Returns ``(value, remaining_path)``: stops at the first thunk/proxy so
    the caller can defer the rest.  Attribute access on *plain* entities may
    return proxies (relation registration fires here) — those are returned
    undisturbed, never forced.
    """
    head = path[0]
    if head not in scope:
        raise TemplateError(f"unknown template variable {head!r}")
    value = scope[head]
    for i, segment in enumerate(path[1:], start=1):
        if is_thunk(value):
            return value, path[i:]
        if value is None:
            return None, ()
        value = _step(value, segment)
    return value, ()


def walk(value, path):
    """Forced traversal of ``path`` from ``value``: every thunk/proxy on the
    way, and the value reached, is forced."""
    for segment in path:
        value = force(value)
        if value is None:
            return None
        value = _step(value, segment)
    return force(value)


def _step(value, segment):
    if isinstance(value, dict):
        return value.get(segment)
    try:
        return getattr(value, segment)
    except AttributeError:
        raise TemplateError(
            f"{type(value).__name__} has no attribute {segment!r}") from None


class _TextNode:
    __slots__ = ("text",)

    def __init__(self, text):
        self.text = text

    def render(self, scope, writer, lazy_mode):
        writer.write(self.text)


class _VarNode:
    __slots__ = ("path",)

    def __init__(self, path):
        self.path = path

    def render(self, scope, writer, lazy_mode):
        if lazy_mode:
            # Sloth: walk the path eagerly while values are concrete — this
            # is what *registers* relation queries during rendering, exactly
            # like the compiled loop bodies in the paper (all N queries of a
            # 1+N pattern register before any of them is forced).  Stop at
            # the first delayed value and defer the rest of the path.
            writer.write_thunk(*_lookup_until_delayed(scope, self.path))
        else:
            writer.write(to_text(_lookup(scope, self.path)))


class _ForNode:
    __slots__ = ("var", "path", "body")

    def __init__(self, var, path, body):
        self.var = var
        self.path = path
        self.body = body

    def render(self, scope, writer, lazy_mode):
        collection = _lookup(scope, self.path)
        if collection is None:
            return
        for item in collection:
            scope[self.var] = item
            for node in self.body:
                node.render(scope, writer, lazy_mode)
        scope.pop(self.var, None)


class _IfNode:
    __slots__ = ("path", "negated", "body", "orelse")

    def __init__(self, path, negated, body, orelse):
        self.path = path
        self.negated = negated
        self.body = body
        self.orelse = orelse

    def render(self, scope, writer, lazy_mode):
        truthy = bool(_lookup(scope, self.path))
        if self.negated:
            truthy = not truthy
        branch = self.body if truthy else self.orelse
        for node in branch:
            node.render(scope, writer, lazy_mode)


def to_text(value):
    """A forced value as page text (None renders as nothing)."""
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)
