"""Thunk-aware page writer (the JSP ``JspWriter`` extension, paper §5).

The writer is its ``buffer``: rendering (:func:`repro.web.templates._run`)
appends one entry per text node and per ``{{ }}`` cell — a ``str``, or, for
a cell that may still be delayed, the tuple ``(value reached, path still
to walk)``.  Nothing delayed is evaluated until :meth:`flush`, which forces
the buffered cells in order and returns the final page — "thunks in the
buffer are not evaluated until the writer is flushed by the web server
(which typically happens when the entire HTML page is generated)".

Keeping scalar outputs delayed until flush is what lets the very last
queries of a page accumulate into one final batch.
"""

from repro.core.thunk import force
from repro.web.templates import step, to_text


class ThunkWriter:
    """Buffers page output; forces delayed values only at flush."""

    __slots__ = ("buffer",)

    def __init__(self):
        self.buffer = []

    def flush(self):
        """Force everything and return the rendered page string."""
        parts = []
        append = parts.append
        for piece in self.buffer:
            if piece.__class__ is tuple:
                value, path = piece
                for segment in path:
                    value = force(value)
                    if value is None:
                        break
                    value = step(value, segment)
                else:
                    value = force(value)
                piece = value if value.__class__ is str else to_text(value)
            append(piece)
        return "".join(parts)
