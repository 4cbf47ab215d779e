"""Thunk-aware page writer (the JSP ``JspWriter`` extension, paper §5).

``write`` appends plain text; ``write_thunk`` appends a *possibly delayed*
value without forcing it.  Nothing is evaluated until :meth:`flush`, which
forces buffered thunks in order and returns the final page — "thunks in the
buffer are not evaluated until the writer is flushed by the web server
(which typically happens when the entire HTML page is generated)".

Keeping scalar outputs delayed until flush is what lets the very last
queries of a page accumulate into one final batch.
"""

from repro.web.templates import to_text, walk


class ThunkWriter:
    """Buffers page output; forces delayed values only at flush."""

    def __init__(self):
        self._buffer = []

    def write(self, text):
        """Append already-evaluated text."""
        self._buffer.append(text)

    def write_thunk(self, value, path=()):
        """Append a value that may still be a thunk/proxy (not forced) and
        the attribute path still to be walked from it.  The buffer entry
        *is* the thunk: nothing else is allocated per deferred cell."""
        self._buffer.append((value, path))

    def flush(self):
        """Force everything and return the rendered page string."""
        parts = []
        for piece in self._buffer:
            if piece.__class__ is tuple:
                piece = to_text(walk(*piece))
            parts.append(piece)
        return "".join(parts)

