"""Miniature web stack: controllers, templates, thunk-aware output.

The analog of the paper's Spring MVC + JSP + Tomcat stack, with the Sloth
extensions of §5:

- :mod:`repro.web.framework` — requests, ``ModelAndView``, a dispatcher
  mapping URLs to controllers (models may hold thunks, as in the Spring
  extension),
- :mod:`repro.web.templates` — a small template engine (``{{ expr }}``,
  ``{% for %}``, ``{% if %}``) whose templates parse to op programs that
  one loop runs,
- :mod:`repro.web.writer` — the JSP-writer analog whose ``buffer`` holds
  delayed cells and forces them only at flush time,
- :mod:`repro.web.appserver` — the request lifecycle: build session +
  runtime, run the controller, render the view, flush the writer.
"""

from repro.web.framework import Dispatcher, ModelAndView, Request
from repro.web.templates import Template, TemplateError
from repro.web.writer import ThunkWriter
from repro.web.appserver import AppServer, PageLoadResult

__all__ = [
    "Request",
    "ModelAndView",
    "Dispatcher",
    "Template",
    "TemplateError",
    "ThunkWriter",
    "AppServer",
    "PageLoadResult",
]
