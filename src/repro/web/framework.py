"""Controllers, requests and dispatch (the Spring MVC analog).

A *controller* is a callable ``controller(ctx, request) -> ModelAndView``
where ``ctx`` is the per-request :class:`repro.web.appserver.RequestContext`
(ORM session, Sloth runtime, authentication flags).  Models are plain dicts;
under Sloth compilation the values are typically transparent proxies, which
the framework passes through untouched — that is the paper's Spring
extension ("allow thunk objects to be stored and returned during model
construction").
"""

from repro.orm.errors import OrmError


class Request:
    """An HTTP request: URL, query parameters and the user it is for."""

    def __init__(self, url, params=None, user=None):
        self.url = url
        self.params = dict(params or {})
        self.user = user

    def get_parameter(self, name, default=None):
        return self.params.get(name, default)

    def __repr__(self):
        return f"Request({self.url!r})"


class ModelAndView:
    """A view name plus the model used to render it."""

    def __init__(self, view, model=None):
        self.view = view
        self.model = dict(model or {})

    def __repr__(self):
        return f"ModelAndView({self.view!r}, keys={sorted(self.model)})"


class RouteNotFound(OrmError):
    """Raised when no controller matches a URL."""


class Dispatcher:
    """Maps URLs to (controller, view template) pairs."""

    def __init__(self):
        self._routes = {}

    def register(self, url, controller, template):
        if url in self._routes:
            raise ValueError(f"duplicate route {url!r}")
        self._routes[url] = (controller, template)

    def route(self, url):
        entry = self._routes.get(url)
        if entry is None:
            raise RouteNotFound(f"no controller registered for {url!r}")
        return entry

    def urls(self):
        return sorted(self._routes)

    def __len__(self):
        return len(self._routes)
