"""itracker page registry: templates + the 38 appendix benchmarks.

Rich pages (issue/project views, portal home, lists with per-row queries)
have dedicated controllers in :mod:`repro.apps.itracker.controllers`; the
simpler admin pages are produced by small page factories parameterized per
page (each still runs the full framework prelude, which dominates their
round-trip count, exactly as in the paper's measurements).
"""

from functools import cache

from repro.apps.itracker import controllers as C
from repro.apps.itracker import data
from repro.apps.itracker import schema as S
from repro.core.thunk import force
from repro.sqldb import Database
from repro.web.framework import Dispatcher, ModelAndView
from repro.web.templates import Template

_HEADER = """<html><head><title>itracker</title></head><body>
<div id="hdr">{{ current_user.first_name }} {{ current_user.last_name }}
<nav>{{ admin_menu }}</nav>
{% for label in labels %}<span>{{ label.value }}</span>{% endfor %}
{% for p in preferences %}<meta>{{ p.name }}={{ p.value }}</meta>{% endfor %}
</div>
"""

_FOOTER = "\n<div id='ftr'>itracker 3.1.5</div></body></html>"


def _template(body):
    return Template(_HEADER + body + _FOOTER)


# -----------------------------------------------------------------------------
# Page factories for the simpler benchmarks
# -----------------------------------------------------------------------------

def make_list_page(view_name, entity, order_by, row_body, ops,
                   limit=None, count_relation=None):
    """A page that lists one entity type, optionally counting a related
    table per row (the 1+N pattern the admin list pages exhibit)."""

    def controller(ctx, request):
        model = {}
        C.prelude(ctx, model)
        session = ctx.session
        query = session.query(entity).order_by(order_by)
        if limit is not None:
            query = query.limit(limit)
        items = query.all()
        if count_relation is not None:
            related_entity, fk = count_relation
            rows = []
            for item in force(items):
                rows.append({
                    "item": item,
                    "related": session.query(related_entity).where(
                        f"{fk} = ?", item.pk_value).count(),
                })
            model["rows"] = rows
        else:
            model["items"] = items
        ctx.run_ops(ops)
        return ModelAndView(view_name, model)

    if count_relation is not None:
        body = ("<ul>{% for r in rows %}<li>"
                + row_body.replace("item.", "r.item.")
                + " ({{ r.related }})</li>{% endfor %}</ul>")
    else:
        body = ("<ul>{% for item in items %}<li>" + row_body
                + "</li>{% endfor %}</ul>")
    return controller, _template(body)


def make_form_page(view_name, entity, default_pk, field_body, ops,
                   extra_lists=()):
    """An edit-form page: one entity by pk plus option lists."""

    def controller(ctx, request):
        model = {}
        C.prelude(ctx, model)
        session = ctx.session
        pk = int(request.get_parameter("id", default_pk))
        model["item"] = session.find(entity, pk)
        for key, list_entity, list_order in extra_lists:
            model[key] = session.query(list_entity).order_by(
                list_order).limit(10).all()
        ctx.run_ops(ops)
        return ModelAndView(view_name, model)

    body = "<form>" + field_body
    for key, _, _ in extra_lists:
        body += ("{% for opt in " + key
                 + " %}<option>{{ opt.id }}</option>{% endfor %}")
    body += "</form>"
    return controller, _template(body)


def make_static_page(view_name, body, ops):
    """A page with no query work beyond the prelude (error pages etc.)."""

    def controller(ctx, request):
        model = {}
        C.prelude(ctx, model)
        ctx.run_ops(ops)
        return ModelAndView(view_name, model)

    return controller, _template(body)


# -----------------------------------------------------------------------------
# Benchmark registry — URLs are the appendix table's page names
# -----------------------------------------------------------------------------

@cache
def build_dispatcher():
    """The benchmark dispatcher, built once per process: its routes and
    templates are read-only, so every :func:`build_app` and the package's
    ``BENCHMARK_URLS`` share one (the templates are parsed once)."""
    dispatcher = Dispatcher()

    def add(url, controller, template):
        dispatcher.register(url, controller, template)

    # Rich pages with dedicated controllers.
    add("portalhome.jsp", C.portalhome, _template("""
<h1>Portal</h1>
{% for row in project_rows %}
  <h2>{{ row.project.name }}</h2>
  {% for i in row.latest %}<li>#{{ i.id }} {{ i.description }}
    sev {{ i.severity }}</li>{% endfor %}
{% endfor %}
<h2>Created by me</h2>
{% for i in created %}<li>{{ i.description }} ({{ i.project.name }})</li>{% endfor %}
<h2>Owned by me</h2>
{% for i in owned %}<li>{{ i.description }}</li>{% endfor %}
"""))
    add("module-projects/list_projects.jsp", C.list_projects, _template("""
<h1>Projects</h1>
{% for row in rows %}
  <li>{{ row.project.name }} — open {{ row.open_count }}
  of {{ row.total_count }}</li>
{% endfor %}
"""))
    add("module-projects/list_issues.jsp", C.list_issues, _template("""
<h1>Issues in {{ project.name }}</h1>
{% for c in components %}<tag>{{ c.name }}</tag>{% endfor %}
{% for i in issues %}
  <li>#{{ i.id }} {{ i.description }} — owner {{ i.owner.login }}
  status {{ i.status }}</li>
{% endfor %}
"""))
    add("module-projects/view_issue.jsp", C.view_issue, _template("""
<h1>#{{ issue.id }} {{ issue.description }}</h1>
<p>project {{ issue.project.name }} | creator {{ issue.creator.login }}</p>
<div>{{ edit_controls }}</div>
<h2>History</h2>
{% for h in history %}<li>{{ h.action }} by {{ h.user.login }}:
  {{ h.description }}</li>{% endfor %}
<h2>Activity</h2>
{% for a in activities %}<li>{{ a.activity_type }}:
  {{ a.description }}</li>{% endfor %}
{% for v in versions %}<tag>{{ v.number }}</tag>{% endfor %}
"""))
    add("module-projects/edit_issue.jsp", C.edit_issue, _template("""
<h1>Edit #{{ issue.id }}</h1>
<div>{{ edit_controls }}</div>
{% for c in components %}<option>{{ c.name }}</option>{% endfor %}
{% for v in versions %}<option>{{ v.number }}</option>{% endfor %}
{% for o in owners %}<option>{{ o.login }}</option>{% endfor %}
{% for h in history %}<li>{{ h.description }}</li>{% endfor %}
"""))
    add("module-projects/create_issue.jsp", C.create_issue, _template("""
<h1>Create issue in {{ project.name }}</h1>
{% for c in components %}<option>{{ c.name }}</option>{% endfor %}
{% for v in versions %}<option>{{ v.number }}</option>{% endfor %}
{% for o in owners %}<option>{{ o.login }}</option>{% endfor %}
"""))
    add("module-projects/move_issue.jsp", C.move_issue, _template("""
<h1>Move #{{ issue.id }}</h1>
{% for p in projects %}<option>{{ p.name }}</option>{% endfor %}
{% for perm in permissions %}<tag>{{ perm.permission_type }}</tag>{% endfor %}
"""))
    add("module-projects/view_issue_activity.jsp", C.view_issue_activity,
        _template("""
<h1>Activity of #{{ issue.id }}</h1>
{% for a in activities %}<li>{{ a.activity_type }} by {{ a.user.login }}:
  {{ a.description }}</li>{% endfor %}
{% for h in history %}<li>{{ h.action }}: {{ h.description }}</li>{% endfor %}
"""))
    add("module-searchissues/search_issues_form.jsp", C.search_issues_form,
        _template("""
<h1>Search</h1>
{% for p in projects %}<option>{{ p.name }}</option>{% endfor %}
{% for o in owners %}<option>{{ o.login }}</option>{% endfor %}
{% for s in statuses %}<option>{{ s.value }}</option>{% endfor %}
"""))
    add("module-admin/adminhome.jsp", C.adminhome, _template("""
<h1>Admin</h1>
<li>users: {{ user_count }}</li><li>projects: {{ project_count }}</li>
<li>issues: {{ issue_count }}</li><li>tasks: {{ task_count }}</li>
<li>reports: {{ report_count }}</li>
"""))
    add("module-admin/admin_user/list_users.jsp", C.list_users, _template("""
<h1>Users</h1>
{% for row in rows %}<li>{{ row.user.login }} {{ row.user.email }}
  — {{ row.permission_count }} permissions</li>{% endfor %}
"""))
    add("module-preferences/edit_preferences.jsp", C.edit_preferences,
        _template("""
<h1>Preferences</h1>
{% for p in all_preferences %}<li>{{ p.name }} = {{ p.value }}</li>{% endfor %}
"""))

    # List pages via the factory (each with its own entity/shape).
    add("module-reports/list_reports.jsp", *make_list_page(
        "list_reports", S.Report, "name",
        "{{ item.name }} by {{ item.owner.login }}", ops=45))
    add("module-admin/admin_report/list_reports.jsp", *make_list_page(
        "admin_list_reports", S.Report, "id",
        "{{ item.name }} ({{ item.report_type }})", ops=40))
    add("module-admin/admin_configuration/list_configuration.jsp",
        *make_list_page("list_configuration", S.Configuration, "id",
                        "{{ item.name }} = {{ item.value }}", ops=50))
    add("module-admin/admin_workflow/list_workflow.jsp", *make_list_page(
        "list_workflow", S.WorkflowScript, "name",
        "{{ item.name }} on {{ item.event }}", ops=40))
    add("module-admin/admin_project/list_projects.jsp", *make_list_page(
        "admin_list_projects", S.Project, "id",
        "{{ item.name }}: {{ item.description }}", ops=45,
        count_relation=(S.Issue, "project_id")))
    add("module-admin/admin_attachment/list_attachments.jsp",
        *make_list_page("list_attachments", S.IssueAttachment, "id",
                        "{{ item.filename }} ({{ item.size }} bytes)",
                        ops=40))
    add("module-admin/admin_scheduler/list_tasks.jsp", *make_list_page(
        "list_tasks", S.ScheduledTask, "name",
        "{{ item.name }} @ {{ item.schedule }}", ops=35))
    add("module-admin/admin_language/list_languages.jsp", *make_list_page(
        "list_languages", S.Language, "id",
        "{{ item.locale }}:{{ item.key }}", ops=45, limit=30))

    # Form pages.
    add("module-admin/admin_report/edit_report.jsp", *make_form_page(
        "edit_report", S.Report, 1,
        "{{ item.name }} type {{ item.report_type }}", ops=45))
    add("module-admin/admin_configuration/edit_configuration.jsp",
        *make_form_page("edit_configuration", S.Configuration, 5,
                        "{{ item.name }} = {{ item.value }}", ops=40))
    add("module-admin/admin_workflow/edit_workflowscript.jsp",
        *make_form_page("edit_workflowscript", S.WorkflowScript, 1,
                        "{{ item.name }}: {{ item.script }}", ops=40))
    add("module-admin/admin_user/edit_user.jsp", *make_form_page(
        "edit_user", S.User, 2,
        "{{ item.login }} {{ item.first_name }} {{ item.last_name }}",
        ops=55, extra_lists=(("projects", S.Project, "name"),)))
    add("module-admin/admin_project/edit_project.jsp", *make_form_page(
        "edit_project", S.Project, 1,
        "{{ item.name }}: {{ item.description }}", ops=55,
        extra_lists=(("users", S.User, "login"),)))
    add("module-admin/admin_project/edit_projectscript.jsp",
        *make_form_page("edit_projectscript", S.Project, 2,
                        "{{ item.name }} options {{ item.options }}",
                        ops=45,
                        extra_lists=(("scripts", S.WorkflowScript, "name"),)))
    add("module-admin/admin_project/edit_component.jsp", *make_form_page(
        "edit_component", S.Component, 101,
        "{{ item.name }}: {{ item.description }}", ops=45))
    add("module-admin/admin_project/edit_version.jsp", *make_form_page(
        "edit_version", S.Version, 102,
        "{{ item.number }}: {{ item.description }}", ops=40))
    add("module-admin/admin_language/edit_language.jsp", *make_form_page(
        "edit_language", S.Language, 3,
        "{{ item.locale }} {{ item.key }} = {{ item.value }}", ops=40))

    # Static-ish pages (prelude only).
    add("self_register.jsp", *make_static_page(
        "self_register", "<form>login, name, email</form>", ops=50))
    add("forgot_password.jsp", *make_static_page(
        "forgot_password", "<form>enter login</form>", ops=40))
    add("error.jsp", *make_static_page(
        "error", "<p>An error occurred.</p>", ops=30))
    add("unauthorized.jsp", *make_static_page(
        "unauthorized", "<p>Not authorized.</p>", ops=30))
    add("module-admin/unauthorized.jsp", *make_static_page(
        "admin_unauthorized", "<p>Admins only.</p>", ops=30))
    add("module-help/show_help.jsp", *make_static_page(
        "show_help", "<p>Help topics.</p>", ops=45))
    add("module-admin/admin_configuration/import_data.jsp",
        *make_static_page("import_data", "<form>upload</form>", ops=45))
    add("module-admin/admin_configuration/import_data_verify.jsp",
        *make_static_page("import_data_verify", "<p>verify import</p>",
                          ops=50))
    add("module-admin/admin_language/create_language_key.jsp",
        *make_static_page("create_language_key", "<form>key</form>",
                          ops=40))

    return dispatcher


def build_app(projects=data.DEFAULT_PROJECTS,
              issues_per_project=data.ISSUES_PER_PROJECT, db=None):
    """A seeded database plus the benchmark dispatcher.

    ``db`` injects a pre-built :class:`Database` (one built with other
    options), seeded through the same script as the default.
    """
    if db is None:
        db = Database("itracker")
    data.seed(db, projects=projects, issues_per_project=issues_per_project)
    return db, build_dispatcher()
