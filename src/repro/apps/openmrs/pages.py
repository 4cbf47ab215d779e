"""OpenMRS page registry: the 112 appendix benchmarks.

Rich clinical pages have dedicated controllers; the admin console's many
list/form pages come from per-page factory instantiations (each page names
its own entity, default row, option lists and CPU weight — matching how the
real admin console is a family of similar but distinct JSPs).
"""

from functools import cache

from repro.apps.openmrs import controllers as C
from repro.apps.openmrs import data
from repro.apps.openmrs import schema as S
from repro.core.thunk import force
from repro.sqldb import Database
from repro.web.framework import Dispatcher, ModelAndView
from repro.web.templates import Template

_HEADER = """<html><head><title>OpenMRS</title></head><body>
<div id="hdr">{{ user_person.name }} ({{ current_user.username }})
 locale={{ locale }} <nav>{{ admin_menu }}</nav>
{% for gp in global_properties %}<meta>{{ gp.prop }}</meta>{% endfor %}
{% for rp in privileges %}<priv>{{ rp.privilege.name }}</priv>{% endfor %}
</div>
"""

_FOOTER = "\n<div id='ftr'>OpenMRS 1.9.1</div></body></html>"


def _template(body):
    return Template(_HEADER + body + _FOOTER)


def make_list_page(view_name, entity, order_by, row_body, ops, limit=None,
                   relation_body=None):
    """An admin list page; ``relation_body`` renders an eager/lazy relation
    per row (producing the 1+N patterns the paper measures)."""

    def controller(ctx, request):
        model = {}
        C.prelude(ctx, model)
        query = ctx.session.query(entity).order_by(order_by)
        if limit is not None:
            query = query.limit(limit)
        model["items"] = query.all()
        ctx.run_ops(ops)
        return ModelAndView(view_name, model)

    body = "<ul>{% for item in items %}<li>" + row_body
    if relation_body:
        body += " — " + relation_body
    body += "</li>{% endfor %}</ul>"
    return controller, _template(body)


def make_form_page(view_name, entity, default_pk, field_body, ops,
                   extra_lists=(), param="id"):
    """An admin edit-form page: one entity plus option lists."""

    def controller(ctx, request):
        model = {}
        C.prelude(ctx, model)
        session = ctx.session
        pk = int(request.get_parameter(param, default_pk))
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
    def controller(ctx, request):
        model = {}
        C.prelude(ctx, model)
        ctx.run_ops(ops)
        return ModelAndView(view_name, model)

    return controller, _template(body)


@cache
def build_dispatcher():
    """The benchmark dispatcher, built once per process: its routes and
    templates are read-only, so every :func:`build_app` and the package's
    ``BENCHMARK_URLS`` share one (the templates are parsed once)."""
    dispatcher = Dispatcher()

    def add(url, controller, template):
        dispatcher.register(url, controller, template)

    # ---- rich clinical pages -------------------------------------------------
    add("patientDashboardForm.jsp", C.patient_dashboard, _template("""
{% if patient %}
<h1>{{ patient.person.name }} — {{ patient.identifier }}</h1>
<h2>Encounters</h2>
{% for e in patientEncounters %}<li>{{ e.encounter_date }}
  ({{ e.encounter_type.name }})</li>{% endfor %}
<h2>Visits</h2>
{% for v in patientVisits %}<li>{{ v.start_date }}</li>{% endfor %}
<h2>Active</h2>
{% for v in activeVisits %}<li>{{ v.start_date }}
  {{ v.visit_type.name }}</li>{% endfor %}
{% endif %}
"""))
    add("encounters/encounterDisplay.jsp", C.encounter_display, _template("""
<h1>Encounter {{ encounter.id }} on {{ encounter.encounter_date }}</h1>
{% for row in obsMap %}
  <li>{{ row.obs.value_text }} = {{ row.concept.name }}
  ({{ row.concept.description }})</li>
{% endfor %}
"""))
    add("admin/observations/personObsForm.jsp", C.person_obs_form,
        _template("""
<h1>Observations for {{ person.name }}</h1>
{% for row in obs_rows %}<li>{{ row.obs.value_text }}:
  {{ row.concept.name }}</li>{% endfor %}
"""))
    add("admin/users/alertList.jsp", C.alert_list, _template("""
<h1>Alerts ({{ unsatisfied }} unsatisfied)</h1>
{% for row in rows %}<li>{{ row.alert.text }}
  → {{ row.user.username }}</li>{% endfor %}
"""))
    add("dictionary/conceptForm.jsp", C.concept_form, _template("""
<h1>{{ concept.name }}</h1><p>{{ concept.description }}</p>
<p>class {{ concept.concept_class.name }},
 datatype {{ concept.datatype.name }}</p>
{% for a in answers %}<li>{{ a.answer_text }}</li>{% endfor %}
{% for c in classes %}<option>{{ c.name }}</option>{% endfor %}
{% for d in datatypes %}<option>{{ d.name }}</option>{% endfor %}
"""))
    add("dictionary/conceptStatsForm.jsp", C.concept_stats, _template("""
<h1>Stats for {{ concept.name }}: {{ obs_count }} observations</h1>
{% for row in recent %}<li>{{ row.obs.value_text }} at
  {{ row.encounter.encounter_date }}</li>{% endfor %}
"""))
    add("dictionary/concept.jsp", C.concept_dictionary, _template("""
<h1>{{ concept.name }}</h1><p>{{ concept.description }}</p>
{% for s in similar %}<li>{{ s.name }}</li>{% endfor %}
"""))
    add("admin/patients/mergePatientsForm.jsp", C.merge_patients,
        _template("""
<h1>Merge {{ left.identifier }} into {{ right.identifier }}</h1>
<h2>Left</h2>{% for e in left_encounters %}<li>{{ e.encounter_date }}</li>{% endfor %}
<h2>Right</h2>{% for e in right_encounters %}<li>{{ e.encounter_date }}</li>{% endfor %}
{% for v in left_visits %}<tag>{{ v.start_date }}</tag>{% endfor %}
"""))
    add("admin/patients/patientForm.jsp", C.patient_form, _template("""
<h1>{{ patient.person.name }}</h1>
{% for t in identifier_types %}<option>{{ t.name }}</option>{% endfor %}
{% for t in attribute_types %}<option>{{ t.name }}</option>{% endfor %}
{% for e in encounters %}<li>{{ e.encounter_date }}</li>{% endfor %}
"""))
    add("admin/locations/hierarchy.jsp", C.location_hierarchy, _template("""
<h1>Locations</h1>
{% for row in rows %}<li>{{ row.location.name }}:
  {% for c in row.children %}<tag>{{ c.name }}</tag>{% endfor %}</li>
{% endfor %}
"""))
    add("admin/forms/formEditForm.jsp", C.form_edit, _template("""
<h1>{{ form.name }} v{{ form.version }}</h1>
{% for row in field_rows %}<li>#{{ row.field.field_number }}
  {{ row.concept.name }}</li>{% endfor %}
{% for t in field_types %}<option>{{ t.name }}</option>{% endfor %}
"""))
    add("admin/users/users.jsp", C.users_list, _template("""
<h1>Users</h1>
{% for row in rows %}<li>{{ row.user.username }} — {{ row.person.name }}
  ({{ row.role.name }})</li>{% endfor %}
"""))

    # ---- admin list pages ------------------------------------------------------
    lists = [
        ("admin/provider/providerAttributeTypeList.jsp",
         S.ProviderAttributeType, "name", "{{ item.name }}", 55, None),
        ("admin/provider/index.jsp", S.Provider, "id",
         "{{ item.identifier }}", 60, "{{ item.person.name }}"),
        ("admin/concepts/conceptDatatypeList.jsp", S.ConceptDatatype,
         "name", "{{ item.name }} ({{ item.hl7_abbreviation }})", 50, None),
        ("admin/concepts/conceptMapTypeList.jsp", S.ConceptMapType, "name",
         "{{ item.name }}", 45, None),
        ("admin/concepts/conceptProposalList.jsp", S.ConceptProposal, "id",
         "{{ item.original_text }} [{{ item.state }}]", 50, None),
        ("admin/concepts/conceptDrugList.jsp", S.Drug, "name",
         "{{ item.name }} ({{ item.dosage_form }})", 55,
         "{{ item.concept.name }}"),
        ("admin/concepts/conceptClassList.jsp", S.ConceptClass, "name",
         "{{ item.name }}: {{ item.description }}", 50, None),
        ("admin/concepts/conceptSourceList.jsp", S.ConceptSource, "name",
         "{{ item.name }} ({{ item.hl7_code }})", 45, None),
        ("admin/concepts/conceptReferenceTerms.jsp", S.ConceptReferenceTerm,
         "code", "{{ item.code }}", 55, "{{ item.source.name }}"),
        ("admin/concepts/conceptStopWordList.jsp", S.ConceptStopWord,
         "word", "{{ item.word }} ({{ item.locale }})", 40, None),
        ("admin/visits/visitTypeList.jsp", S.VisitType, "name",
         "{{ item.name }}: {{ item.description }}", 45, None),
        ("admin/visits/visitAttributeTypeList.jsp", S.VisitAttributeType,
         "name", "{{ item.name }} [{{ item.datatype }}]", 45, None),
        ("admin/patients/patientIdentifierTypeList.jsp",
         S.PatientIdentifierType, "name", "{{ item.name }}", 45, None),
        ("admin/modules/moduleList.jsp", S.Module, "name",
         "{{ item.name }} started={{ item.started }}", 50, None),
        ("admin/hl7/hl7SourceList.jsp", S.HL7Source, "name",
         "{{ item.name }}", 45, None),
        ("admin/hl7/hl7OnHoldList.jsp", S.HL7Message, "id",
         "{{ item.payload }} [{{ item.status }}]", 50,
         "{{ item.source.name }}"),
        ("admin/hl7/hl7InQueueList.jsp", S.HL7Message, "id",
         "{{ item.payload }}", 50, "{{ item.source.name }}"),
        ("admin/hl7/hl7InArchiveList.jsp", S.HL7Message, "id",
         "{{ item.payload }}", 50, None),
        ("admin/hl7/hl7InErrorList.jsp", S.HL7Message, "id",
         "{{ item.payload }} [{{ item.status }}]", 50, None),
        ("admin/forms/formList.jsp", S.Form, "name",
         "{{ item.name }} v{{ item.version }}", 50, None),
        ("admin/forms/fieldTypeList.jsp", S.FieldType, "name",
         "{{ item.name }}", 45, None),
        ("admin/orders/orderList.jsp", S.Order, "id",
         "{{ item.instructions }}", 60, "{{ item.order_type.name }}"),
        ("admin/orders/orderTypeList.jsp", S.OrderType, "name",
         "{{ item.name }}", 45, None),
        ("admin/orders/orderDrugList.jsp", S.Drug, "id",
         "{{ item.name }}", 55, "{{ item.concept.name }}"),
        ("admin/programs/programList.jsp", S.Program, "name",
         "{{ item.name }}", 50, None),
        ("admin/programs/conversionList.jsp", S.RelationshipType, "id",
         "{{ item.a_is_to_b }}/{{ item.b_is_to_a }}", 45, None),
        ("admin/encounters/encounterRoleList.jsp", S.EncounterRole, "name",
         "{{ item.name }}", 45, None),
        ("admin/encounters/encounterTypeList.jsp", S.EncounterType, "name",
         "{{ item.name }}: {{ item.description }}", 50, None),
        ("admin/locations/locationAttributeTypes.jsp",
         S.LocationAttributeType, "name", "{{ item.name }}", 45, None),
        ("admin/locations/locationList.jsp", S.Location, "name",
         "{{ item.name }}", 55, None),
        ("admin/locations/locationTag.jsp", S.LocationTag, "name",
         "{{ item.name }}: {{ item.description }}", 45, None),
        ("admin/scheduler/schedulerList.jsp", S.SchedulerTask, "name",
         "{{ item.name }} @ {{ item.schedule }}", 50, None),
        ("admin/person/relationshipTypeList.jsp", S.RelationshipType, "id",
         "{{ item.a_is_to_b }} / {{ item.b_is_to_a }}", 45, None),
        ("admin/person/personAttributeTypeList.jsp", S.PersonAttributeType,
         "name", "{{ item.name }} [{{ item.format }}]", 45, None),
        ("admin/users/roleList.jsp", S.Role, "name", "{{ item.name }}", 50,
         None),
        ("admin/users/privilegeList.jsp", S.Privilege, "name",
         "{{ item.name }}: {{ item.description }}", 50, None),
    ]
    for url, entity, order, row, ops, relation in lists:
        add(url, *make_list_page(url.rsplit("/", 1)[-1], entity, order, row,
                                 ops, relation_body=relation))

    # ---- admin form pages --------------------------------------------------------
    forms = [
        ("admin/provider/providerAttributeTypeForm.jsp",
         S.ProviderAttributeType, 2, "{{ item.name }}", 50, ()),
        ("admin/provider/providerForm.jsp", S.Provider, 3,
         "{{ item.identifier }} — {{ item.person.name }}", 60, ()),
        ("admin/concepts/conceptSetDerivedForm.jsp", S.Concept, 4,
         "{{ item.name }}", 55, ()),
        ("admin/concepts/conceptClassForm.jsp", S.ConceptClass, 2,
         "{{ item.name }}: {{ item.description }}", 50, ()),
        ("admin/concepts/conceptReferenceTermForm.jsp",
         S.ConceptReferenceTerm, 5, "{{ item.code }}", 55,
         (("sources", S.ConceptSource, "name"),)),
        ("admin/concepts/conceptDatatypeForm.jsp", S.ConceptDatatype, 3,
         "{{ item.name }}", 45, ()),
        ("admin/concepts/conceptIndexForm.jsp", S.Concept, 9,
         "{{ item.name }}", 50, ()),
        ("admin/concepts/proposeConceptForm.jsp", S.ConceptProposal, 2,
         "{{ item.original_text }}", 50,
         (("classes", S.ConceptClass, "name"),)),
        ("admin/concepts/conceptDrugForm.jsp", S.Drug, 4,
         "{{ item.name }} — {{ item.concept.name }}", 60, ()),
        ("admin/concepts/conceptStopWordForm.jsp", S.ConceptStopWord, 3,
         "{{ item.word }}", 45, ()),
        ("admin/concepts/conceptProposalForm.jsp", S.ConceptProposal, 4,
         "{{ item.original_text }}", 55,
         (("classes", S.ConceptClass, "name"),)),
        ("admin/concepts/conceptSourceForm.jsp", S.ConceptSource, 2,
         "{{ item.name }}", 50, ()),
        ("admin/visits/visitAttributeTypeForm.jsp", S.VisitAttributeType,
         2, "{{ item.name }}", 45, ()),
        ("admin/visits/visitTypeForm.jsp", S.VisitType, 3,
         "{{ item.name }}", 45, ()),
        ("admin/visits/visitForm.jsp", S.Visit, 5,
         "{{ item.start_date }} — {{ item.visit_type.name }}", 55,
         (("types", S.VisitType, "name"),)),
        ("admin/patients/shortPatientForm.jsp", S.Patient, 3,
         "{{ item.identifier }} — {{ item.person.name }}", 65,
         (("id_types", S.PatientIdentifierType, "name"),)),
        ("admin/patients/patientIdentifierTypeForm.jsp",
         S.PatientIdentifierType, 2, "{{ item.name }}", 50, ()),
        ("admin/hl7/hl7SourceForm.jsp", S.HL7Source, 2, "{{ item.name }}",
         45, ()),
        ("admin/forms/fieldTypeForm.jsp", S.FieldType, 2,
         "{{ item.name }}", 45, ()),
        ("admin/forms/fieldForm.jsp", S.FormField, 105,
         "#{{ item.field_number }} — {{ item.concept.name }}", 55,
         (("types", S.FieldType, "name"),)),
        ("admin/orders/orderForm.jsp", S.Order, 2,
         "{{ item.instructions }} — {{ item.concept.name }}", 60,
         (("types", S.OrderType, "name"),)),
        ("admin/orders/orderTypeForm.jsp", S.OrderType, 2,
         "{{ item.name }}", 45, ()),
        ("admin/orders/orderDrugForm.jsp", S.Drug, 6,
         "{{ item.name }} — {{ item.concept.name }}", 55, ()),
        ("admin/programs/programForm.jsp", S.Program, 1,
         "{{ item.name }}", 50, (("concepts", S.Concept, "id"),)),
        ("admin/programs/conversionForm.jsp", S.RelationshipType, 3,
         "{{ item.a_is_to_b }}", 50, ()),
        ("admin/encounters/encounterForm.jsp", S.Encounter, 3,
         "{{ item.encounter_date }} — {{ item.encounter_type.name }}", 70,
         (("types", S.EncounterType, "name"),
          ("roles", S.EncounterRole, "name"))),
        ("admin/encounters/encounterTypeForm.jsp", S.EncounterType, 2,
         "{{ item.name }}", 45, ()),
        ("admin/encounters/encounterRoleForm.jsp", S.EncounterRole, 2,
         "{{ item.name }}", 45, ()),
        ("admin/observations/obsForm.jsp", S.Obs, 7,
         "{{ item.value_text }} — {{ item.concept.name }}", 60,
         (("concepts", S.Concept, "id"),)),
        ("admin/locations/locationAttributeType.jsp",
         S.LocationAttributeType, 2, "{{ item.name }}", 45, ()),
        ("admin/locations/locationForm.jsp", S.Location, 7,
         "{{ item.name }}", 55, (("tags", S.LocationTag, "name"),)),
        ("admin/locations/locationTagEdit.jsp", S.LocationTag, 2,
         "{{ item.name }}", 50, (("locations", S.Location, "name"),)),
        ("admin/scheduler/schedulerForm.jsp", S.SchedulerTask, 2,
         "{{ item.name }}", 45, ()),
        ("admin/person/relationshipTypeForm.jsp", S.RelationshipType, 2,
         "{{ item.a_is_to_b }}", 45, ()),
        ("admin/person/relationshipTypeViewForm.jsp", S.RelationshipType,
         4, "{{ item.a_is_to_b }} / {{ item.b_is_to_a }}", 45, ()),
        ("admin/person/personForm.jsp", S.Person, 23,
         "{{ item.name }} ({{ item.gender }})", 60,
         (("attr_types", S.PersonAttributeType, "name"),), "personId"),
        ("admin/person/personAttributeTypeForm.jsp", S.PersonAttributeType,
         2, "{{ item.name }}", 45, ()),
        ("admin/users/userForm.jsp", S.OmrsUser, 2,
         "{{ item.username }} — {{ item.person.name }}", 60,
         (("roles", S.Role, "name"),)),
        ("admin/users/roleForm.jsp", S.Role, 2, "{{ item.name }}", 50,
         (("all_privileges", S.Privilege, "name"),)),
        ("admin/users/alertForm.jsp", S.Alert, 1002, "{{ item.text }}", 50,
         ()),
        ("admin/users/privilegeForm.jsp", S.Privilege, 2,
         "{{ item.name }}", 45, ()),
        ("admin/users/changePasswordForm.jsp", S.OmrsUser, 1,
         "{{ item.username }}", 45, ()),
    ]
    for entry in forms:
        if len(entry) == 7:
            url, entity, pk, body, ops, extra, param = entry
        else:
            url, entity, pk, body, ops, extra = entry
            param = "id"
        add(url, *make_form_page(url.rsplit("/", 1)[-1], entity, pk, body,
                                 ops, extra, param))

    # ---- static / maintenance pages -------------------------------------------------
    statics = [
        ("optionsForm.jsp", "<form>default location, locale</form>", 55),
        ("help.jsp", "<p>Help topics.</p>", 40),
        ("feedback.jsp", "<form>feedback</form>", 40),
        ("forgotPasswordForm.jsp", "<form>username</form>", 45),
        ("admin/index.jsp", "<p>Administration index.</p>", 60),
        ("admin/visits/configureVisits.jsp", "<form>visit settings</form>",
         55),
        ("admin/modules/modulePropertiesForm.jsp",
         "<form>module properties</form>", 50),
        ("admin/hl7/hl7InArchiveMigration.jsp", "<p>migration status</p>",
         55),
        ("admin/forms/addFormResource.jsp", "<form>resource</form>", 45),
        ("admin/forms/formResources.jsp", "<p>resources</p>", 45),
        ("admin/maintenance/implementationIdForm.jsp",
         "<form>implementation id</form>", 50),
        ("admin/maintenance/serverLog.jsp", "<pre>log tail</pre>", 50),
        ("admin/maintenance/localesAndThemes.jsp", "<form>locales</form>",
         50),
        ("admin/maintenance/currentUsers.jsp", "<p>current users</p>", 45),
        ("admin/maintenance/settings.jsp", "<form>settings</form>", 55),
        ("admin/maintenance/systemInfo.jsp", "<p>system info</p>", 50),
        ("admin/maintenance/quickReport.jsp", "<p>quick report</p>", 55),
        ("admin/maintenance/globalPropsForm.jsp", "<form>globals</form>",
         60),
        ("admin/maintenance/databaseChangesInfo.jsp",
         "<p>database changes</p>", 70),
        ("admin/person/addPerson.jsp", "<form>name, gender</form>", 50),
        ("admin/locations/addressTemplate.jsp", "<form>template</form>",
         45),
        ("personDashboardForm.jsp", "<p>person dashboard</p>", 55),
    ]
    for url, body, ops in statics:
        add(url, *make_static_page(url.rsplit("/", 1)[-1], body, ops))

    return dispatcher


def build_app(patients=data.PATIENTS,
              obs_per_encounter=data.OBS_PER_ENCOUNTER, db=None):
    """A seeded database plus the benchmark dispatcher.

    ``db`` injects a pre-built :class:`Database` (one built with other
    options), seeded through the same script as the default.
    """
    if db is None:
        db = Database("openmrs")
    data.seed(db, patients=patients, obs_per_encounter=obs_per_encounter)
    return db, build_dispatcher()
