"""OpenMRS entity mappings (the subset the 112 benchmarks touch).

Mirrors the original Hibernate mapping style: many-to-one references to
dictionary entities (concepts, types) are EAGER — which is exactly the
over-fetching the paper measures — while collections are LAZY.
"""

from repro.orm import Column, EAGER, Entity, LAZY, ManyToOne, OneToMany
from repro.sqldb.types import BOOLEAN, INTEGER, TEXT

ENTITIES = []


def _register(cls):
    ENTITIES.append(cls)
    return cls


@_register
class Person(Entity):
    __table__ = "person"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    gender = Column(TEXT)
    birthdate = Column(TEXT)


@_register
class Patient(Entity):
    __table__ = "patient"
    id = Column(INTEGER, primary_key=True)
    person_id = Column(INTEGER, not_null=True)
    identifier = Column(TEXT)
    person = ManyToOne("Person", column="person_id", fetch=EAGER)
    encounters = OneToMany("Encounter", foreign_key="patient_id",
                           fetch=LAZY, order_by="id")
    visits = OneToMany("Visit", foreign_key="patient_id", fetch=LAZY)
    orders = OneToMany("Order", foreign_key="patient_id", fetch=LAZY)


@_register
class EncounterType(Entity):
    __table__ = "encounter_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)


@_register
class EncounterRole(Entity):
    __table__ = "encounter_role"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)


@_register
class Encounter(Entity):
    __table__ = "encounter"
    id = Column(INTEGER, primary_key=True)
    patient_id = Column(INTEGER, not_null=True)
    type_id = Column(INTEGER)
    encounter_date = Column(TEXT)
    patient = ManyToOne("Patient", column="patient_id", fetch=LAZY)
    encounter_type = ManyToOne("EncounterType", column="type_id",
                               fetch=EAGER)
    observations = OneToMany("Obs", foreign_key="encounter_id", fetch=LAZY,
                             order_by="id")


@_register
class ConceptClass(Entity):
    __table__ = "concept_class"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)


@_register
class ConceptDatatype(Entity):
    __table__ = "concept_datatype"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    hl7_abbreviation = Column(TEXT)


@_register
class Concept(Entity):
    __table__ = "concept"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)
    class_id = Column(INTEGER)
    datatype_id = Column(INTEGER)
    retired = Column(BOOLEAN)
    concept_class = ManyToOne("ConceptClass", column="class_id", fetch=EAGER)
    datatype = ManyToOne("ConceptDatatype", column="datatype_id",
                         fetch=EAGER)
    answers = OneToMany("ConceptAnswer", foreign_key="concept_id",
                        fetch=LAZY)


@_register
class ConceptAnswer(Entity):
    __table__ = "concept_answer"
    id = Column(INTEGER, primary_key=True)
    concept_id = Column(INTEGER, not_null=True)
    answer_text = Column(TEXT)


@_register
class ConceptSource(Entity):
    __table__ = "concept_source"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    hl7_code = Column(TEXT)


@_register
class ConceptMapType(Entity):
    __table__ = "concept_map_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)


@_register
class ConceptReferenceTerm(Entity):
    __table__ = "concept_reference_term"
    id = Column(INTEGER, primary_key=True)
    source_id = Column(INTEGER)
    code = Column(TEXT)
    source = ManyToOne("ConceptSource", column="source_id", fetch=EAGER)


@_register
class ConceptProposal(Entity):
    __table__ = "concept_proposal"
    id = Column(INTEGER, primary_key=True)
    original_text = Column(TEXT)
    state = Column(TEXT)


@_register
class ConceptStopWord(Entity):
    __table__ = "concept_stop_word"
    id = Column(INTEGER, primary_key=True)
    word = Column(TEXT)
    locale = Column(TEXT)


@_register
class Drug(Entity):
    __table__ = "drug"
    id = Column(INTEGER, primary_key=True)
    concept_id = Column(INTEGER)
    name = Column(TEXT)
    dosage_form = Column(TEXT)
    concept = ManyToOne("Concept", column="concept_id", fetch=EAGER)


@_register
class Obs(Entity):
    __table__ = "obs"
    id = Column(INTEGER, primary_key=True)
    encounter_id = Column(INTEGER, not_null=True)
    concept_id = Column(INTEGER, not_null=True)
    value_text = Column(TEXT)
    value_numeric = Column(INTEGER)
    encounter = ManyToOne("Encounter", column="encounter_id", fetch=LAZY)
    concept = ManyToOne("Concept", column="concept_id", fetch=LAZY)


@_register
class VisitType(Entity):
    __table__ = "visit_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)


@_register
class VisitAttributeType(Entity):
    __table__ = "visit_attribute_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    datatype = Column(TEXT)


@_register
class Visit(Entity):
    __table__ = "visit"
    id = Column(INTEGER, primary_key=True)
    patient_id = Column(INTEGER, not_null=True)
    type_id = Column(INTEGER)
    active = Column(BOOLEAN)
    start_date = Column(TEXT)
    visit_type = ManyToOne("VisitType", column="type_id", fetch=EAGER)


@_register
class Provider(Entity):
    __table__ = "provider"
    id = Column(INTEGER, primary_key=True)
    person_id = Column(INTEGER)
    identifier = Column(TEXT)
    person = ManyToOne("Person", column="person_id", fetch=EAGER)


@_register
class ProviderAttributeType(Entity):
    __table__ = "provider_attribute_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    datatype = Column(TEXT)


@_register
class Form(Entity):
    __table__ = "form"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    version = Column(TEXT)
    fields = OneToMany("FormField", foreign_key="form_id", fetch=LAZY)


@_register
class FieldType(Entity):
    __table__ = "field_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)


@_register
class FormField(Entity):
    __table__ = "form_field"
    id = Column(INTEGER, primary_key=True)
    form_id = Column(INTEGER, not_null=True)
    concept_id = Column(INTEGER)
    field_type_id = Column(INTEGER)
    field_number = Column(INTEGER)
    concept = ManyToOne("Concept", column="concept_id", fetch=LAZY)
    field_type = ManyToOne("FieldType", column="field_type_id", fetch=LAZY)


@_register
class Location(Entity):
    __table__ = "location"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    parent_id = Column(INTEGER)
    parent = ManyToOne("Location", column="parent_id", fetch=LAZY)
    children = OneToMany("Location", foreign_key="parent_id", fetch=LAZY)


@_register
class LocationTag(Entity):
    __table__ = "location_tag"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)


@_register
class LocationAttributeType(Entity):
    __table__ = "location_attribute_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    datatype = Column(TEXT)


@_register
class OrderType(Entity):
    __table__ = "order_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)


@_register
class Order(Entity):
    __table__ = "orders"
    id = Column(INTEGER, primary_key=True)
    patient_id = Column(INTEGER, not_null=True)
    concept_id = Column(INTEGER)
    type_id = Column(INTEGER)
    instructions = Column(TEXT)
    concept = ManyToOne("Concept", column="concept_id", fetch=LAZY)
    order_type = ManyToOne("OrderType", column="type_id", fetch=EAGER)


@_register
class Program(Entity):
    __table__ = "program"
    id = Column(INTEGER, primary_key=True)
    concept_id = Column(INTEGER)
    name = Column(TEXT)
    concept = ManyToOne("Concept", column="concept_id", fetch=LAZY)


@_register
class Role(Entity):
    __table__ = "role"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    privileges = OneToMany("RolePrivilege", foreign_key="role_id",
                           fetch=LAZY)


@_register
class Privilege(Entity):
    __table__ = "privilege"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)


@_register
class RolePrivilege(Entity):
    __table__ = "role_privilege"
    id = Column(INTEGER, primary_key=True)
    role_id = Column(INTEGER, not_null=True)
    privilege_id = Column(INTEGER, not_null=True)
    privilege = ManyToOne("Privilege", column="privilege_id", fetch=EAGER)


@_register
class OmrsUser(Entity):
    __table__ = "users"
    id = Column(INTEGER, primary_key=True)
    person_id = Column(INTEGER)
    username = Column(TEXT, not_null=True)
    role_id = Column(INTEGER)
    person = ManyToOne("Person", column="person_id", fetch=EAGER)
    role = ManyToOne("Role", column="role_id", fetch=LAZY)
    alerts = OneToMany("Alert", foreign_key="user_id", fetch=LAZY)


@_register
class GlobalProperty(Entity):
    __table__ = "global_property"
    id = Column(INTEGER, primary_key=True)
    prop = Column(TEXT)
    value = Column(TEXT)


@_register
class Alert(Entity):
    __table__ = "alert"
    id = Column(INTEGER, primary_key=True)
    user_id = Column(INTEGER, not_null=True)
    text = Column(TEXT)
    satisfied = Column(BOOLEAN)
    user = ManyToOne("OmrsUser", column="user_id", fetch=LAZY)


@_register
class RelationshipType(Entity):
    __table__ = "relationship_type"
    id = Column(INTEGER, primary_key=True)
    a_is_to_b = Column(TEXT)
    b_is_to_a = Column(TEXT)


@_register
class PersonAttributeType(Entity):
    __table__ = "person_attribute_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    format = Column(TEXT)


@_register
class PatientIdentifierType(Entity):
    __table__ = "patient_identifier_type"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    required = Column(BOOLEAN)


@_register
class HL7Source(Entity):
    __table__ = "hl7_source"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    description = Column(TEXT)


@_register
class HL7Message(Entity):
    __table__ = "hl7_message"
    id = Column(INTEGER, primary_key=True)
    source_id = Column(INTEGER)
    status = Column(TEXT)
    payload = Column(TEXT)
    source = ManyToOne("HL7Source", column="source_id", fetch=EAGER)


@_register
class Module(Entity):
    __table__ = "module"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    started = Column(BOOLEAN)


@_register
class SchedulerTask(Entity):
    __table__ = "scheduler_task"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    schedule = Column(TEXT)
    started = Column(BOOLEAN)


# Ordered indexes beyond the ORM's equality FK indexes: clinical report
# pages range over encounter/visit dates and numeric observation values
# ("encounters this quarter", "obs above threshold") and sort by them —
# ordered indexes serve the range predicate and the ORDER BY directly.
EXTRA_DDL = [
    "CREATE INDEX idx_encounter_date ON encounter (encounter_date) "
    "USING ORDERED",
    "CREATE INDEX idx_visit_start ON visit (start_date) USING ORDERED",
    "CREATE INDEX idx_obs_value_numeric ON obs (value_numeric) "
    "USING ORDERED",
]


def shard_topology(shards, replicas=0, staleness_bound=0):
    """The OpenMRS cluster layout: patient-scoped clinical data partitions
    by patient, per-encounter detail by encounter; the concept dictionary
    and other reference tables broadcast."""
    # Cold path (once per cluster set-up): unsharded runs never load shard.
    from repro.sqldb.shard import PartitionSpec, ShardTopology

    return ShardTopology(shards, {
        "patient": PartitionSpec("id"),
        "encounter": PartitionSpec("patient_id"),
        "visit": PartitionSpec("patient_id"),
        "obs": PartitionSpec("encounter_id"),
    }, replicas=replicas, staleness_bound=staleness_bound)
