"""itracker entity mappings.

Fetch strategies follow the original application's Hibernate configuration
style: many-to-one references to hot entities (project, creator) are EAGER —
the over-fetching the paper calls out — while collections are LAZY.
"""

from repro.orm import Column, EAGER, Entity, LAZY, ManyToOne, OneToMany
from repro.sqldb.types import BOOLEAN, INTEGER, TEXT

ENTITIES = []


def _register(cls):
    ENTITIES.append(cls)
    return cls


@_register
class User(Entity):
    __table__ = "it_user"
    id = Column(INTEGER, primary_key=True)
    login = Column(TEXT, not_null=True)
    first_name = Column(TEXT)
    last_name = Column(TEXT)
    email = Column(TEXT)
    status = Column(INTEGER)
    super_user = Column(BOOLEAN)
    preferences = OneToMany("UserPreference", foreign_key="user_id",
                            fetch=LAZY)
    permissions = OneToMany("Permission", foreign_key="user_id", fetch=LAZY)


@_register
class Project(Entity):
    __table__ = "it_project"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT, not_null=True)
    description = Column(TEXT)
    status = Column(INTEGER)
    options = Column(INTEGER)
    components = OneToMany("Component", foreign_key="project_id", fetch=LAZY)
    versions = OneToMany("Version", foreign_key="project_id", fetch=LAZY)
    issues = OneToMany("Issue", foreign_key="project_id", fetch=LAZY,
                       order_by="id")


@_register
class Issue(Entity):
    __table__ = "it_issue"
    id = Column(INTEGER, primary_key=True)
    project_id = Column(INTEGER, not_null=True)
    creator_id = Column(INTEGER, not_null=True)
    owner_id = Column(INTEGER)
    severity = Column(INTEGER)
    status = Column(INTEGER)
    resolution = Column(TEXT)
    description = Column(TEXT)
    last_modified = Column(TEXT)
    project = ManyToOne("Project", column="project_id", fetch=EAGER)
    creator = ManyToOne("User", column="creator_id", fetch=EAGER)
    owner = ManyToOne("User", column="owner_id", fetch=LAZY)
    attachments = OneToMany("IssueAttachment", foreign_key="issue_id",
                            fetch=LAZY)
    history = OneToMany("IssueHistory", foreign_key="issue_id", fetch=LAZY,
                        order_by="id")
    activities = OneToMany("IssueActivity", foreign_key="issue_id",
                           fetch=LAZY, order_by="id")


@_register
class Component(Entity):
    __table__ = "it_component"
    id = Column(INTEGER, primary_key=True)
    project_id = Column(INTEGER, not_null=True)
    name = Column(TEXT)
    description = Column(TEXT)
    project = ManyToOne("Project", column="project_id", fetch=LAZY)


@_register
class Version(Entity):
    __table__ = "it_version"
    id = Column(INTEGER, primary_key=True)
    project_id = Column(INTEGER, not_null=True)
    number = Column(TEXT)
    description = Column(TEXT)
    project = ManyToOne("Project", column="project_id", fetch=LAZY)


@_register
class IssueAttachment(Entity):
    __table__ = "it_attachment"
    id = Column(INTEGER, primary_key=True)
    issue_id = Column(INTEGER, not_null=True)
    user_id = Column(INTEGER)
    filename = Column(TEXT)
    size = Column(INTEGER)
    user = ManyToOne("User", column="user_id", fetch=LAZY)


@_register
class IssueHistory(Entity):
    __table__ = "it_history"
    id = Column(INTEGER, primary_key=True)
    issue_id = Column(INTEGER, not_null=True)
    user_id = Column(INTEGER)
    action = Column(TEXT)
    description = Column(TEXT)
    user = ManyToOne("User", column="user_id", fetch=EAGER)


@_register
class IssueActivity(Entity):
    __table__ = "it_activity"
    id = Column(INTEGER, primary_key=True)
    issue_id = Column(INTEGER, not_null=True)
    user_id = Column(INTEGER)
    activity_type = Column(TEXT)
    description = Column(TEXT)
    user = ManyToOne("User", column="user_id", fetch=EAGER)


@_register
class Report(Entity):
    __table__ = "it_report"
    id = Column(INTEGER, primary_key=True)
    owner_id = Column(INTEGER)
    name = Column(TEXT)
    report_type = Column(TEXT)
    owner = ManyToOne("User", column="owner_id", fetch=EAGER)


@_register
class Configuration(Entity):
    __table__ = "it_configuration"
    id = Column(INTEGER, primary_key=True)
    config_type = Column(TEXT)
    name = Column(TEXT)
    value = Column(TEXT)


@_register
class Language(Entity):
    __table__ = "it_language"
    id = Column(INTEGER, primary_key=True)
    locale = Column(TEXT)
    key = Column(TEXT, column="msg_key")
    value = Column(TEXT)


@_register
class Permission(Entity):
    __table__ = "it_permission"
    id = Column(INTEGER, primary_key=True)
    user_id = Column(INTEGER, not_null=True)
    project_id = Column(INTEGER)
    permission_type = Column(INTEGER)
    project = ManyToOne("Project", column="project_id", fetch=LAZY)


@_register
class UserPreference(Entity):
    __table__ = "it_preference"
    id = Column(INTEGER, primary_key=True)
    user_id = Column(INTEGER, not_null=True)
    name = Column(TEXT)
    value = Column(TEXT)


@_register
class ScheduledTask(Entity):
    __table__ = "it_task"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    schedule = Column(TEXT)
    last_run = Column(TEXT)


@_register
class WorkflowScript(Entity):
    __table__ = "it_workflow"
    id = Column(INTEGER, primary_key=True)
    name = Column(TEXT)
    event = Column(TEXT)
    script = Column(TEXT)


# Ordered indexes beyond the ORM's equality FK indexes: the issue listing
# and report pages range over modification dates ("changed since", "stale
# issues of project P") and sort by them, which an ordered index serves
# without a full scan or an explicit sort.
EXTRA_DDL = [
    "CREATE INDEX idx_it_issue_modified ON it_issue (last_modified) "
    "USING ORDERED",
    "CREATE INDEX idx_it_issue_proj_modified ON it_issue "
    "(project_id, last_modified) USING ORDERED",
]


def shard_topology(shards, replicas=0, staleness_bound=0):
    """The itracker cluster layout: partition by project (the paper's
    partition-friendly access path — most pages are scoped to one
    project), per-issue detail tables by issue, everything else broadcast
    (users, preferences, admin/config tables are small and read-mostly)."""
    # Cold path (once per cluster set-up): unsharded runs never load shard.
    from repro.sqldb.shard import PartitionSpec, ShardTopology

    return ShardTopology(shards, {
        "it_project": PartitionSpec("id"),
        "it_issue": PartitionSpec("project_id"),
        "it_component": PartitionSpec("project_id"),
        "it_version": PartitionSpec("project_id"),
        "it_attachment": PartitionSpec("issue_id"),
        "it_history": PartitionSpec("issue_id"),
        "it_activity": PartitionSpec("issue_id"),
    }, replicas=replicas, staleness_bound=staleness_bound)
