"""Fig. 10: load time vs database size on one node.

:func:`run_modes` sweeps entity counts in both modes (paper result: on
list-heavy pages Sloth stays faster and scales better as entity counts
grow, with batch sizes growing in step — 68 -> 1880 queries per batch in
the paper's largest configuration).
"""

from repro.apps import itracker, openmrs
from repro.bench.harness import load_page
from repro.bench.report import format_table
from repro.net.clock import CostModel
from repro.web.appserver import MODE_ORIGINAL, MODE_SLOTH

PROJECT_COUNTS = (10, 25, 50, 100)
OBS_COUNTS = (50, 100, 200, 400)


def run_modes(project_counts=PROJECT_COUNTS, obs_counts=OBS_COUNTS):
    """The mode sweep: entity counts vs mode."""
    cost_model = CostModel()
    itracker_rows = []
    for projects in project_counts:
        db, dispatcher = itracker.build_app(projects=projects)
        url = "module-projects/list_projects.jsp"
        orig = load_page(db, dispatcher, url, cost_model, MODE_ORIGINAL)
        sloth = load_page(db, dispatcher, url, cost_model, MODE_SLOTH)
        itracker_rows.append({
            "entities": projects,
            "original_ms": orig.time_ms,
            "sloth_ms": sloth.time_ms,
            "sloth_max_batch": sloth.largest_batch,
        })
    openmrs_rows = []
    for obs in obs_counts:
        db, dispatcher = openmrs.build_app(obs_per_encounter=obs)
        url = "encounters/encounterDisplay.jsp"
        orig = load_page(db, dispatcher, url, cost_model, MODE_ORIGINAL)
        sloth = load_page(db, dispatcher, url, cost_model, MODE_SLOTH)
        openmrs_rows.append({
            "entities": obs,
            "original_ms": orig.time_ms,
            "sloth_ms": sloth.time_ms,
            "sloth_max_batch": sloth.largest_batch,
        })
    return {"itracker": itracker_rows, "openmrs": openmrs_rows}


def format_modes_result(result):
    """Render the mode sweep (:func:`run_modes`)."""
    parts = []
    for app, label in (("itracker", "# projects"),
                       ("openmrs", "# observations")):
        rows = [
            (r["entities"], round(r["original_ms"], 1),
             round(r["sloth_ms"], 1), r["sloth_max_batch"])
            for r in result[app]
        ]
        parts.append(format_table(
            (label, "original ms", "sloth ms", "max batch"), rows,
            title=f"Fig. 10 — database scaling ({app})"))
    return "\n\n".join(parts)
