"""repro.plan: the logical plan IR both compilation paths lower.

Declarative Scan/Filter/Project/Join/Aggregate/TopN trees with schemas
derived bottom-up (:mod:`~repro.plan.ir`), the single-node lowering
onto the engine's physical operators (:mod:`~repro.plan.lower`), and
the ``explain`` pretty-printers (:mod:`~repro.plan.explain`).  The
distributed lowering — Exchange placement over the same IR — lives in
:mod:`repro.dist.planner`.
"""

from .explain import explain, explain_fragments, explain_physical
from .ir import (
    Agg,
    Aggregate,
    Exchange,
    FieldRef,
    Filter,
    Join,
    PlanError,
    PlanNode,
    PlanSchema,
    Project,
    Scan,
    TopN,
    count_nodes,
    output_schema,
    walk,
)
from .lower import (
    Lowering,
    compile_aggregate,
    compile_predicate,
    compile_projector,
    estimate_rows,
    lower_single,
)

__all__ = [
    "Agg",
    "Aggregate",
    "Exchange",
    "FieldRef",
    "Filter",
    "Join",
    "Lowering",
    "PlanError",
    "PlanNode",
    "PlanSchema",
    "Project",
    "Scan",
    "TopN",
    "compile_aggregate",
    "compile_predicate",
    "compile_projector",
    "count_nodes",
    "estimate_rows",
    "explain",
    "explain_fragments",
    "explain_physical",
    "lower_single",
    "output_schema",
    "walk",
]
