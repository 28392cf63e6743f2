"""Kiselman monoid word combinatorics and update-system dynamics on DAGs."""

from .canonical import (
    KnElement,
    KnMonoid,
    StepKind,
    StepSite,
    apply_step,
    canonical_form,
    canonical_form_restricted,
    canonical_words,
    eligible_steps,
    enumerate_kn,
    find_step,
    is_canonical,
    is_special,
    multiply,
    same_kn_element,
)
from .conjectures import (
    DagCatalog,
    SweepReport,
    SweepRow,
    build_universal_dag,
    conjecture_sweep,
    enumerate_dags,
)
from .errors import HkDisagreementError, ResourceGuardError
from .hecke import HkClasses, HkPresentation, enumerate_hk
from .sds import (
    Dag,
    DynamicsMap,
    DynamicsMonoid,
    UpdateSystem,
    check_hk_relations,
    complete_dag,
    dag_from_json,
    dag_to_json,
    random_update_system,
    reachable_states,
    system_from_json,
    system_to_json,
)
from .universal import (
    PredictedState,
    UniversalSystem,
    build_universal,
    fold_join,
    predicted_state,
    reachability_report,
    reconstruct_canonical,
    star_state,
    verify_isomorphism,
    verify_theorem,
)
from .words import (
    STAR,
    Word,
    delete,
    format_word,
    head,
    is_quasi_subword,
    is_subword,
    is_suffix,
    join,
    parse_word,
    suffix_split,
    truncate,
    truncate_set,
)

__version__ = "0.1.0"
