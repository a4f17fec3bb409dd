"""Certification toolkit for weighted shifts on directed trees.

Decides, at finite desk scale, whether a weighted shift on a directed tree
satisfies the checkable moment-positivity and measure-system premises of
the subnormality criteria it implements: Hankel positivity of orbit-norm
sequences, two-sided windows for rootless chains, the one-branching-vertex
case conditions, explicit consistent-system construction and re-verification,
determinacy-based necessary checks, and the covering reduction for rootless
trees.
"""

from .errors import (
    CaseMismatchError,
    CycleError,
    DisconnectedError,
    HasRootError,
    InstanceError,
    InvalidEtaError,
    MassExceedsOneError,
    MeasureRecoveryError,
    MissingChildMeasureError,
    MultipleParentsError,
    NegativeEntryError,
    NotAChainError,
    NotInDomainError,
    NotNormalizableError,
    PremiseViolatedError,
    TreeShiftError,
    UnknownVertexError,
    WeightUndefinedError,
    WindowTooSmallError,
    WrongTreeShapeError,
    ZeroAtomError,
    ZeroAtomInChildError,
    ZeroEntryError,
    ZeroMomentError,
    ZeroWeightError,
)
from .measures import (
    AtomicMeasure,
    child_measure_from_parent,
    moments_of,
    parent_measure_from_child,
    root_measure_from_branches,
)
from .moments import (
    DeterminacyVerdict,
    HankelWitness,
    MomentSequence,
    StieltjesVerdict,
    TwoSidedMomentSequence,
    carleman_partial_sum,
    determinacy_verdict,
    recover_atomic_measure,
    represent,
    stieltjes_check,
    two_sided_stieltjes_check,
)
from .criteria import (
    BranchFrame,
    ConsistentSystem,
    branch_frame,
    build_branch_tree_system,
    certify_bilateral,
    certify_branch_tree,
    certify_branch_tree_root_measure,
    certify_unilateral,
    consistency_at,
    necessary_checks_determinate,
    reduce_rootless,
    root_measure_equivalence_roundtrip,
    verify_consistent_system,
)
from .rationals import INF, Scalar, as_scalar, parse_rational
from .report import CertificateReport, Check, Verdict
from .shifts import (
    WeightSystem,
    WeightedShift,
    make_branch_shift,
    moment_sequence,
    synthesize_weights_from_measures,
)
from .trees import (
    KAPPA_INF,
    DirectedTree,
    build_tree,
    covering_ancestors,
    format_vertex,
    make_bilateral_chain,
    make_tree_eta_kappa,
    make_unilateral_chain,
    parse_vertex,
    subtree_at,
)

__version__ = "0.1.0"
