"""hardylab: exact verification lab for a teleportation-based Hardy-style
nonlocality argument on two maximally entangled qubits.

The package rebuilds the four-qubit state (singlet plus two local
ancillas), mechanically re-derives its two Bell-basis expansions, audits
the four advertised Hardy conditions under explicit interpretations,
decides local-hidden-variable feasibility of probability tables with
exact rational certificates, and simulates finite-shot measurement runs.

Everything but the sampler is exact integer and Fraction arithmetic.  The
sampler needs numpy, so its names are imported on first access.
"""

__version__ = "0.1.0"

from .core import (
    CANONICAL_SLOTS,
    HardyLabError,
    ObservableOp,
    StateVector,
    apply,
    born_probability,
    collapse,
    commutator_norm,
    set_tolerance,
    tolerance,
)
from .protocol import (
    BELL_ORDER,
    BellIndex,
    Branch,
    BranchExpansion,
    ExpansionReport,
    bell_state,
    expand_in_bell_basis,
    make_ancillas,
    make_singlet,
    make_total_state,
    verify_expansion,
)
from .observables import (
    CLAIM_TARGETS,
    AuditReport,
    HardyClaimSet,
    Interpretation,
    ProbabilityTable,
    audit_pair,
    build_d,
    build_u,
    conditional_probability,
    enumerate_all_pairs,
    joint_outcome_table,
    quantum_probability_table,
)
from .lhv import (
    ASSIGNMENTS,
    DeductionTrace,
    InfeasibilityWitness,
    LhvCertificate,
    LhvModel,
    claimed_hardy_table,
    feasibility,
    rationalize_table,
    replay_deductions,
    validate_certificate,
)

_SAMPLER_NAMES = (
    "CountTable",
    "DeviationReport",
    "RunConfig",
    "compare_frequencies",
    "exact_context_probabilities",
    "sample",
)


def __getattr__(name: str):
    if name in _SAMPLER_NAMES:
        from . import sampler

        return getattr(sampler, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "__version__",
    "CANONICAL_SLOTS",
    "HardyLabError",
    "ObservableOp",
    "StateVector",
    "apply",
    "born_probability",
    "collapse",
    "commutator_norm",
    "set_tolerance",
    "tolerance",
    "BELL_ORDER",
    "BellIndex",
    "Branch",
    "BranchExpansion",
    "ExpansionReport",
    "bell_state",
    "expand_in_bell_basis",
    "make_ancillas",
    "make_singlet",
    "make_total_state",
    "verify_expansion",
    "CLAIM_TARGETS",
    "AuditReport",
    "HardyClaimSet",
    "Interpretation",
    "ProbabilityTable",
    "audit_pair",
    "build_d",
    "build_u",
    "conditional_probability",
    "enumerate_all_pairs",
    "joint_outcome_table",
    "quantum_probability_table",
    "ASSIGNMENTS",
    "DeductionTrace",
    "InfeasibilityWitness",
    "LhvCertificate",
    "LhvModel",
    "claimed_hardy_table",
    "feasibility",
    "rationalize_table",
    "replay_deductions",
    "validate_certificate",
    *_SAMPLER_NAMES,
]
