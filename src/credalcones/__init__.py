"""Exact inference for credal networks under epistemic irrelevance.

The package builds finitely generated cones of desirable gambles, checks
their coherence with exact rational linear programming, assembles the
global model of a credal network from local ones, and answers membership
and bound queries with verifiable certificates.
"""

from .cone import AssessmentCone, CoherenceReport
from .core import (
    Configuration,
    Gamble,
    ScopeError,
    Space,
    VariableSpace,
    as_rational,
    indicator,
)
from .dag import Dag, DagError, DagReport
from .lp import (
    LinearSystem,
    LpError,
    LpOutcome,
    LpStatus,
    Membership,
    PivotLimitError,
    Relation,
    Vanishing,
    WorkCapError,
    conic_membership,
    contains_zero,
)
from .net import (
    CredalNet,
    GeneratorCapError,
    IncoherentLocalModel,
    IrrelevanceCheck,
    JointModel,
    NetworkError,
    VerificationReport,
    Violation,
    ZeroGambleError,
    sample_credal_net,
    sample_gamble,
)
from .oracle import (
    AuditReport,
    PreciseNet,
    WitnessMismatchError,
    fm_membership,
    positivity_audit,
)

__all__ = [
    "AssessmentCone",
    "AuditReport",
    "CoherenceReport",
    "Configuration",
    "CredalNet",
    "Dag",
    "DagError",
    "DagReport",
    "Gamble",
    "GeneratorCapError",
    "IncoherentLocalModel",
    "IrrelevanceCheck",
    "JointModel",
    "LinearSystem",
    "LpError",
    "LpOutcome",
    "LpStatus",
    "Membership",
    "NetworkError",
    "PivotLimitError",
    "PreciseNet",
    "Relation",
    "ScopeError",
    "Space",
    "Vanishing",
    "VariableSpace",
    "VerificationReport",
    "Violation",
    "WitnessMismatchError",
    "WorkCapError",
    "ZeroGambleError",
    "as_rational",
    "conic_membership",
    "contains_zero",
    "fm_membership",
    "indicator",
    "positivity_audit",
    "sample_credal_net",
    "sample_gamble",
]

__version__ = "0.1.0"
