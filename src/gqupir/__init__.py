"""Private information retrieval over finite incidence geometries.

Users sit on the points of a projective plane or generalised quadrangle and
relay each other's database queries through shared message spaces; the
adversary model is honest-but-curious coalitions of users trying to tie
query topics back to their sources.  The package builds the geometries over
small finite fields, verifies their axioms, simulates the plaintext and
proxy-encrypted relay protocols, and measures pseudonymity both analytically
and from simulated transcripts.
"""

from .fields import (
    GF,
    NotAPrimePowerError,
    UnsupportedOrderError,
    ZeroVectorError,
    field,
    normalize_point,
    projective_points,
)
from .geometry import (
    AxiomViolation,
    CollinearGeneratorsError,
    Geometry,
    HigmanViolation,
    IncidenceStructure,
    SpanSet,
    VerificationFailed,
    build_pg2,
    build_q4,
    build_w3,
    load_geometry,
    save_geometry,
    verify_gq,
    verify_plane,
)
from .upir import (
    DisconnectedError,
    NotDiameterBoundedError,
    QueryWorkload,
    Transcript,
    TranscriptEvent,
    UPIRSystem,
    access,
    external_view,
    observer_view,
    path_choice_counts,
    proxy_counts,
    proxy_uniformity,
    read_transcript,
    run_protocol,
    write_ground_truth,
    write_transcript,
)
from .adversary import (
    CandidateState,
    CoalitionTracker,
    DegeneratePartition,
    PseudonymityPartition,
    SecurityMargin,
    SweepRow,
    analytic_coalition,
    analytic_single,
    coalition_sweep,
    converge_topics,
    empirical_infer,
    partition_meet,
    place_coalition,
    secure_at,
    security_margin,
)

__version__ = "0.1.0"

__all__ = [
    "GF", "field", "normalize_point", "projective_points",
    "NotAPrimePowerError", "UnsupportedOrderError", "ZeroVectorError",
    "IncidenceStructure", "Geometry", "SpanSet",
    "build_pg2", "build_w3", "build_q4", "verify_gq", "verify_plane",
    "save_geometry", "load_geometry",
    "AxiomViolation", "HigmanViolation", "VerificationFailed",
    "CollinearGeneratorsError",
    "UPIRSystem", "QueryWorkload", "Transcript", "TranscriptEvent",
    "run_protocol", "access", "observer_view", "external_view",
    "write_transcript", "write_ground_truth", "read_transcript",
    "path_choice_counts", "proxy_counts", "proxy_uniformity",
    "DisconnectedError", "NotDiameterBoundedError",
    "PseudonymityPartition", "SecurityMargin", "CandidateState",
    "CoalitionTracker", "SweepRow",
    "analytic_single", "analytic_coalition", "partition_meet",
    "security_margin", "secure_at", "converge_topics", "empirical_infer",
    "place_coalition", "coalition_sweep", "DegeneratePartition",
    "__version__",
]
