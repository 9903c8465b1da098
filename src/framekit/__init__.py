"""framekit: a numerical laboratory for coordinate expansions on Banach spaces.

Concrete sequence, dyadic-grid and amalgam spaces with exact norms and
pairings; frames over them with explicitly truncated expansions; runnable
suites that turn structural claims (besselian bounds, duality of constants,
shrinking/boundedly-complete decay, rearrangement stability) into
deterministic pass/fail reports.
"""

__version__ = "0.3.2"

from .spaces import (  # noqa: E402
    AmalgamFunction,
    DualSeq,
    GridFunction,
    SeqVector,
    amalgam_norm,
    conjugate_exponent,
    grid_lp_norm,
    linf_norm,
    lp_norm,
    pairing_phi,
    pairing_phi_pq,
    pairing_psi,
    translate,
)
from .frames import (  # noqa: E402
    Frame,
    analysis_coefficient,
    besselian_sum,
    coefficient_sequence,
    derive_rng,
    dual_frame,
    estimate_frame_constant,
    frame_pair,
    shrinking_tail,
    boundedly_complete_tail,
    synthesis_partial,
    unconditional_deviation,
)
from .catalog import (  # noqa: E402
    amalgam_frame,
    canonical_l1_frame,
    frame_from_label,
    haar_frame,
)
from .verify import (  # noqa: E402
    ExperimentSpec,
    FrameReport,
    ProbeResult,
    ReportBundle,
    default_specs,
    reflexivity_probe,
    run_all,
)

__all__ = [
    "__version__",
    # spaces
    "SeqVector",
    "DualSeq",
    "GridFunction",
    "AmalgamFunction",
    "conjugate_exponent",
    "lp_norm",
    "linf_norm",
    "grid_lp_norm",
    "amalgam_norm",
    "pairing_psi",
    "pairing_phi",
    "pairing_phi_pq",
    "translate",
    # frames
    "Frame",
    "frame_pair",
    "analysis_coefficient",
    "synthesis_partial",
    "coefficient_sequence",
    "besselian_sum",
    "estimate_frame_constant",
    "dual_frame",
    "shrinking_tail",
    "boundedly_complete_tail",
    "unconditional_deviation",
    "reflexivity_probe",
    "derive_rng",
    "ProbeResult",
    "FrameReport",
    # catalog
    "canonical_l1_frame",
    "haar_frame",
    "amalgam_frame",
    "frame_from_label",
    # verify
    "ExperimentSpec",
    "ReportBundle",
    "default_specs",
    "run_all",
]
