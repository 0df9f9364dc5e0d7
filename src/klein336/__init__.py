"""Exact arithmetic for the order-336 unitary reflection group acting on a
rank-6 lattice, torsion points of the quotient torus, and the classification
of the quotient-variety singularities."""

from .group import GroupTable, Subgroup, get_group, roots
from .linalg import (
    Mat3,
    hnf_rows,
    mat3_to_int6,
    smith_normal_form,
    to_eps_coords,
)
from .orbits import (
    Orbit,
    OrbitRecord,
    SingularityReport,
    classify_locus,
    orbit_points,
    singularity_report,
    singularity_weights,
    stabilizer_indices,
)
from .qfield import ALPHA, ALPHA_BAR, QNum, hermitian, vec3
from .quartic import QuarticForm, act, klein_quartic, verify_quartic_invariance
from .report import VerifyOutcome, emit_report, run_verify
from .torus import (
    FixedLocus,
    TorusPoint,
    enumerate_fixed_points,
    fixed_locus_structure,
    fixed_point_count,
    registry_point,
)

__version__ = "0.1.0"

__all__ = [
    "ALPHA",
    "ALPHA_BAR",
    "FixedLocus",
    "GroupTable",
    "Mat3",
    "Orbit",
    "OrbitRecord",
    "QNum",
    "QuarticForm",
    "SingularityReport",
    "Subgroup",
    "TorusPoint",
    "VerifyOutcome",
    "act",
    "classify_locus",
    "emit_report",
    "enumerate_fixed_points",
    "fixed_locus_structure",
    "fixed_point_count",
    "get_group",
    "hermitian",
    "hnf_rows",
    "klein_quartic",
    "mat3_to_int6",
    "orbit_points",
    "registry_point",
    "roots",
    "run_verify",
    "singularity_report",
    "singularity_weights",
    "smith_normal_form",
    "stabilizer_indices",
    "to_eps_coords",
    "vec3",
    "verify_quartic_invariance",
]
