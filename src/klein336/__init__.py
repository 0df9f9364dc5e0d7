"""Exact arithmetic for the order-336 unitary reflection group acting on a
rank-6 lattice, torsion points of the quotient torus, and the classification
of the quotient-variety singularities."""

from .group import GroupTable, Subgroup, get_group, positive_roots, roots
from .linalg import (
    Mat3,
    from_eps_coords,
    hnf_rows,
    kernel_K,
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
    lattice_contains,
    registry_point,
    subgroup_fixed_points,
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
    "from_eps_coords",
    "get_group",
    "hermitian",
    "hnf_rows",
    "kernel_K",
    "klein_quartic",
    "lattice_contains",
    "mat3_to_int6",
    "orbit_points",
    "positive_roots",
    "registry_point",
    "roots",
    "run_verify",
    "singularity_report",
    "singularity_weights",
    "smith_normal_form",
    "stabilizer_indices",
    "subgroup_fixed_points",
    "to_eps_coords",
    "vec3",
    "verify_quartic_invariance",
]
