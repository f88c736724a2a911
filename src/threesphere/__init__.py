"""Geometric algebra of Euclidean 3-space and a 3-sphere correlation simulator.

The library has four layers:

* :mod:`threesphere.algebra`: the eight-dimensional Clifford algebra,
  its even (quaternion-like) part, and the orientation machinery.
* :mod:`threesphere.topology`: membership and closure on the 3-sphere
  and its equatorial 2-sphere, point factorization, stereographic
  projection.
* :mod:`threesphere.protocol`: the local measurement protocol whose
  shared hidden variable is the orientation of the algebra.
* :mod:`threesphere.correlations`: expectation estimators, the analytic
  ``cos 2(alpha - beta)`` reference, and CHSH evaluation/search.

The ``threesphere`` command exposes the same functionality as
deterministic, file-producing experiments.
"""

__version__ = "0.1.0"

from .algebra import (
    E_X,
    E_XY,
    E_Y,
    E_YZ,
    E_Z,
    E_ZX,
    LEFT_HANDED,
    ONE,
    PSEUDOSCALAR,
    RIGHT_HANDED,
    EvenElement,
    Handedness,
    Multivector,
    Vector3,
    bivector_identity_residual,
    dual_bivector,
    even_product,
    geometric_product,
    grade_projection,
    oriented_even_product,
    wedge,
)
from .correlations import (
    ChshSettings,
    CorrelationEstimate,
    chsh_maximize,
    chsh_value,
    joint_expectation,
    joint_expectations,
    quantum_reference,
    single_expectation,
)
from .protocol import (
    PolarizerAngle,
    SimulationConfig,
    Trials,
    alice_outcome,
    bob_outcome,
    handedness_sign_sum,
    handedness_signs,
    joint_product_closed_form,
    polarizer_axis,
    run_trials,
)
from .topology import (
    NorthPoleError,
    PlanePoint,
    S2Point,
    factorize_s3_point,
    is_equatorial,
    is_unit_s3,
    s2_nonclosure_witness,
    stereographic_project,
    stereographic_unproject,
)

__all__ = [
    "__version__",
    "Multivector",
    "Vector3",
    "Handedness",
    "EvenElement",
    "RIGHT_HANDED",
    "LEFT_HANDED",
    "ONE",
    "E_X",
    "E_Y",
    "E_Z",
    "E_YZ",
    "E_ZX",
    "E_XY",
    "PSEUDOSCALAR",
    "geometric_product",
    "wedge",
    "grade_projection",
    "dual_bivector",
    "even_product",
    "oriented_even_product",
    "bivector_identity_residual",
    "NorthPoleError",
    "S2Point",
    "PlanePoint",
    "is_unit_s3",
    "is_equatorial",
    "factorize_s3_point",
    "s2_nonclosure_witness",
    "stereographic_project",
    "stereographic_unproject",
    "PolarizerAngle",
    "SimulationConfig",
    "Trials",
    "handedness_signs",
    "handedness_sign_sum",
    "polarizer_axis",
    "alice_outcome",
    "bob_outcome",
    "joint_product_closed_form",
    "run_trials",
    "CorrelationEstimate",
    "ChshSettings",
    "single_expectation",
    "joint_expectation",
    "joint_expectations",
    "quantum_reference",
    "chsh_value",
    "chsh_maximize",
]
