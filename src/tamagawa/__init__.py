"""Exact and analytic verification of Tamagawa-number identities for
algebraic tori attached to quadratic and biquadratic fields."""

from .cohomology import (
    cohomology,
    h0_torsion_dual,
    ono_constant,
    q_rank,
    sha_order,
)
from .errors import (
    BudgetExceededError,
    ConfigError,
    NotStabilizedError,
    QRankError,
    TamagawaError,
    UnsupportedTorusError,
)
from .galois import (
    FAMILIES,
    INF,
    FiniteGroup,
    GaloisLattice,
    TorusSpec,
    build_torus,
    decomposition_subgroup,
    euler_factor_at_one,
    is_good_prime,
    point_count_Fp,
    trivial_lattice,
)
from .globalasm import (
    ArchVolume,
    CGammaResult,
    archimedean_volume,
    assert_good_factors,
    c_gamma,
    l_value,
    torsion_unit_order,
    verify_tnc,
)
from .localmeasure import (
    LocalDensity,
    bad_prime_density,
    cross_validate_density,
)
from .models import AffineModel, count_points_mod, norm_form_model, unit_group_model
from .quadfield import (
    BiquadField,
    ClassGroupData,
    QuadField,
    UnitData,
    class_group,
    fundamental_unit,
    is_fundamental_discriminant,
    norm_one_unit,
    reduced_forms,
)
from .report import VerificationReport, render_report

__version__ = "0.1.0"

__all__ = [
    "AffineModel",
    "ArchVolume",
    "BiquadField",
    "BudgetExceededError",
    "CGammaResult",
    "ClassGroupData",
    "ConfigError",
    "FAMILIES",
    "FiniteGroup",
    "GaloisLattice",
    "INF",
    "LocalDensity",
    "NotStabilizedError",
    "QRankError",
    "QuadField",
    "TamagawaError",
    "TorusSpec",
    "UnitData",
    "UnsupportedTorusError",
    "VerificationReport",
    "archimedean_volume",
    "assert_good_factors",
    "bad_prime_density",
    "build_torus",
    "c_gamma",
    "class_group",
    "cohomology",
    "count_points_mod",
    "cross_validate_density",
    "decomposition_subgroup",
    "euler_factor_at_one",
    "fundamental_unit",
    "h0_torsion_dual",
    "is_fundamental_discriminant",
    "is_good_prime",
    "l_value",
    "norm_form_model",
    "norm_one_unit",
    "ono_constant",
    "point_count_Fp",
    "q_rank",
    "reduced_forms",
    "render_report",
    "sha_order",
    "torsion_unit_order",
    "trivial_lattice",
    "unit_group_model",
    "verify_tnc",
]
