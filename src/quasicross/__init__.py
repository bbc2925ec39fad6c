"""Perfect single-error codes for the unbalanced limited-magnitude
channel, built from lattice tilings of Z^n by quasi-crosses via
splittings of finite abelian groups."""

from .bounds import (
    FeasibilityReport,
    dimension_bound,
    group_order_constraints,
    instance_feasibility,
    max_positive_arm,
    negative_arm_bound,
)
from .codec import CodeSpec, Decoded, SyndromeTable, decode, encode, make_code, syndrome
from .constructions import (
    BalanceFamilyMember,
    balance_family,
    cyclic_splitting,
    field_splitting,
    matrix_extension,
    mixed_splitting,
    two_one_splitting,
)
from .groups import Element, FiniteAbelianGroup, cyclic_group, is_prime
from .lattice import (
    GeometricReport,
    IntegerLattice,
    determinant,
    geometric_check,
    lattice_from_json,
    lattice_from_splitting,
    lattice_to_json,
    packing_density,
    period,
    render_2d,
)
from .search import (
    SearchTimeout,
    SurveyRow,
    search_tilings,
    survey,
    survey_csv,
    survey_summary,
    unit_orbit_canonical,
)
from .splitting import (
    Collision,
    MultiplierSet,
    PackingCheck,
    QuasiCrossShape,
    Singularity,
    Splitting,
    check_singular_prime_bound,
    classify_singularity,
    from_json,
    image,
    is_tiling,
    make_cyclic_splitting,
    to_json,
    verify_packing,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
