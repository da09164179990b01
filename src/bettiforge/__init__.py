"""Exact-arithmetic Betti tables, Hilbert series, Macaulay inverse systems and
Lefschetz checks for ideals generated by powers of general linear forms, with
a brute-force linear-algebra oracle cross-checking every closed formula."""

from .apolarity import (
    EsymDual,
    LefschetzReport,
    annihilator,
    dual_generator_of_colon,
    elementary_symmetric,
    elementary_symmetric_dual,
    lefschetz_check,
    semiregularity_check,
)
from .exactalg import (
    DEFAULT_PRIME,
    GF_DEFAULT,
    GF_PARANOIA,
    PARANOIA_PRIME,
    QQ,
    PrimeField,
    RationalField,
    field_from_spec,
)
from .formulas import (
    BettiTable,
    betti_aci_odd,
    betti_formula,
    betti_gorenstein_odd,
    betti_sum_formula,
    koszul_betti,
    predict_level,
    syzygy_coefficient,
    syzygy_coefficients,
)
from .hilbert import (
    DegreeSequence,
    FrobergSeries,
    ci_hilbert,
    ci_peak_interval,
    froberg_series,
    gorenstein_linked_hilbert,
    multiplicity_of_truncation,
    series_numerator,
)
from .polyring import (
    Polynomial,
    contract,
    format_polynomial,
    macaulay_matrix,
    monomials_of_degree,
    parse_polynomial,
    power_ideal,
    power_of_linear,
    standard_linear_form,
)
from .resolver import (
    GradedQuotient,
    RelationVector,
    betti_from_quotient,
    colon_ideal,
    ideal_slices,
    linked_ideal,
    membership,
    minimal_betti_oracle,
    minimal_generators,
    socle_dims,
    syzygies_in_degree,
)
from .special import (
    LiftedFamily,
    build_lifted_family,
    check_colon_equals_plus,
    check_syzygy_property,
    check_xn_regular,
    enumerate_point_set,
    esym_annihilator_generators,
    lattice_path_count,
    random_generic_level_spotcheck,
    sqfree_leading_set,
)

__version__ = "0.1.0"
