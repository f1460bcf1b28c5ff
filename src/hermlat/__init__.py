"""Hermitian lattices over number rings.

Exact number-field arithmetic, hermitian bundles and their restriction to
Z-lattices, certified successive minima by complete enumeration, trace
duality with covolume and transfer-vector machinery, slope identities on
diagonal bundles, executable transference checks with a seeded fuzz
harness, and closed-form height-bound evaluators.
"""

from .bundles import (
    BundleError,
    BundleVector,
    HermitianBundle,
    NormedLattice,
    PrecisionError,
    dual_bundle,
    make_bundle,
    restrict_scalars,
    vector_from_f_coords,
)
from .duality import (
    DualityError,
    DualVector,
    TraceDualLattice,
    TraceModule,
    codifferent_covolume,
    codifferent_lattice,
    different_lattice,
    minkowski_codifferent_bound,
    minkowski_codifferent_vector,
    trace_dual,
    trace_module,
    transfer_vector,
    unit_ball_volume,
)
from .fixtures import (
    FixtureError,
    fuzz_corpus_fields,
    load_bundle,
    load_field,
    load_invariants,
    shipped_field,
    shipped_field_names,
)
from .heights import (
    AsymptoticReport,
    CurveInvariants,
    asymptotic_consistency,
    binomial_sum_constant,
    height_floor,
    height_limit,
    height_lower_bounds,
    height_upper_bounds,
)
from .minima import (
    BudgetExhausted,
    DEFAULT_BUDGET,
    MinimaProfile,
    enumerate_below,
    exact_rank,
    successive_minima,
)
from .numberfield import (
    DEFAULT_PREC_BITS,
    FieldElement,
    FieldError,
    NumberField,
    build_field,
    duality_gap_constant,
    trace_gram,
)
from .slopes import (
    DiagonalBundle,
    NotDiagonalError,
    SlopeProfile,
    SlopeReport,
    as_diagonal,
    check_minima_slope_bound,
    check_slope_duality,
    diagonal_bundle,
    diagonal_slopes,
    dual_diagonal,
    line_degree,
)
from .transference import (
    BundleChecks,
    DualMinimaReport,
    TheoremReport,
    bundle_digest,
    check_all,
    check_polar_transference,
    check_index_comparison,
    check_proof_chain,
    check_sandwich,
    dual_minima_comparison,
    fuzz,
    random_bundle,
)

__version__ = "0.1.0"
