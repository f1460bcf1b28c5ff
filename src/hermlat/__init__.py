"""Hermitian lattices over number rings.

Exact number-field arithmetic, hermitian bundles and their restriction to
Z-lattices, certified successive minima by complete enumeration, trace
duality with covolume and transfer-vector machinery, slope identities on
diagonal bundles, executable transference checks with a seeded fuzz
harness, and closed-form height-bound evaluators.

``import hermlat`` loads no submodule.  The names below are bound on first
use (PEP 562): reading one imports the submodule that defines it, which
loads only what that submodule imports, and binds all of that submodule's
names here at once.  Building a field and drawing bundles
(``build_field``, ``make_bundle``, ``random_bundle``) loads ``numberfield``,
``exactlinalg`` and ``bundles``; ``check_all`` adds ``minima``, ``duality``
and ``transference``.  Every ``hermlat.X`` is the object
``hermlat.<submodule>.X``.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the names it exports here
_EXPORTS = {
    "bundles": (
        "BundleError",
        "BundleVector",
        "HermitianBundle",
        "NormedLattice",
        "PrecisionError",
        "dual_bundle",
        "make_bundle",
        "random_bundle",
        "restrict_scalars",
        "vector_from_f_coords",
    ),
    "duality": (
        "DualityError",
        "DualVector",
        "TraceDualLattice",
        "TraceModule",
        "codifferent_covolume",
        "codifferent_lattice",
        "different_lattice",
        "minkowski_codifferent_bound",
        "minkowski_codifferent_vector",
        "trace_dual",
        "trace_module",
        "transfer_vector",
        "unit_ball_volume",
    ),
    "fixtures": (
        "FixtureError",
        "fuzz_corpus_fields",
        "load_bundle",
        "load_field",
        "load_invariants",
        "shipped_field",
        "shipped_field_names",
    ),
    "heights": (
        "AsymptoticReport",
        "CurveInvariants",
        "asymptotic_consistency",
        "binomial_sum_constant",
        "height_floor",
        "height_limit",
        "height_lower_bounds",
        "height_upper_bounds",
    ),
    "minima": (
        "BudgetExhausted",
        "DEFAULT_BUDGET",
        "MinimaProfile",
        "enumerate_below",
        "exact_rank",
        "successive_minima",
    ),
    "numberfield": (
        "FieldElement",
        "FieldError",
        "NumberField",
        "build_field",
        "duality_gap_constant",
        "trace_gram",
    ),
    "slopes": (
        "DiagonalBundle",
        "NotDiagonalError",
        "SlopeProfile",
        "as_diagonal",
        "check_minima_slope_bound",
        "check_slope_duality",
        "diagonal_bundle",
        "diagonal_slopes",
        "dual_diagonal",
        "line_degree",
    ),
    "transference": (
        "BundleChecks",
        "TheoremReport",
        "bundle_digest",
        "check_all",
        "check_polar_transference",
        "check_index_comparison",
        "check_proof_chain",
        "check_sandwich",
        "fuzz",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    mod = importlib.import_module(f".{module}", __name__)
    for export in _EXPORTS[module]:
        globals()[export] = getattr(mod, export)
    return globals()[name]


def __dir__():
    return sorted({*globals(), *__all__})
