"""The package namespace: lazily loaded submodules and the export table."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hermlat

SRC = Path(__file__).resolve().parent.parent / "src"

# every name the package exported when it imported its submodules eagerly,
# under the submodule it was imported from
EXPORTS = {
    "bundles": (
        "BundleError", "BundleVector", "HermitianBundle", "NormedLattice", "PrecisionError",
        "dual_bundle", "make_bundle", "restrict_scalars", "vector_from_f_coords",
    ),
    "duality": (
        "DualityError", "DualVector", "TraceDualLattice", "TraceModule", "codifferent_covolume",
        "codifferent_lattice", "different_lattice", "minkowski_codifferent_bound",
        "minkowski_codifferent_vector", "trace_dual", "trace_module", "transfer_vector",
        "unit_ball_volume",
    ),
    "fixtures": (
        "FixtureError", "fuzz_corpus_fields", "load_bundle", "load_field", "load_invariants",
        "shipped_field", "shipped_field_names",
    ),
    "heights": (
        "AsymptoticReport", "CurveInvariants", "asymptotic_consistency", "binomial_sum_constant",
        "height_floor", "height_limit", "height_lower_bounds", "height_upper_bounds",
    ),
    "minima": (
        "BudgetExhausted", "DEFAULT_BUDGET", "MinimaProfile", "enumerate_below", "exact_rank",
        "successive_minima",
    ),
    "numberfield": (
        "FieldElement", "FieldError", "NumberField", "build_field",
        "duality_gap_constant", "trace_gram",
    ),
    "slopes": (
        "DiagonalBundle", "NotDiagonalError", "SlopeProfile", "as_diagonal",
        "check_minima_slope_bound", "check_slope_duality", "diagonal_bundle", "diagonal_slopes",
        "dual_diagonal", "line_degree",
    ),
    "transference": (
        "BundleChecks", "TheoremReport", "bundle_digest", "check_all",
        "check_polar_transference", "check_index_comparison", "check_proof_chain",
        "check_sandwich", "fuzz", "random_bundle",
    ),
}

SETUP = """
import sys
import numpy as np
from hermlat import build_field, make_bundle, random_bundle
import hermlat.minima
nf = build_field((1, 1, 1, 1, 1))
random_bundle(nf, 2, np.random.default_rng(1))
print(" ".join(sorted(m for m in sys.modules if m.split(".")[0] == "hermlat")))
"""


def test_setup_loads_only_the_modules_it_uses():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    out = subprocess.run([sys.executable, "-c", SETUP], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.split() == ["hermlat", "hermlat.bundles", "hermlat.exactlinalg",
                           "hermlat.minima", "hermlat.numberfield"]


@pytest.mark.parametrize("module", sorted(EXPORTS))
def test_exports_are_the_submodules_objects(module):
    mod = importlib.import_module(f"hermlat.{module}")
    listed = dir(hermlat)
    for name in EXPORTS[module]:
        assert name in hermlat.__all__
        assert name in listed
        assert getattr(hermlat, name) is getattr(mod, name)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="hermlat"):
        hermlat.no_such_name
    assert not hasattr(hermlat, "no_such_name")


def test_submodule_and_star_imports():
    from hermlat import numberfield

    assert numberfield is sys.modules["hermlat.numberfield"]
    namespace = {}
    exec("from hermlat import *", namespace)
    assert {name for names in EXPORTS.values() for name in names} <= set(namespace)
    assert hermlat.transference.random_bundle is hermlat.bundles.random_bundle


def test_runtime_imports_are_the_declared_dependencies():
    # the third-party modules src/hermlat imports, read from its import
    # statements, against pyproject's [project] dependencies
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((SRC.parent / "pyproject.toml").read_text())
    declared = {re.match(r"[\w.-]+", dep).group() for dep in pyproject["project"]["dependencies"]}
    imported = set()
    for path in (SRC / "hermlat").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported |= {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"hermlat"}
    assert third_party == declared == {"numpy", "sympy"}
