"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with:  pytest tests/test_acceptance.py -v -s

Criteria (run at the stated tolerances, nothing deferred):
  1. duality sandwich on >= 200 seeded random bundles, four fields, all k
  2. polar transference bound on the same corpus
  3. independence-index comparison on the same corpus
  4. enumeration minima == exhaustive box-oracle minima on small fixtures
  5. duality identities per field (biorthogonality, covolume, isometry,
     guaranteed short codifferent vector)
  6. slope identities on random diagonal bundles
  7. closed-form bound evaluators against independent substitution
  8. byte-identical reports for identical seeds
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from hermlat import (
    BundleChecks,
    check_polar_transference,
    check_minima_slope_bound,
    check_index_comparison,
    check_slope_duality,
    check_sandwich,
    codifferent_covolume,
    binomial_sum_constant,
    CurveInvariants,
    diagonal_bundle,
    fuzz,
    make_bundle,
    minkowski_codifferent_bound,
    minkowski_codifferent_vector,
    random_bundle,
    restrict_scalars,
    shipped_field,
    successive_minima,
    height_lower_bounds,
    height_upper_bounds,
    trace_dual,
    trace_module,
)
from hermlat.reports import render_report
from hermlat.transference import random_bundle as _random_bundle

from conftest import identity_bundle
from test_minima import box_oracle

CORPUS_FIELDS = ("q", "gaussian", "sqrt2", "sqrt_minus3")
CORPUS_SEED = 20260808
CORPUS_TRIALS = 208  # >= 200, multiple of the field count


def _report(criterion: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


@pytest.fixture(scope="module")
def corpus():
    """Seeded random bundle corpus with shared per-bundle check contexts."""
    rng = np.random.default_rng(CORPUS_SEED)
    t0 = time.time()
    contexts = []
    for trial in range(CORPUS_TRIALS):
        nf = shipped_field(CORPUS_FIELDS[trial % len(CORPUS_FIELDS)])
        rank_cap = min(3, 6 // nf.degree)  # N <= 3 and N*r <= 6
        rank = int(rng.integers(1, rank_cap + 1))
        contexts.append(BundleChecks(_random_bundle(nf, rank, rng)))
    return contexts, t0


def test_criterion_1_duality_sandwich(corpus):
    contexts, t0 = corpus
    certified = 0
    ok = True
    for ctx in contexts:
        n = ctx.bundle.rank
        for k in range(1, n + 1):
            rep = check_sandwich(ctx, k)
            if rep.verdict == "uncertified":
                continue
            certified += 1
            if rep.verdict != "pass":
                ok = False
    elapsed = time.time() - t0
    ok = ok and certified >= 200 and elapsed <= 300
    _report(
        1,
        ok,
        f"sandwich 0 <= mu_k + mu_dual <= C(N,F) on {certified} certified checks "
        f"from {len(contexts)} bundles in {elapsed:.1f}s",
    )


def test_criterion_2_polar_transference(corpus):
    contexts, _ = corpus
    checked = 0
    ok = True
    for ctx in contexts:
        nr = ctx.bundle.rank * ctx.nf.degree
        for k in range(1, nr + 1):
            rep = check_polar_transference(ctx, k)
            checked += 1
            if rep.verdict != "pass":
                ok = False
    _report(2, ok, f"lambda_k + lambda_vee <= (3/2)log(Nr) + 1e-6 on {checked} checks")


def test_criterion_3_index_comparison(corpus):
    contexts, _ = corpus
    checked = 0
    ok = True
    for ctx in contexts:
        for k in range(0, ctx.bundle.rank):
            rep = check_index_comparison(ctx, k)
            checked += 1
            if rep.verdict != "pass":
                ok = False
    _report(3, ok, f"mu_(k+1) <= lambda_(kr+1) + 1e-9 on {checked} checks")


def test_criterion_4_oracle_equivalence():
    rng = np.random.default_rng(99)
    q = shipped_field("q")
    qi = shipped_field("gaussian")
    s2 = shipped_field("sqrt2")
    sm3 = shipped_field("sqrt_minus3")
    bundles = [
        make_bundle(q, 2, [np.eye(2)]),
        make_bundle(q, 2, [np.diag([4.0, 0.25])]),
        identity_bundle(qi),
        identity_bundle(s2),
        identity_bundle(sm3, rank=2),
        _random_bundle(qi, 2, rng),
        _random_bundle(s2, 2, rng),
        _random_bundle(q, 3, rng),
    ]
    checked = 0
    ok = True
    for bundle in bundles:
        lat = restrict_scalars(bundle)
        assert lat.z_rank <= 6
        for norm in ("sup", "sum"):
            for mode, count in (("f-rank", bundle.rank), ("q-rank", lat.z_rank)):
                prof = successive_minima(lat, count, mode, norm)
                values, _ = box_oracle(lat, count, mode, norm)
                checked += 1
                if not prof.certified:
                    ok = False
                if any(abs(a - b) > 1e-9 for a, b in zip(prof.values, values)):
                    ok = False
    _report(4, ok, f"enumeration == box oracle on {checked} (lattice, mode, norm) profiles")


def test_criterion_5_duality_identities(all_fields):
    rng = np.random.default_rng(55)
    ok = True
    details = []
    for name, nf in all_fields.items():
        tm = trace_module(nf)
        bior = all(
            (b * c).trace() == Fraction(int(i == j))
            for i, b in enumerate(nf.integral_basis)
            for j, c in enumerate(tm.codifferent_basis)
        )
        covol_gap = abs(
            codifferent_covolume(nf)
            - (math.log(abs(nf.discriminant)) - 2 * nf.r2 * math.log(2))
        )
        rank = 1 if nf.degree > 2 else 2
        td = trace_dual(_random_bundle(nf, rank, rng))
        iso_gap = 0.0
        for _ in range(100):
            z = tuple(int(c) for c in rng.integers(-10, 10, td.z_rank))
            direct = td.sigma_norms(np.array(z))
            for s in range(nf.degree):
                iso_gap = max(iso_gap, abs(direct[s] - td.sigma_norm_via_alpha(z, s)))
        v, lg = minkowski_codifferent_vector(nf)
        mink_ok = (not v.is_zero()) and lg <= minkowski_codifferent_bound(nf) + 1e-9
        field_ok = bior and covol_gap <= 1e-9 and iso_gap <= 1e-9 and mink_ok
        ok = ok and field_ok
        details.append(f"{name}:{'ok' if field_ok else 'FAIL'}")
    _report(5, ok, "biorthogonality/covolume/isometry/minkowski per field " + " ".join(details))


def test_criterion_6_slope_identities():
    rng = np.random.default_rng(66)
    ok = True
    checked = 0
    for name in CORPUS_FIELDS:
        nf = shipped_field(name)
        for _ in range(50):
            n_lines = int(rng.integers(1, 4 if nf.degree == 1 else 3))
            scales = []
            for _ in range(n_lines):
                reps = {}
                line = [0.0] * nf.degree
                for s in range(nf.degree):
                    sbar = nf.conj_index[s]
                    if sbar in reps:
                        line[s] = reps[sbar]
                    else:
                        line[s] = math.exp(rng.uniform(-1.0, 1.0))
                        reps[s] = line[s]
                scales.append(line)
            diag = diagonal_bundle(nf, scales)
            for k in range(1, n_lines + 1):
                slope_rep = check_minima_slope_bound(diag, k)
                dualty = check_slope_duality(diag, k)
                checked += 1
                if not (slope_rep.passed and slope_rep.get("sum") >= -1e-9):
                    ok = False
                if not (dualty.passed and abs(dualty.get("sum")) <= 1e-10):
                    ok = False
    _report(6, ok, f"minima+slope >= -1e-9 and slope duality == 0 (1e-10) on {checked} checks")


def test_criterion_7_bound_formulas():
    ok = True
    # 100 (m, g) pairs at k = 1
    pairs = [(m, g) for m in range(1, 21) for g in range(0, 5)]
    assert len(pairs) == 100
    ok = ok and all(binomial_sum_constant(m, 1, g) == 1 for m, g in pairs)
    # independent binomial-sum oracle for the worked value
    from test_heights import _oracle_d

    ok = ok and binomial_sum_constant(10, 2, 2) == 144 == _oracle_d(10, 2, 2)
    inv = CurveInvariants(g=2, r=1, log_disc=0.0, omega_sq=1.0, residual_c=0.0)
    la, lb = height_lower_bounds(inv, 5)
    ua, ub = height_upper_bounds(inv, 5)
    worked = (
        abs(la - 0.19643) < 1e-5
        and abs(lb - 0.16667) < 1e-5
        and abs(ua - 0.30357) < 1e-5
        and abs(ub - 0.33333) < 1e-5
    )
    ok = ok and worked
    # convergence and ordering on the geometric grid
    limit = 0.25
    big = 10**8
    la8, lb8 = height_lower_bounds(inv, big)
    ua8, ub8 = height_upper_bounds(inv, big)
    ok = ok and all(abs(v - limit) <= 1e-6 for v in (la8, lb8, ua8, ub8))
    for d in (10**e for e in range(1, 9)):
        if d >= 2 * inv.g + 1:
            la_d, lb_d = height_lower_bounds(inv, d)
            ua_d, ub_d = height_upper_bounds(inv, d)
            if max(la_d, lb_d) > min(ua_d, ub_d):
                ok = False
    _report(7, ok, "D(m,1,g)=1 x100, D(10,2,2)=144, worked d=5 values, limit/ordering on grid")


def test_criterion_8_determinism():
    fields = [shipped_field(n) for n in ("q", "gaussian")]
    runs = []
    for _ in range(2):
        reports = fuzz(fields, 2, 5, seed=31337)
        runs.append("\n".join("\n".join(render_report(r)) for r in reports))
    ok = runs[0] == runs[1] and len(runs[0]) > 0
    _report(8, ok, f"two identical-seed fuzz runs rendered to {len(runs[0])} identical bytes")
