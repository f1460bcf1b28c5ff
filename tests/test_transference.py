import math

import numpy as np
import pytest

from hermlat import (
    BundleChecks,
    TheoremReport,
    as_diagonal,
    build_field,
    bundle_digest,
    check_all,
    check_polar_transference,
    check_index_comparison,
    check_proof_chain,
    check_minima_slope_bound,
    check_sandwich,
    check_slope_duality,
    dual_minima_comparison,
    duality_gap_constant,
    fuzz,
    load_bundle,
    load_field,
    make_bundle,
    random_bundle,
    restrict_scalars,
    trace_dual,
)
from hermlat import bundles
from hermlat.bundles import dual_bundle
from hermlat.reports import render_report
from hermlat.transference import DECLARED

from conftest import FIXDIR, identity_bundle


def test_sandwich_rank1_q_equality(field_q):
    for t in (0.5, 1.0, 4.0):
        b = make_bundle(field_q, 1, [np.array([[t * t]])])
        rep = check_sandwich(b, 1)
        assert rep.verdict == "pass"
        assert abs(rep.get("sum")) <= 1e-9
        assert rep.get("gap_constant") == 0.0


def test_sandwich_gaussian_identity(field_qi):
    rep = check_sandwich(identity_bundle(field_qi), 1)
    assert rep.verdict == "pass"
    assert abs(rep.get("sum")) <= 1e-9
    assert math.isclose(rep.get("gap_constant"), 1.8536501890351085, rel_tol=1e-9)


def test_sandwich_random_sqrt2(field_sqrt2):
    rng = np.random.default_rng(31)
    for _ in range(5):
        b = random_bundle(field_sqrt2, 2, rng)
        ctx = BundleChecks(b)
        for k in (1, 2):
            rep = check_sandwich(ctx, k)
            assert rep.verdict == "pass"
            assert -1e-6 <= rep.get("sum") <= rep.get("gap_constant") + 1e-6


def test_polar_trivial_z(field_q):
    b = make_bundle(field_q, 1, [np.eye(1)])
    rep = check_polar_transference(b, 1)
    assert rep.verdict == "pass"
    assert rep.get("sum") == 0.0
    assert rep.get("bound") == 0.0


def test_polar_gaussian(field_qi):
    rep = check_polar_transference(identity_bundle(field_qi), 1)
    assert rep.verdict == "pass"
    assert rep.get("bound") == pytest.approx(1.5 * math.log(2))
    assert rep.get("sum") <= rep.get("bound") + 1e-6
    assert rep.get("lower_companion") >= -1e-9


def test_polar_diag(field_q):
    b = make_bundle(field_q, 2, [np.diag([4.0, 0.25])])
    ctx = BundleChecks(b)
    rep = check_polar_transference(ctx, 1)
    assert rep.verdict == "pass"
    assert math.isclose(rep.get("lambda_k"), -math.log(2), abs_tol=1e-12)
    assert rep.get("sum") <= 1.5 * math.log(2) + 1e-6


def test_index_comparison_r1_and_edge(field_q, field_qi, field_sqrt2):
    rng = np.random.default_rng(32)
    b = random_bundle(field_q, 2, rng)
    for k in (0, 1):
        assert check_index_comparison(b, k).verdict == "pass"
    b2 = identity_bundle(field_qi, rank=2)
    assert check_index_comparison(b2, 1).verdict == "pass"  # mu_2 <= lambda_3
    b3 = identity_bundle(field_sqrt2)
    assert check_index_comparison(b3, 0).verdict == "pass"  # mu_1 <= lambda_1


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("field", ["q", "gaussian"])
@pytest.mark.parametrize("name", list(DECLARED))
def test_declared_k_range(name, field, n, all_fields):
    # the paper's ranges: sandwich, chain and dual minima 1 <= k <= N,
    # polar transference 1 <= k <= Nr, index comparison 0 <= k <= N-1
    nf = all_fields[field]
    lo, hi = {"polar": (1, n * nf.degree), "index": (0, n - 1)}.get(name, (1, n))
    check, indices, _, _ = DECLARED[name]
    assert indices(n, nf.degree) == range(lo, hi + 1)
    ctx = BundleChecks(identity_bundle(nf, rank=n))
    for k in (lo, hi):
        check(ctx, k)
    for k in (lo - 1, hi + 1):
        with pytest.raises(ValueError):
            check(ctx, k)


@pytest.mark.parametrize("name", list(DECLARED))
def test_reads_names_the_profiles_each_checker_reads(name, field_zeta5):
    # the reads of DECLARED decide whether lambda is computed before mu, so
    # they must name exactly what each checker reads
    check, indices, _, reads = DECLARED[name]
    ctx = BundleChecks(random_bundle(field_zeta5, 2, np.random.default_rng(1)), statements=[name])
    check(ctx, indices(2, 4)[0])
    assert set(ctx._profiles) == set(reads)


SLOPE_CHECKERS = {"minima-slope": check_minima_slope_bound, "slope-duality": check_slope_duality}


@pytest.mark.parametrize("name", [*DECLARED, *SLOPE_CHECKERS])
def test_every_checker_renders_one_report_type(name):
    # every verdict is a TheoremReport, and its document names the statement,
    # the bundle digest, the slack and the verdict
    bundle = load_bundle(FIXDIR / "bundle_diag_4_quarter.json")
    if name in DECLARED:
        check, indices, _, _ = DECLARED[name]
        rep = check(bundle, indices(bundle.rank, bundle.nf.degree)[0])
    else:
        rep = SLOPE_CHECKERS[name](as_diagonal(bundle), 1)
    assert isinstance(rep, TheoremReport)
    assert rep.statement.startswith(f"{name}[") and rep.digest == bundle_digest(bundle)
    doc = render_report(rep)
    for key in ("statement", "digest", "slack", "verdict"):
        assert sum(line.startswith(f"{key}: ") for line in doc) == 1, (key, doc)
    assert "verdict: pass" in doc


def test_mu_reads_lambdas_ball_when_the_run_reads_both(field_zeta5):
    bundle = random_bundle(field_zeta5, 2, np.random.default_rng(1))
    alone = BundleChecks(bundle, statements=["sandwich"]).profile("mu")
    both = BundleChecks(bundle, statements=["sandwich", "polar"])
    mu = both.profile("mu")
    assert "lambda" in both._profiles
    assert alone.nodes < mu.nodes == both.profile("lambda").nodes
    assert (alone.values, alone.radius_used) == (mu.values, mu.radius_used)


def test_index_comparison_bounds(field_qi):
    b = identity_bundle(field_qi)
    with pytest.raises(ValueError):
        check_index_comparison(b, 1)  # k*r+1 = 3 > Nr = 2


def test_proof_chain_q(field_q):
    rng = np.random.default_rng(33)
    b = random_bundle(field_q, 2, rng)
    rep = check_proof_chain(b, 1)
    assert rep.verdict == "pass"
    assert all(link.verdict == "pass" for link in rep.links)


def test_proof_chain_gaussian(field_qi):
    rep = check_proof_chain(identity_bundle(field_qi), 1)
    assert rep.verdict == "pass"
    names = [link.statement for link in rep.links]
    assert any("minkowski" in n for n in names)
    assert any("polar" in n for n in names)


def test_proof_chain_random(field_sqrt2, field_sqrt_minus3):
    rng = np.random.default_rng(34)
    for nf in (field_sqrt2, field_sqrt_minus3):
        b = random_bundle(nf, 2, rng)
        for k in (1, 2):
            rep = check_proof_chain(b, k)
            assert rep.verdict == "pass", [
                (l.statement, l.verdict, l.quantities) for l in rep.links
            ]


def test_dual_transfer_over_a_non_cm_cubic():
    # Q(x^3+x-1): disc -31, one real and one complex place, and complex
    # conjugation is not an automorphism.  The dual bundle's Gram is the
    # conjugate of H^-1; H^-1 itself is the conjugate metric, which over
    # this field moves mu_star and broke L2 on 6 of these 99 links.
    nf = build_field((-1, 1, 0, 1))
    links = 0
    for seed in range(45):
        rng = np.random.default_rng(seed)
        ctx = BundleChecks(random_bundle(nf, int(rng.integers(1, 4)), rng))
        for k in range(1, ctx.bundle.rank + 1):
            (l2,) = [l for l in check_proof_chain(ctx, k).links if ".L2." in l.statement]
            assert l2.verdict == "pass", (seed, k, l2.quantities)
            links += 1
    assert links == 99


def test_uncertified_never_passes(field_qi):
    b = identity_bundle(field_qi, rank=2)
    ctx = BundleChecks(b, budget=3)
    rep = check_sandwich(ctx, 1)
    assert rep.verdict == "uncertified"


def test_exhausted_field_searches_are_uncertified():
    # a freshly loaded field has no memoized transfer or Minkowski vector,
    # so both searches run under the budget (24 nodes each over zeta5)
    nf = load_field(FIXDIR / "field_zeta5.json")
    reports = check_all(random_bundle(nf, 2, np.random.default_rng(1)), budget=3)
    assert reports and all(rep.verdict == "uncertified" for rep in reports)
    # at 20 nodes the sandwich's profiles certify (17 nodes each), the searches do not
    ctx = BundleChecks(identity_bundle(nf), budget=20)
    assert check_sandwich(ctx, 1).verdict == "pass"
    chain = check_proof_chain(ctx, 1)
    assert chain.verdict == "uncertified" and math.isnan(chain.get("transfer_log_norm"))
    dual = dual_minima_comparison(ctx, 1)
    assert dual.verdict == "uncertified"
    assert math.isnan(dual.get("transfer_log_norm")) and math.isnan(dual.get("minkowski_log_norm"))


def test_dual_minima_verdict_ignores_the_minkowski_search(field_zeta5, monkeypatch):
    # the inequality reads mu_star, mu_vee and the transfer vector; the
    # Minkowski vector is only reported alongside
    from hermlat import transference
    from hermlat.minima import BudgetExhausted

    def exhausted(nf, budget):
        raise BudgetExhausted(f"enumeration exceeded budget of {budget} nodes")

    monkeypatch.setattr(transference, "minkowski_codifferent_vector", exhausted)
    dual = dual_minima_comparison(random_bundle(field_zeta5, 2, np.random.default_rng(1)), 1)
    assert dual.verdict == "pass" and math.isnan(dual.get("minkowski_log_norm"))


def test_check_all_counts(field_qi):
    b = identity_bundle(field_qi, rank=2)
    reports = check_all(b)
    # sandwich: 2, polar: 4, index: 2, chain: 2
    assert len(reports) == 10
    assert all(r.verdict == "pass" for r in reports)


def test_check_all_inverts_the_grams_once(field_zeta5, monkeypatch):
    # the dual bundle's lattice (mu_star) and the trace dual share one dual bundle
    calls = []

    def counted(bundle):
        calls.append(bundle)
        return dual_bundle(bundle)

    monkeypatch.setattr(bundles, "dual_bundle", counted)
    bundle = random_bundle(field_zeta5, 2, np.random.default_rng(3))
    ctx = BundleChecks(bundle)
    assert ctx.tdual.source is bundle and ctx.star is not None
    assert calls == [bundle]
    star = restrict_scalars(dual_bundle(bundle))
    assert np.array_equal(ctx.star.forms, star.forms)
    assert np.array_equal(ctx.tdual.forms, trace_dual(bundle).forms)


def test_fuzz_deterministic(field_q, field_qi):
    a = fuzz([field_q, field_qi], 2, 6, seed=99)
    b = fuzz([field_q, field_qi], 2, 6, seed=99)
    ta = "\n".join("\n".join(render_report(r)) for r in a)
    tb = "\n".join("\n".join(render_report(r)) for r in b)
    assert ta == tb
    c = fuzz([field_q, field_qi], 2, 6, seed=100)
    tc = "\n".join("\n".join(render_report(r)) for r in c)
    assert ta != tc


def test_fuzz_gram_dump_rebuilds_the_trial(field_zeta5):
    # zeta5's chain link L3 fails, so its reports carry the reproduction data;
    # the dumped Grams must be the drawn ones, bit for bit
    reports = fuzz([field_zeta5], 1, 3, seed=1)
    failed = [rep for rep in reports if rep.verdict == "fail"]
    assert len(failed) == 3
    rng = np.random.default_rng(1)
    drawn = []
    for _ in range(3):
        rank = int(rng.integers(1, 2))
        drawn.append(random_bundle(field_zeta5, rank, rng))
    for rep in failed:
        lines = render_report(rep)
        trial = int(next(ln for ln in lines if ln.startswith("repro trial: ")).split(": ")[1])
        dump = next(ln for ln in lines if ln.startswith("repro gram_dump: ")).split(": ")[1]
        for s, part in enumerate(dump.split("|")):
            index, _, flat = part.partition(":")
            assert int(index) == s
            values = [complex(float(re), float(im)) for re, im in (z.split(",") for z in flat.split(";"))]
            gram = np.asarray(drawn[trial].grams[s], dtype=complex).ravel()
            assert [(z.real.hex(), z.imag.hex()) for z in values] == [
                (z.real.hex(), z.imag.hex()) for z in gram.tolist()
            ]


def test_fuzz_all_pass(field_sqrt_minus3):
    reports = fuzz([field_sqrt_minus3], 2, 10, seed=5)
    assert reports and all(r.verdict == "pass" for r in reports)


def test_fuzz_desk_scale_guard(field_zeta5):
    with pytest.raises(ValueError):
        fuzz([field_zeta5], 4, 1, seed=1)  # N*r = 16 > 12


def test_fuzz_arguments_validated(field_q):
    with pytest.raises(ValueError, match="at least one field"):
        fuzz([], 1, 1, seed=0)
    with pytest.raises(ValueError, match="rank_max must be at least 1"):
        fuzz([field_q], 0, 1, seed=0)
    with pytest.raises(ValueError, match="trials must be non-negative"):
        fuzz([field_q], 1, -1, seed=0)
    assert fuzz([field_q], 1, 0, seed=0) == []


def test_fuzz_at_desk_scale_limit(field_qi, field_sqrt2):
    # rank_max 6 over degree-2 fields (N*r up to 12) is within the guard;
    # seed 5 draws two rank-5 bundles, N*r = 10
    reports = fuzz([field_qi, field_sqrt2], 6, 4, seed=5)
    assert reports and all(r.verdict == "pass" for r in reports)


def test_zeta5_chain_transfer_radius_gap(field_zeta5):
    # Over the degree-4 cyclotomic field the different has no element
    # balanced enough to meet the closed-form radius of the transfer step:
    # the shortest duality-metric vector has sup log-norm log(5/(2*2*sin(pi/5)))
    # ~ 0.7545 > 0.6347 = (1/4)log(125) - (1/2)log(pi).  The chain checker
    # must surface exactly that link; every other statement passes, and the
    # assembled sandwich itself still holds.
    reports = fuzz([field_zeta5], 1, 1, seed=1)
    for rep in reports:
        if rep.statement.startswith("chain"):
            assert rep.verdict == "fail"
            for link in rep.links:
                if "minkowski" in link.statement:
                    assert link.verdict == "fail"
                    assert math.isclose(link.get("lhs"), 0.7545371662954315, abs_tol=1e-9)
                else:
                    assert link.verdict == "pass", link.statement
        else:
            assert rep.verdict == "pass", rep.statement


def test_random_bundle_conditioning(field_qi):
    rng = np.random.default_rng(35)
    for _ in range(10):
        b = random_bundle(field_qi, 2, rng)
        for h in b.grams:
            assert np.linalg.cond(h) <= 1e3


def test_gap_constant_assembles_from_chain_terms(all_fields):
    # C(N, F) must assemble exactly as (3/2)log(Nr) + log r + (1/r)log|disc|
    # - (r2/r)log(pi) + (3/2)log N - (3/2) log(N r) ... i.e. the chain total
    for nf in all_fields.values():
        for n in (1, 2, 3):
            lhs = duality_gap_constant(n, nf)
            r = nf.degree
            rhs = (
                1.5 * math.log(n * r)
                + math.log(r)
                + math.log(abs(nf.discriminant)) / r
                - nf.r2 / r * math.log(math.pi)
            )
            assert math.isclose(lhs, rhs, rel_tol=1e-12, abs_tol=1e-12)
