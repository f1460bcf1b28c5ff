"""Minima engine tests, anchored by an independent exhaustive box oracle.

The oracle enumerates every integer point of a box that provably contains
the relevant norm ball (coordinate bounds from the diagonal of the inverse
Euclidean Gram), aggregates norms directly from the per-embedding forms,
and measures independence with sympy rank computations -- F-independence
via the classical expansion rank_F {v_i} = rank_Q {theta^j v_i} / r -- so
no code path is shared with the enumeration engine it checks.
"""

import functools
import gc
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.matrices import DomainMatrix

from hermlat import (
    DEFAULT_BUDGET,
    BudgetExhausted,
    BundleVector,
    build_field,
    enumerate_below,
    exact_rank,
    make_bundle,
    restrict_scalars,
    shipped_field,
    shipped_field_names,
    successive_minima,
    trace_dual,
    vector_from_f_coords,
)
from hermlat import exactlinalg as xl
from hermlat import minima
from hermlat.bundles import NormedLattice
from hermlat.minima import enumerate_ellipsoid, lll_transform

from conftest import identity_bundle


# -- independent oracle -------------------------------------------------------


def _box_points(bounds, chunk=1 << 16):
    """The nonzero points of the box prod_i [-b_i, b_i] up to sign (highest
    nonzero coordinate positive), as int64 arrays of at most ``chunk`` rows."""
    shape = [2 * b + 1 for b in bounds]
    total = math.prod(shape)
    for start in range(0, total, chunk):
        index = np.unravel_index(np.arange(start, min(start + chunk, total)), shape)
        points = np.stack(index, axis=1) - np.array(bounds, dtype=np.int64)
        nonzero = points != 0
        last = points.shape[1] - 1 - np.argmax(nonzero[:, ::-1], axis=1)
        yield points[nonzero.any(axis=1) & (points[np.arange(len(points)), last] > 0)]


def _canonical(z):
    for c in reversed(z):
        if c:
            return tuple(z) if c > 0 else tuple(-v for v in z)
    return tuple(z)


def _sympy_q_rank(rows):
    rows = [[int(c) for c in row] for row in rows]
    return DomainMatrix.from_list(rows, ZZ).rank() if rows else 0


def _theta_multiples(lattice, zs):
    """Power-basis coordinates of theta^j v (j < r) for each module vector v,
    every row scaled to integers; their Q-span is the F-span of the v."""
    nf = lattice.nf
    theta = nf.theta()
    expanded = []
    for z in zs:
        mult = list(lattice.f_components(z))
        for _ in range(nf.degree):
            row = [c for x in mult for c in x.coords]
            d = math.lcm(*(c.denominator for c in row))
            expanded.append([int(c * d) for c in row])
            mult = [theta * x for x in mult]
    return expanded


def _sympy_f_rank(lattice, zs):
    """rank_F of module vectors via rank_Q of their theta-multiples."""
    return _sympy_q_rank(_theta_multiples(lattice, zs)) // lattice.nf.degree


def box_oracle(lattice, count, mode, norm):
    """Successive minima by exhaustive box search.

    Returns (values, attain_counts): log-minima and, per minimum, the number
    of enumerated vectors (up to sign) attaining it within 1e-9.
    """
    bound = min(
        max(lattice.sigma_norms(e)) if norm == "sup" else sum(lattice.sigma_norms(e))
        for e in np.eye(lattice.z_rank, dtype=np.int64)
    )
    while True:
        radius_sq = (
            lattice.n_embeddings * bound * bound if norm == "sup" else bound * bound
        )
        ginv = np.linalg.inv(lattice.euclid_gram)
        box = [
            int(math.floor(math.sqrt(radius_sq * ginv[i, i] * (1 + 1e-9)))) + 1
            for i in range(lattice.z_rank)
        ]
        seen = {}
        for zs in _box_points(box):
            sq = np.einsum("mi,sij,mj->ms", zs.astype(float), lattice.forms, zs.astype(float))
            norms = np.sqrt(np.maximum(sq, 0.0))
            values = norms.max(axis=1) if norm == "sup" else norms.sum(axis=1)
            inside = values <= bound * (1 + 1e-9)
            seen.update(
                (tuple(int(c) for c in z), float(v)) for z, v in zip(zs[inside], values[inside])
            )
        ordered = sorted(seen.items(), key=lambda kv: (kv[1], kv[0]))
        chosen = []
        for key, value in ordered:
            trial = chosen + [key]
            rank = (
                _sympy_q_rank(trial)
                if mode == "q-rank"
                else _sympy_f_rank(lattice, trial)
            )
            if rank == len(trial):
                chosen.append(key)
                if len(chosen) == count:
                    break
        if len(chosen) == count and seen[chosen[-1]] <= bound:
            values = [math.log(seen[key]) for key in chosen]
            counts = [
                sum(1 for v in seen.values() if abs(v - seen[key]) <= 1e-9)
                for key in chosen
            ]
            return values, counts
        bound *= 2


# -- spec examples ------------------------------------------------------------


def test_standard_z2_sup(field_q):
    lat = restrict_scalars(make_bundle(field_q, 2, [np.eye(2)]))
    prof = successive_minima(lat, 2, "f-rank", "sup")
    assert prof.certified
    assert prof.values == (0.0, 0.0)
    assert {w.z_coords for w in prof.witnesses} == {(1, 0), (0, 1)}


def test_diag_4_quarter_sup(field_q):
    lat = restrict_scalars(make_bundle(field_q, 2, [np.diag([4.0, 0.25])]))
    prof = successive_minima(lat, 2, "f-rank", "sup")
    assert math.isclose(prof.values[0], -math.log(2), abs_tol=1e-12)
    assert math.isclose(prof.values[1], math.log(2), abs_tol=1e-12)


def test_enumerate_below_z2(field_q):
    lat = restrict_scalars(make_bundle(field_q, 2, [np.eye(2)]))
    assert {v.z_coords for v in enumerate_below(lat, "sup", 1.0)} == {(1, 0), (0, 1)}
    assert {v.z_coords for v in enumerate_below(lat, "sup", 1.5)} == {
        (1, 0),
        (0, 1),
        (1, 1),
        (-1, 1),
    }


def test_enumerate_below_gaussian_sum(field_qi):
    lat = restrict_scalars(identity_bundle(field_qi))
    hits = {v.z_coords for v in enumerate_below(lat, "sum", 2.1)}
    assert hits == {(1, 0), (0, 1)}


def test_exact_rank_examples(field_q, field_qi):
    b = make_bundle(field_q, 2, [np.eye(2)])
    vs = [BundleVector(b, (1, 0)), BundleVector(b, (0, 1))]
    assert exact_rank(vs, "q-rank") == 2

    bg = identity_bundle(field_qi)
    one = BundleVector(bg, (1, 0))
    i_vec = BundleVector(bg, (0, 1))
    assert exact_rank([one, i_vec], "q-rank") == 2
    assert exact_rank([one, i_vec], "f-rank") == 1


def eisenstein_field():
    """x^2 + 3 with the supplied basis {1, (1 + theta)/2}: the only test field
    whose integral basis is not the power basis."""
    return build_field([3, 0, 1], integral_basis=[[1, 0], ["1/2", "1/2"]])


def test_exact_rank_bound(field_sqrt2, all_fields):
    rng = np.random.default_rng(3)
    b = identity_bundle(field_sqrt2, rank=2)
    for _ in range(20):
        vs = [BundleVector(b, tuple(rng.integers(-5, 5, 4))) for _ in range(3)]
        assert exact_rank(vs, "f-rank") <= 2
    # against the sympy oracle, on random and on deliberately F-dependent
    # families {v, theta*v + w, w}
    for nf in [*all_fields.values(), eisenstein_field()]:
        bundle = identity_bundle(nf, rank=2)
        lat = restrict_scalars(bundle)
        theta = nf.theta()
        for _ in range(8):
            v, w, u = (
                BundleVector(bundle, tuple(int(c) for c in rng.integers(-3, 4, lat.z_rank)))
                for _ in range(3)
            )
            tvw = vector_from_f_coords(
                bundle, [theta * x + y for x, y in zip(v.f_coords, w.f_coords)]
            )
            for family in ([v, w, u], [v, tvw, w], [tvw, v], [v, v, u], [u, w, tvw, v]):
                zs = [x.z_coords for x in family]
                assert exact_rank(family, "q-rank") == _sympy_q_rank(zs)
                assert exact_rank(family, "f-rank") == _sympy_f_rank(lat, zs)


@st.composite
def rank_families(draw):
    """(lattice or None, family): integer vectors of length at most 24 with
    entries up to 10^6, each drawn fresh or built as a * v + b * theta^e w
    from two earlier members (e = 0 without a field), so that families
    carry Q- and F-dependencies with large coefficients."""
    big = st.integers(-(10**6), 10**6)
    name = draw(st.sampled_from([None, *shipped_field_names(), "eis"]))
    if name is None:
        lat, r = None, 1
        dim = n = draw(st.integers(1, 24))
    else:
        nf = eisenstein_field() if name == "eis" else shipped_field(name)
        r = nf.degree
        dim = draw(st.integers(1, 24 // r))
        bundle = identity_bundle(nf, dim)
        lat = restrict_scalars(bundle)
        n = lat.z_rank
    family = []
    for _ in range(draw(st.integers(1, dim + 3))):
        if family and draw(st.booleans()):
            v, w = draw(st.sampled_from(family)), draw(st.sampled_from(family))
            a, b = draw(big), draw(big)
            e = draw(st.integers(0, r - 1))
            if e:
                comps = lat.f_components(w)
                for _ in range(e):
                    comps = [nf.theta() * x for x in comps]
                w = vector_from_f_coords(bundle, comps).z_coords
            family.append(tuple(a * x + b * y for x, y in zip(v, w)))
        else:
            family.append(tuple(draw(st.lists(big, min_size=n, max_size=n))))
    return lat, family


@given(rank_families())
@settings(max_examples=60, deadline=None)
def test_rank_tracker_matches_sympy(case):
    # every accept/reject decision, with and without the theta-action,
    # against sympy's rank of the family's prefixes (their theta-multiples
    # over a field)
    lat, family = case
    tracker = minima._RankTracker(None if lat is None else lat.theta_action)
    rows, rank = [], 0
    for z in family:
        rows += [z] if lat is None else _theta_multiples(lat, [z])
        new_rank = _sympy_q_rank(rows)
        assert tracker.try_extend(z) == (new_rank > rank)
        rank = new_rank


# -- oracle equivalence -------------------------------------------------------


def oracle_fixture_lattices():
    from hermlat import shipped_field
    from hermlat.transference import random_bundle

    q = shipped_field("q")
    qi = shipped_field("gaussian")
    s2 = shipped_field("sqrt2")
    sm3 = shipped_field("sqrt_minus3")
    rng = np.random.default_rng(1234)
    cases = [
        ("z2", make_bundle(q, 2, [np.eye(2)])),
        ("diag", make_bundle(q, 2, [np.diag([4.0, 0.25])])),
        ("gauss1", identity_bundle(qi)),
        ("sqrt2-1", identity_bundle(s2)),
        ("sm3-2", random_bundle(sm3, 2, rng)),
        ("gauss2", random_bundle(qi, 2, rng)),
        ("q3", random_bundle(q, 3, rng)),
    ]
    eis = eisenstein_field()
    cases += [("eis1", random_bundle(eis, 1, rng)), ("eis2", random_bundle(eis, 2, rng))]
    return cases


@functools.cache
def mixed_cubic_field():
    """x^3 - 2: one real and one complex place."""
    return build_field([-2, 0, 0, 1])


def signature_fixture_lattices():
    """Cubic fields of both signatures: x^3 - 2 (one real and one complex
    place, so the sum norm's search keeps the ellipsoid {Q <= b^2}) and
    the totally real x^3 - 3x + 1.  The metrics are
    well conditioned, which keeps the oracle's six-dimensional boxes small."""
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(4321)
    mixed, real = mixed_cubic_field(), build_field([1, -3, 0, 1])
    return [
        (f"{name}{rank}", random_bundle(nf, rank, rng, cond_max=3.0))
        for name, nf in (("x3-2-", mixed), ("real3-", real))
        for rank in (1, 2)
    ]


def place_fixture_lattices():
    """Bundles over fields of two or more places, whose sum-norm searches
    are pruned by place: sqrt2, the totally real x^3 - x^2 - 2x + 1, the
    mixed x^3 + x + 1 (one real and one complex place) and zeta5 (two
    complex places), ranks 1-3.  The metrics are well conditioned, which
    keeps the oracle's boxes small."""
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(2468)
    fields = (
        ("sqrt2-", shipped_field("sqrt2")),
        ("real3-", build_field([1, -2, -1, 1])),
        ("x3+x+1-", build_field([1, 1, 0, 1])),
        ("zeta5-", shipped_field("zeta5")),
    )
    return [
        (f"{name}{rank}", random_bundle(nf, rank, rng, cond_max=3.0 if rank < 3 else 10.0))
        for name, nf in fields
        for rank in (1, 2, 3)
    ]


def skewed_bundle(bundle, rng):
    """The bundle in the module basis U e_j, for a unimodular integer U with
    entries up to about 100: its restricted lattice is isometric to the
    original's, in coordinates far from reduced."""
    n = bundle.rank
    lower = np.tril(rng.integers(-9, 10, (n, n)), -1) + np.eye(n, dtype=np.int64)
    upper = np.triu(rng.integers(-9, 10, (n, n)), 1) + np.eye(n, dtype=np.int64)
    u = lower @ upper
    return make_bundle(bundle.nf, n, [u.T @ h @ u for h in bundle.grams])


def assert_matches_oracle(lat, count, mode, norm, oracle_lat=None):
    """Engine minima and attaining-vector counts on ``lat`` equal the box
    oracle's on ``oracle_lat`` (an isometric lattice, ``lat`` by default)."""
    prof = successive_minima(lat, count, mode, norm)
    assert prof.certified
    values, counts = box_oracle(oracle_lat or lat, count, mode, norm)
    assert len(prof.values) == len(values)
    for a, b in zip(prof.values, values):
        assert abs(a - b) <= 1e-9
    # counts of attaining vectors: engine side recomputed via enumerate_below
    for i, value in enumerate(prof.values):
        radius = math.exp(value)
        vectors = enumerate_below(lat, norm, radius * (1 + 1e-10))
        assert all(_canonical(v.z_coords) == v.z_coords for v in vectors)
        engine_count = sum(
            1 for v in vectors if abs(_agg(lat, v.z_coords, norm) - radius) <= 1e-9
        )
        assert engine_count == counts[i]


@pytest.mark.parametrize("name,bundle", oracle_fixture_lattices() + signature_fixture_lattices())
@pytest.mark.parametrize("norm", ["sup", "sum"])
def test_oracle_equivalence(name, bundle, norm):
    lat = restrict_scalars(bundle)
    for mode, count in (("f-rank", bundle.rank), ("q-rank", lat.z_rank)):
        assert_matches_oracle(lat, count, mode, norm)


@pytest.mark.parametrize(
    "name,bundle",
    [c for c in oracle_fixture_lattices() + signature_fixture_lattices() if c[1].rank >= 2],
)
@pytest.mark.parametrize("norm", ["sup", "sum"])
def test_oracle_equivalence_skewed(name, bundle, norm):
    # the oracle's box grows with the skew, so it runs on the isometric
    # unskewed lattice
    lat = restrict_scalars(skewed_bundle(bundle, np.random.default_rng(5)))
    assert not np.array_equal(lll_transform(lat.euclid_gram), np.eye(lat.z_rank))
    for mode, count in (("f-rank", bundle.rank), ("q-rank", lat.z_rank)):
        assert_matches_oracle(lat, count, mode, norm, restrict_scalars(bundle))


@pytest.mark.parametrize("name,bundle", oracle_fixture_lattices() + signature_fixture_lattices())
def test_oracle_equivalence_trace_dual(name, bundle):
    dual = trace_dual(bundle)
    assert_matches_oracle(dual, dual.z_rank, "q-rank", "sum")
    assert_matches_oracle(dual.weighted(), bundle.rank, "f-rank", "sup")


# the largest rank at which the box oracle's box stays small: above it the
# box of the real cubic and of zeta5 holds 10^8 points or more
PLACE_ORACLE_RANK = {"sqrt2-": 3, "real3-": 2, "x3+x+1-": 2, "zeta5-": 1}


@pytest.mark.parametrize("name,bundle", place_fixture_lattices())
def test_oracle_equivalence_pruned_by_place(monkeypatch, name, bundle):
    # the primal lattice and the trace dual (the lambda_vee search), every
    # search pruned however small; above the oracle's rank the reference is
    # the search without the place test, which the oracle checks below it:
    # the pruned ball holds every point of the unpruned one, so values,
    # witnesses and radii are the same bits
    monkeypatch.setattr(minima, "_PLACE_POINTS", 0)
    for build in (restrict_scalars, trace_dual):
        lat = build(bundle)
        assert len(lat.places) > 1
        for mode, count in (("f-rank", bundle.rank), ("q-rank", lat.z_rank)):
            if bundle.rank <= PLACE_ORACLE_RANK[name.rstrip("123")]:
                assert_matches_oracle(lat, count, mode, "sum")
                continue
            pruned = successive_minima(lat, count, mode, "sum")
            with monkeypatch.context() as m:
                m.setattr(minima, "_PLACE_POINTS", math.inf)
                whole = successive_minima(build(bundle), count, mode, "sum")
            assert pruned.certified and whole.certified
            assert pruned.nodes < whole.nodes
            assert pruned.values == whole.values and pruned.radius_used == whole.radius_used
            assert [w.z_coords for w in pruned.witnesses] == [w.z_coords for w in whole.witnesses]


def sum_ball_in_euclidean_ellipsoid(lat, bound):
    """The sum ball of radius ``bound`` (with the engine's tolerance), cut out
    of {Q <= bound^2}: sum_s |x|_s <= b implies Q(x) <= b^2 over any field.
    That containment ignores places, so it cross-checks the engine's
    place-aware one."""
    t = lll_transform(lat.euclid_gram)
    ys, _ = enumerate_ellipsoid(t.T @ lat.euclid_gram @ t, bound * bound, DEFAULT_BUDGET)
    return {
        _canonical(tuple(int(c) for c in z))
        for z in ys @ t.T
        if _agg(lat, z, "sum") <= bound * (1 + minima.TOL)
    }


def test_sum_norm_radius_factor(field_qi, field_zeta5):
    from hermlat.duality import codifferent_lattice, ideal_lattice, trace_module

    factor = minima._radius_sq_factor
    assert factor(restrict_scalars(identity_bundle(mixed_cubic_field())), "sum") == 1.0
    assert factor(trace_dual(identity_bundle(field_zeta5, 2)), "sum") == 0.5
    assert factor(codifferent_lattice(field_zeta5), "sup") == 4.0
    # norms that are not conjugation invariant leave an embedding unpaired,
    # so the search keeps {Q <= b^2} and stays complete
    assert field_zeta5.conj_index == (1, 0, 3, 2)
    codiff = trace_module(field_zeta5).codifferent_basis
    for lat in (
        ideal_lattice(field_zeta5, codiff, [1.5, 1.0, 1.0, 1.0]),
        ideal_lattice(field_qi, field_qi.integral_basis, [1.0, 2.0]),
    ):
        assert factor(lat, "sum") == 1.0
        prof = successive_minima(lat, lat.z_rank, "q-rank", "sum")
        values, _ = box_oracle(lat, lat.z_rank, "q-rank", "sum")
        assert prof.certified
        assert np.allclose(prof.values, values, rtol=0, atol=1e-9)


def test_sum_ball_on_the_ellipsoid_boundary(field_qi):
    # over Q(i) one complex place carries both embeddings, so 2Q(x) equals
    # (sum_s |x|_s)^2 and the sum ball's boundary points lie on the boundary
    # of the ellipsoid {2Q <= b^2} the search runs in
    from hermlat.transference import BundleChecks, random_bundle

    ctx = BundleChecks(random_bundle(field_qi, 8, np.random.default_rng(1)))
    prof = ctx.profile("lambda_vee")
    lat, bound = ctx.tdual, prof.radius_used
    assert prof.certified
    ball = {v.z_coords for v in enumerate_below(lat, "sum", bound)}
    assert ball == sum_ball_in_euclidean_ellipsoid(lat, bound)
    edge = max(2 * (z @ lat.euclid_gram @ z) / bound**2 for z in np.array(sorted(ball), dtype=float))
    assert abs(edge - 1) <= 1e-12
    # the search's ellipsoid has the norm filter's tolerance: a bound just
    # below these points' norm still finds them
    inside = {z for z in ball if _agg(lat, z, "sum") <= bound}
    assert inside <= {v.z_coords for v in enumerate_below(lat, "sum", bound / (1 + minima.TOL / 2))}


@given(
    name=st.sampled_from(["gaussian", "zeta5", "x3-2"]),
    rank=st.integers(1, 2),
    seed=st.integers(0, 2**32 - 1),
    dual=st.booleans(),
    scale=st.floats(1.0, 1.5),
)
@settings(max_examples=30, deadline=None)
def test_sum_ball_matches_euclidean_containment(name, rank, seed, dual, scale):
    from hermlat import shipped_field
    from hermlat.transference import random_bundle

    nf = mixed_cubic_field() if name == "x3-2" else shipped_field(name)
    bundle = random_bundle(nf, rank, np.random.default_rng(seed))
    lat = trace_dual(bundle) if dual else restrict_scalars(bundle)
    shortest = min(_agg(lat, z, "sum") for z in lll_transform(lat.euclid_gram).T)
    bound = scale * shortest
    ball = {v.z_coords for v in enumerate_below(lat, "sum", bound)}
    assert ball == sum_ball_in_euclidean_ellipsoid(lat, bound)


def lll_test_grams():
    from hermlat import shipped_field
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(6)
    # shipped fields only: the reduction sees nothing but the Gram, and the
    # parameter ids stay those of the original cases
    grams = [
        (name, restrict_scalars(skewed_bundle(b, rng)).euclid_gram)
        for name, b in oracle_fixture_lattices()
        if b.rank >= 2 and b.nf.power_basis_order
    ]
    zeta5 = random_bundle(shipped_field("zeta5"), 2, np.random.default_rng(1))
    grams.append(("zeta5-2-dual", trace_dual(zeta5).euclid_gram))
    return grams


def assert_lll_reduced(gram, t):
    """T is an integer unimodular matrix and T^T G T is LLL-reduced, judged
    on Gram-Schmidt data taken independently from its Cholesky factor."""
    assert t.dtype.kind == "i"
    assert abs(xl.det(xl.mat(t.tolist()))) == 1
    # mu_kj = R[j, k] / R[j, j], B_k = R[k, k]^2
    r = np.linalg.cholesky(t.T @ gram @ t).T
    mu = r / np.diag(r)[:, None]
    b = np.diag(r) ** 2
    for k in range(1, len(gram)):
        assert np.all(np.abs(mu[:k, k]) <= 0.5 + 1e-9)
        assert b[k] >= (0.99 - mu[k - 1, k] ** 2) * b[k - 1] * (1 - 1e-9)


@pytest.mark.parametrize("name,gram", lll_test_grams())
def test_lll_transform_reduced_and_unimodular(name, gram):
    t = lll_transform(gram)
    assert not np.array_equal(t, np.eye(len(gram)))
    assert_lll_reduced(gram, t)


def conditioned_gram(n, seed, log_cond):
    """A random n x n positive-definite Gram with condition number
    10^log_cond: eigenvalues from 1 to 10^log_cond, random eigenvectors."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    eig = 10.0 ** np.sort(rng.uniform(0, log_cond, n))
    eig[0], eig[-1] = 1.0, 10.0**log_cond
    g = (q * eig) @ q.T
    return (g + g.T) / 2


def zeta5_gram(rank, seed, kind):
    """A Euclidean Gram of the identity bundle (seed None) or of a random
    zeta5 bundle.  Many of these reductions meet exact ties mu = +-1/2,
    which ``round`` leaves unreduced."""
    from hermlat import dual_bundle
    from hermlat.transference import random_bundle

    nf = shipped_field("zeta5")
    if seed is None:
        bundle = identity_bundle(nf, rank)
    else:
        bundle = random_bundle(nf, rank, np.random.default_rng(seed))
    if kind == "trace dual":
        return trace_dual(bundle).euclid_gram
    return restrict_scalars(dual_bundle(bundle) if kind == "dual bundle" else bundle).euclid_gram


@given(
    gram=st.one_of(
        st.builds(conditioned_gram, st.integers(1, 12), st.integers(0, 2**32 - 1), st.floats(0, 10)),
        st.builds(
            zeta5_gram,
            st.integers(1, 3),
            st.none() | st.integers(0, 2**32 - 1),
            st.sampled_from(["primal", "trace dual", "dual bundle"]),
        ),
    )
)
@settings(max_examples=60, deadline=None)
def test_lll_transform_on_random_grams(gram):
    t = lll_transform(gram)
    assert_lll_reduced(gram, t)
    # a power-of-two factor scales every B_k and leaves every mu_kj as it
    # is, so T is the same: the ("lll", ...) memo key of _reduce relies on it
    for e in (-3, 2, 5):
        assert np.array_equal(lll_transform(np.ldexp(gram, e)), t)


# LLL bases T of zeta5 Grams, pinned because the rounding of the first-visit
# Gram-Schmidt sums decides T.  Taking those sums with compensated ``sum()``
# (Python 3.12+), ``math.fsum`` or ``np.dot`` instead of the plain
# left-to-right loop gives a different T on the (2, 14) dual-bundle Gram,
# each of the three; ``np.dot`` alone also changes the (2, 2) dual-bundle T.
# On the (3, 1) trace-dual, (3, 1) dual-bundle and (2, 22) dual-bundle Grams
# all four sums give the pinned T, so those three pin the algorithm only.
# (rank, seed, lattice) -> T of random_bundle(zeta5, rank, default_rng(seed)).
PINNED_LLL = {
    (3, 1, "dual bundle"): (
        ( 1,  1,  2, -1,  1,  1,  0,  1,  1,  0, -2, -1),
        ( 1,  0,  1, -1,  0,  2, -1,  1,  2,  1, -2, -1),
        ( 0,  0,  0, -2, -1,  1, -2, -1,  2,  2, -1,  1),
        (-1,  0,  0,  0, -1,  0, -1,  0,  0,  2,  0,  1),
        ( 0,  0,  0,  1,  1,  0,  1,  1,  1,  0,  0,  1),
        ( 1,  0,  1,  0,  1,  1,  1,  1,  0,  1,  0,  1),
        ( 1,  0,  1,  0,  1,  1,  0,  1,  0,  0,  1,  1),
        ( 0,  0,  0,  0,  0,  1,  0,  0,  0,  0,  0,  1),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  1,  0,  0,  1),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  0,  1,  0,  1),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  1,  1),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  1),
    ),
    (3, 1, "trace dual"): (
        ( 1, -1,  0,  0, -1, -1,  1,  0,  2,  2,  1, -2),
        ( 0,  1, -1,  0,  0, -1, -1,  1,  1,  2,  0,  1),
        ( 0,  0,  1,  0,  2, -1, -1,  1, -2, -1, -2,  2),
        ( 0,  0,  0,  1,  0,  2,  0, -1, -2, -2,  0,  1),
        ( 0,  0,  0,  0,  0, -1,  0,  1,  0,  0,  1,  0),
        ( 0,  0,  0,  0,  1,  0, -1,  0,  1,  0,  0, -1),
        ( 0,  0,  0,  0,  0,  1,  0,  0,  0,  1,  0,  0),
        ( 0,  0,  0,  0,  0,  0,  1, -1,  0,  0,  0,  1),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  1,  0),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  1,  0,  0, -1),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  0,  1,  0,  0),
        ( 0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  0,  1),
    ),
    (2, 22, "dual bundle"): (
        ( 1,  0,  0,  1,  0, -1,  0,  1),
        ( 0,  1,  0,  1,  0,  0, -1,  0),
        ( 0,  0,  1,  1,  0,  0,  0,  0),
        ( 0,  0,  0,  1,  0,  0,  0,  0),
        ( 0,  0,  0,  0,  1,  0,  0,  1),
        ( 0,  0,  0,  0,  0,  0,  0,  1),
        ( 0,  0,  0,  0,  0,  1,  0,  0),
        ( 0,  0,  0,  0,  0,  0,  1,  1),
    ),
    (2, 2, "dual bundle"): (
        ( 0,  0,  0,  0,  0,  1,  0, -1),
        ( 0,  0,  0,  0, -1,  0,  1, -1),
        ( 0,  0,  0,  0,  0,  1,  0,  0),
        ( 0,  0,  0,  0, -1,  0,  0, -1),
        ( 1,  1, -1,  0, -1,  0,  0,  0),
        ( 0,  1,  0, -1, -1,  0,  0,  0),
        ( 1,  0,  0,  0,  0,  0,  0,  0),
        ( 0,  1, -1, -1, -1,  0,  0,  0),
    ),
    (2, 14, "dual bundle"): (
        ( 0,  0,  0,  0,  0,  0,  0,  1),
        ( 0,  0,  0,  0,  0, -1,  0,  1),
        ( 0,  0,  0,  0,  1, -1,  0,  0),
        ( 0,  0,  0,  0,  1, -1, -1,  0),
        ( 1,  0,  0,  0,  1,  0, -1,  1),
        ( 0,  1,  0,  0,  0,  0, -1,  1),
        ( 0,  0,  0,  1,  0,  1,  0,  1),
        ( 0,  0,  1,  0,  0,  0, -1,  1),
    ),
}


@pytest.mark.parametrize("rank,seed,kind", list(PINNED_LLL))
def test_lll_transform_pinned(field_zeta5, rank, seed, kind):
    from hermlat import dual_bundle
    from hermlat.transference import random_bundle

    bundle = random_bundle(field_zeta5, rank, np.random.default_rng(seed))
    lat = restrict_scalars(dual_bundle(bundle)) if kind == "dual bundle" else trace_dual(bundle)
    assert lll_transform(lat.euclid_gram).tolist() == [list(row) for row in PINNED_LLL[rank, seed, kind]]


def test_reports_do_not_depend_on_the_reduced_basis(monkeypatch):
    # The greedy scan reads the ball in exact (norm, z) order, and T only
    # moves the proven radius, so values and witnesses do not depend on T:
    # a change to the reduction can move only search statistics.
    from hermlat.reports import render_report
    from hermlat.transference import check_all, random_bundle

    cases = [(name, rank) for name in ("q", "gaussian", "sqrt2", "sqrt_minus3") for rank in (1, 2)]
    cases.append(("zeta5", 1))

    def rendered():
        out = []
        for name, rank in cases:
            # a new field, so that its memoized transfer vectors are searched
            # again
            nf = build_field(shipped_field(name).defining_poly)
            for seed in range(1, 6):
                bundle = random_bundle(nf, rank, np.random.default_rng(seed))
                out.append([render_report(rep) for rep in check_all(bundle)])
        return out

    expected = rendered()
    lll = minima.lll_transform
    for other in (lambda g: np.eye(len(g), dtype=np.int64), lambda g: -lll(g)):
        monkeypatch.setattr(minima, "lll_transform", other)
        assert rendered() == expected


@pytest.mark.parametrize("cap", [0, 1])
def test_lll_swap_cap_exit(monkeypatch, cap):
    # The cap ends the reduction early.  T stays an integer unimodular
    # matrix, and a poorly reduced basis only makes the proven radius
    # larger, so the minima still match the box oracle.
    cases = [(name, b) for name, b in oracle_fixture_lattices() if name in ("q3", "eis2")]
    full = {name: lll_transform(restrict_scalars(b).euclid_gram) for name, b in cases}
    monkeypatch.setattr(minima, "_LLL_MAX_SWAPS", cap)
    for name, gram in lll_test_grams():
        t = lll_transform(gram)
        assert t.dtype.kind == "i"
        assert abs(xl.det(xl.mat(t.tolist()))) == 1
    for name, bundle in cases:
        lat = restrict_scalars(bundle)
        assert not np.array_equal(lll_transform(lat.euclid_gram), full[name])
        for mode, count in (("f-rank", bundle.rank), ("q-rank", lat.z_rank)):
            for norm in ("sup", "sum"):
                assert_matches_oracle(lat, count, mode, norm)


@pytest.mark.parametrize("rank", [2, 3, 4])
def test_roadmap_zeta5_bundles_certify(field_zeta5, rank):
    # the first random_bundle(zeta5, N, default_rng(1)) draws; N*r = 8, 12 and 16
    from hermlat.transference import BundleChecks, random_bundle

    ctx = BundleChecks(random_bundle(field_zeta5, rank, np.random.default_rng(1)))
    profiles = {k: ctx.profile(k) for k in ("mu", "mu_star", "lambda", "lambda_vee", "mu_vee")}
    assert all(p.certified for p in profiles.values())
    if rank == 2:
        assert profiles["lambda_vee"].nodes <= 20_000
    # exact counts of the sum-norm search in the ellipsoid {Q <= b^2 / 2}
    # (zeta5 is totally complex), pruned by place at N = 3 and 4, where the
    # ellipsoid is expected to hold at least _PLACE_POINTS points; unpruned
    # they took 6,486 and 100,992 nodes, and {Q <= b^2} 10,624 and 233,232
    # at N = 2 and 3, and 13.4M at N = 4
    assert profiles["lambda_vee"].nodes == {2: 969, 3: 1_797, 4: 18_250}[rank]


@pytest.mark.parametrize(
    "name,rank,seed,nodes,digest",
    [
        # exhausted the default budget of 10M nodes unpruned
        ("sqrt2", 12, 2, 3_402_934, None),
        # 5,208,069 and 9,946,798 nodes unpruned; the digest is that of
        # the unpruned search's values (as hex) and witnesses
        ("zeta5", 5, 1, 220_795, "1e45f8c731576f65"),
        ("zeta7", 3, 1, 248_834, "0f4bcac7e0c77f74"),
    ],
)
def test_heavy_sum_norm_searches_certify(name, rank, seed, nodes, digest):
    import hashlib

    from hermlat.transference import BundleChecks, random_bundle

    nf = build_field([1] * 7) if name == "zeta7" else shipped_field(name)
    ctx = BundleChecks(random_bundle(nf, rank, np.random.default_rng(seed)))
    prof = ctx.profile("lambda_vee")
    assert prof.certified and prof.nodes == nodes
    if digest is not None:
        text = repr(([v.hex() for v in prof.values], [w.z_coords for w in prof.witnesses]))
        assert hashlib.sha256(text.encode()).hexdigest()[:16] == digest


@pytest.mark.parametrize("name", ["sqrt2", "x^3+x+1", "zeta5"])
def test_sum_ball_keeps_points_on_its_bound(monkeypatch, name):
    # each bound is the exact sum norm of a reduced basis vector, so that
    # vector lies on the ball's boundary; searched in increasing order,
    # every bound is a new pruned search, and its ball must hold the vector
    # and equal the unpruned reference
    from hermlat.transference import random_bundle

    monkeypatch.setattr(minima, "_PLACE_POINTS", 0)
    nf = build_field([1, 1, 0, 1]) if name == "x^3+x+1" else shipped_field(name)
    lat = trace_dual(random_bundle(nf, 2, np.random.default_rng(3)))
    assert len(lat.places) > 1
    basis = [_canonical(tuple(int(c) for c in z)) for z in lll_transform(lat.euclid_gram).T]
    for z in sorted(basis, key=lambda z: _agg(lat, z, "sum")):
        bound = _agg(lat, z, "sum")
        ball = {v.z_coords for v in enumerate_below(lat, "sum", bound)}
        assert z in ball
        assert ball == sum_ball_in_euclidean_ellipsoid(lat, bound)


@pytest.mark.parametrize(
    "name,rank",
    [("gaussian", 2), ("sqrt2", 2), ("sqrt_minus3", 2), ("q", 3), ("zeta5", 1), ("eis", 2)],
)
def test_profile_witnesses_have_full_exact_rank(name, rank):
    from hermlat import shipped_field
    from hermlat.transference import BundleChecks, random_bundle

    nf = eisenstein_field() if name == "eis" else shipped_field(name)
    ctx = BundleChecks(random_bundle(nf, rank, np.random.default_rng(8)))
    for key in ("mu", "mu_star", "lambda", "lambda_vee", "mu_vee"):
        p = ctx.profile(key)
        assert p.certified
        assert exact_rank(p.witnesses, p.mode) == len(p.witnesses)


def _agg(lat, z, norm):
    norms = lat.sigma_norms(np.array(z))
    return norms.max() if norm == "sup" else norms.sum()


# -- invariants ---------------------------------------------------------------


def test_mode_monotonicity(field_qi, field_sqrt2):
    rng = np.random.default_rng(77)
    from hermlat.transference import random_bundle

    for nf in (field_qi, field_sqrt2):
        for _ in range(5):
            b = random_bundle(nf, 2, rng)
            lat = restrict_scalars(b)
            mu = successive_minima(lat, 2, "f-rank", "sup")
            lam = successive_minima(lat, 2, "q-rank", "sup")
            for k in range(2):
                assert mu.values[k] >= lam.values[k] - 1e-9


def test_index_comparison_invariant(field_qi):
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(78)
    r = field_qi.degree
    for _ in range(5):
        b = random_bundle(field_qi, 2, rng)
        lat = restrict_scalars(b)
        mu = successive_minima(lat, 2, "f-rank", "sup")
        lam = successive_minima(lat, lat.z_rank, "q-rank", "sup")
        for k in range(2):
            assert mu.values[k] <= lam.values[k * r] + 1e-9


def test_sum_norm_vs_sup_norm(field_sqrt_minus3):
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(79)
    r = field_sqrt_minus3.degree
    for _ in range(5):
        b = random_bundle(field_sqrt_minus3, 2, rng)
        lat = restrict_scalars(b)
        sup = successive_minima(lat, lat.z_rank, "q-rank", "sup")
        total = successive_minima(lat, lat.z_rank, "q-rank", "sum")
        for k in range(lat.z_rank):
            assert total.values[k] <= math.log(r) + sup.values[k] + 1e-9


def test_scaling_equivariance(field_qi):
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(80)
    b = random_bundle(field_qi, 2, rng)
    for t in (0.5, 2.0, 7.3):
        scaled = b.scaled(t * t)
        p0 = successive_minima(restrict_scalars(b), 2, "f-rank", "sup")
        p1 = successive_minima(restrict_scalars(scaled), 2, "f-rank", "sup")
        for a, c in zip(p0.values, p1.values):
            assert abs(c - (a + math.log(t))) <= 1e-9


def test_budget_exhaustion_uncertified(field_qi):
    lat = restrict_scalars(identity_bundle(field_qi, rank=2))
    prof = successive_minima(lat, 4, "q-rank", "sup", budget=3)
    assert not prof.certified


@pytest.mark.parametrize("budget", [0, -3])
def test_budget_below_one_rejected(field_qi, budget):
    lat = restrict_scalars(identity_bundle(field_qi, rank=2))
    with pytest.raises(ValueError, match="budget must be at least 1"):
        successive_minima(lat, 1, "f-rank", "sup", budget=budget)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        enumerate_below(lat, "sup", 1.0, budget=budget)


def test_k_out_of_range(field_q):
    lat = restrict_scalars(make_bundle(field_q, 2, [np.eye(2)]))
    with pytest.raises(ValueError):
        successive_minima(lat, 3, "f-rank", "sup")
    with pytest.raises(ValueError):
        successive_minima(lat, 0, "f-rank", "sup")


@pytest.mark.parametrize("mode,norm,match", [
    ("F-rank", "sup", "mode must be one of"),
    ("f-rank", "max", "norm must be one of"),
], ids=["mode", "norm"])
def test_unknown_mode_or_norm_rejected(field_qi, mode, norm, match):
    lat = restrict_scalars(identity_bundle(field_qi, rank=2))
    with pytest.raises(ValueError, match=match):
        successive_minima(lat, 4, mode, norm)


@pytest.mark.parametrize("norm,bound,match", [
    ("max", 1.0, "norm must be one of"),
    ("sup", float("nan"), "bound must be positive"),
    ("sup", 0.0, "bound must be positive"),
    ("sum", -1.0, "bound must be positive"),
], ids=["norm", "nan", "zero", "negative"])
def test_enumerate_below_rejects_bad_arguments(field_qi, norm, bound, match):
    lat = restrict_scalars(identity_bundle(field_qi, rank=2))
    with pytest.raises(ValueError, match=match):
        enumerate_below(lat, norm, bound)


def test_exact_rank_rejects_primal_and_dual_vectors_together(field_qi):
    bundle = identity_bundle(field_qi)
    primal = BundleVector(bundle, (1, 0))
    dual = trace_dual(bundle).to_vector((0, 1))
    assert exact_rank([dual, trace_dual(bundle).to_vector((1, 0))], "q-rank") == 2
    for family in ([primal, dual], [dual, primal]):
        with pytest.raises(ValueError, match="one lattice"):
            exact_rank(family, "q-rank")


def test_exact_rank_rejects_unknown_mode(field_qi):
    bundle = identity_bundle(field_qi)
    with pytest.raises(ValueError, match="mode must be one of"):
        exact_rank([BundleVector(bundle, (1, 0)), BundleVector(bundle, (0, 1))], "Q-rank")


# -- enumeration kernel ---------------------------------------------------------


def _box_ellipsoid(gram, radius_sq):
    """Nonzero integer x with x^T gram x <= radius_sq up to sign, by box search
    in exact integer arithmetic (gram is an integer matrix)."""
    ginv = np.linalg.inv(gram)
    box = [int(math.isqrt(int(radius_sq * ginv[i, i] * (1 + 1e-9)))) + 1 for i in range(len(gram))]
    axes = np.meshgrid(*(np.arange(-b, b + 1) for b in box), indexing="ij")
    points = np.stack(axes, axis=-1).reshape(-1, len(gram))
    inside = points[np.einsum("mi,ij,mj->m", points, gram, points) <= radius_sq]
    return {_canonical(tuple(int(c) for c in x)) for x in inside if any(x)}


def _kernel_cases():
    rng = np.random.default_rng(17)
    for n in range(1, 7):
        for _ in range(3):
            a = rng.integers(-3, 4, (n, n))
            gram = a.T @ a + n * np.eye(n, dtype=np.int64)
            on_vector = rng.integers(-1, 2, n)
            on_vector[-1] = 1
            # a radius exactly on a lattice vector's norm, and one between norms
            for radius_sq in (int(on_vector @ gram @ on_vector), 2.5 * int(gram.diagonal().max())):
                yield gram, radius_sq


def _assert_paths_agree(monkeypatch, gram, radius_sq, vectors, nodes, places=None):
    """Numpy alone (``_SCALAR_NODES`` = 0) and Python floats alone (above
    every frontier) give the same vectors in the same order and the same
    nodes as the default mix, and both run out of budget at nodes - 1.  A
    search with ``places`` runs in numpy from the root whatever
    ``_SCALAR_NODES`` is, so there both variations check that it ignores
    the setting."""
    for small in (0, nodes):
        with monkeypatch.context() as m:
            m.setattr(minima, "_SCALAR_NODES", small)
            got, got_nodes = enumerate_ellipsoid(gram, radius_sq, nodes, places)
            assert got_nodes == nodes
            assert got.dtype == vectors.dtype and np.array_equal(got, vectors)
            with pytest.raises(BudgetExhausted):
                enumerate_ellipsoid(gram, radius_sq, nodes - 1, places)


def test_enumerate_ellipsoid_matches_box(monkeypatch):
    for gram, radius_sq in _kernel_cases():
        vectors, nodes = enumerate_ellipsoid(gram.astype(float), radius_sq, DEFAULT_BUDGET)
        assert vectors.dtype == np.int64 and vectors.shape[1] == len(gram)
        found = [tuple(int(c) for c in x) for x in vectors]
        # the sign convention: the highest nonzero coordinate is positive
        assert all(_canonical(x) == x and any(x) for x in found)
        assert len(set(found)) == len(found)
        assert set(found) == _box_ellipsoid(gram, radius_sq)
        # the budget boundary: nodes suffice, one fewer does not
        assert enumerate_ellipsoid(gram.astype(float), radius_sq, nodes)[1] == nodes
        with pytest.raises(BudgetExhausted):
            enumerate_ellipsoid(gram.astype(float), radius_sq, nodes - 1)
        _assert_paths_agree(monkeypatch, gram.astype(float), radius_sq, vectors, nodes)
    # x = 2 lies in the widened interval but outside the ellipsoid: a node, not a vector
    vectors, nodes = enumerate_ellipsoid(np.eye(1), 4 - 7e-12, DEFAULT_BUDGET)
    assert vectors.tolist() == [[1]] and nodes == 3
    _assert_paths_agree(monkeypatch, np.eye(1), 4 - 7e-12, vectors, nodes)


def _place_kernel_cases():
    """Grams A^T A + n I as two places: the form A^T A (singular for half
    the A) counted once and (n/2) I counted twice, so the sum norm is
    |A x| + 2 sqrt(n/2) |x|, with the bound sqrt(radius_sq) under which
    the sum ball lies in the ellipsoid and cuts it."""
    rng = np.random.default_rng(29)
    for n in range(1, 7):
        for singular in (False, True):
            a = rng.integers(-3, 4, (n, n))
            if singular:
                a[rng.integers(n)] = 0
            gram = a.T @ a + n * np.eye(n, dtype=np.int64)
            factors = np.stack([
                np.linalg.qr(a.astype(float), mode="r"), 2 * math.sqrt(n / 2) * np.eye(n)
            ])
            radius_sq = 2.5 * int(gram.diagonal().max())
            yield a, gram, radius_sq, (factors, math.sqrt(radius_sq))


def test_enumerate_ellipsoid_pruned_by_place(monkeypatch):
    cut = 0
    for a, gram, radius_sq, places in _place_kernel_cases():
        whole, whole_nodes = enumerate_ellipsoid(gram.astype(float), radius_sq, DEFAULT_BUDGET)
        vectors, nodes = enumerate_ellipsoid(gram.astype(float), radius_sq, DEFAULT_BUDGET, places)
        assert vectors.dtype == np.int64 and vectors.shape[1] == len(gram)
        assert nodes <= whole_nodes
        cut += nodes < whole_nodes
        found = {tuple(int(c) for c in x) for x in vectors}
        assert len(found) == len(vectors) and found <= {tuple(x) for x in whole.tolist()}
        # the box oracle's ellipsoid points whose sum norm, in exact integer
        # forms, lies clearly inside or clearly outside the bound
        n = len(gram)

        def sum_norm(x):
            x = np.array(x)
            return math.sqrt(int(x @ a.T @ a @ x)) + 2 * math.sqrt(n / 2 * int(x @ x))

        limit = places[1]
        norms = {x: sum_norm(x) for x in _box_ellipsoid(gram, radius_sq)}
        assert {x for x, v in norms.items() if v <= limit * (1 - 1e-9)} <= found
        assert found <= {x for x, v in norms.items() if v <= limit * (1 + 1e-9)}
        _assert_paths_agree(monkeypatch, gram.astype(float), radius_sq, vectors, nodes, places)
    assert cut >= 6


def test_place_bound_keeps_points_on_it(monkeypatch):
    # the sum norm |x_0| + 2|x_1| <= 2, in which every partial sum and root
    # is exact: (2, 0) and (0, 1) lie on the bound and stay, and x_1 = 2
    # and the children of x_1 = 1 but x_0 = 0 are nodes without children
    factors = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]])
    places = (factors, 2.0)
    vectors, nodes = enumerate_ellipsoid(np.eye(2), 8.0, DEFAULT_BUDGET, places)
    assert sorted(map(tuple, vectors.tolist())) == [(0, 1), (1, 0), (2, 0)]
    assert (nodes, enumerate_ellipsoid(np.eye(2), 8.0, DEFAULT_BUDGET)[1]) == (11, 16)
    _assert_paths_agree(monkeypatch, np.eye(2), 8.0, vectors, nodes, places)


def _unreachable(*args):
    raise AssertionError("called where it must not be")


def test_pruned_search_runs_in_numpy_from_the_root(monkeypatch):
    # the case above, with the scalar path unavailable: the same vectors,
    # in the search tree's order, and the same nodes
    monkeypatch.setattr(minima, "_expand_small", _unreachable)
    factors = np.array([[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 2.0]]])
    vectors, nodes = enumerate_ellipsoid(np.eye(2), 8.0, DEFAULT_BUDGET, (factors, 2.0))
    assert vectors.tolist() == [[1, 0], [2, 0], [0, 1]] and nodes == 11
    with pytest.raises(BudgetExhausted):
        enumerate_ellipsoid(np.eye(2), 8.0, 10, (factors, 2.0))


def test_infinite_frontier_exhausts_the_budget(monkeypatch):
    # an infinite radius gives the root infinitely many children, whichever
    # path meets them first
    factors = np.stack([np.eye(2), np.eye(2)])
    for places in (None, (factors, math.inf)):
        with pytest.raises(BudgetExhausted):
            enumerate_ellipsoid(np.eye(2), math.inf, 100, places)
    # a radius whose square overflows to inf; the second call is answered
    # by the memo of the exhausted radius, without a search
    lat = restrict_scalars(identity_bundle(shipped_field("gaussian")))
    with pytest.raises(BudgetExhausted):
        enumerate_below(lat, "sup", 1e300, budget=1000)
    monkeypatch.setattr(minima, "_search", _unreachable)
    with pytest.raises(BudgetExhausted):
        enumerate_below(lat, "sup", 1e300, budget=1000)


def test_huge_sum_ball_exhausts_the_budget():
    # over two places the Gaussian heuristic of a radius of 1e100 exceeds
    # the float range: the search is pruned, and its root has finitely
    # many children, far more than the budget
    from hermlat.transference import random_bundle

    lat = restrict_scalars(random_bundle(shipped_field("sqrt2"), 2, np.random.default_rng(1)))
    assert minima._expected_points(lat.euclid_gram, 1e200) == math.inf
    with pytest.raises(BudgetExhausted):
        enumerate_below(lat, "sum", 1e100, budget=1000)


def test_enumerate_ellipsoid_frontier_chunks(monkeypatch):
    # a reduced dimension-8 Gram whose frontiers hold hundreds of rows,
    # searched whole and pruned by its two complex places at the bound b
    # of the sum ball inside {Q <= b^2 / 2}
    from hermlat import shipped_field
    from hermlat.transference import random_bundle

    lat = trace_dual(random_bundle(shipped_field("zeta5"), 2, np.random.default_rng(1)))
    gram = lat.euclid_gram
    t = lll_transform(gram)
    gram = t.T @ gram @ t
    gram = (gram + gram.T) / 2
    radius_sq = 2 * gram.diagonal().max()
    pruned = (minima._place_factors(lat), math.sqrt(2 * radius_sq))
    whole = None
    for places in (None, pruned):
        vectors, nodes = enumerate_ellipsoid(gram, radius_sq, DEFAULT_BUDGET, places)
        assert nodes > (1000 if places is None else 500)
        _assert_paths_agree(monkeypatch, gram, radius_sq, vectors, nodes, places)
        # the order is the search tree's, whatever the chunks and, in the
        # unpruned search, whichever path expands the frontiers near the root
        for rows in (1, 3):
            for scalar_nodes in (minima._SCALAR_NODES, 0):
                with monkeypatch.context() as m:
                    m.setattr(minima, "_FRONTIER_ROWS", rows)
                    m.setattr(minima, "_SCALAR_NODES", scalar_nodes)
                    chunked, chunked_nodes = enumerate_ellipsoid(gram, radius_sq, nodes, places)
                    assert chunked_nodes == nodes
                    assert np.array_equal(chunked, vectors)
                    with pytest.raises(BudgetExhausted):
                        enumerate_ellipsoid(gram, radius_sq, nodes - 1, places)
        if whole is None:
            whole, whole_nodes = vectors, nodes
    # pruning keeps every point of the sum ball and cuts the rest
    assert nodes < whole_nodes
    sums = minima.aggregate(lat.exact_norms(whole @ t.T), "sum")
    kept = {tuple(z) for z in vectors.tolist()}
    assert {tuple(z) for z in whole[sums <= pruned[1] * (1 - 1e-9)].tolist()} <= kept
    assert kept <= {tuple(z) for z in whole[sums <= pruned[1] * (1 + 1e-9)].tolist()}


@pytest.mark.parametrize("name", [*shipped_field_names(), "zeta7"])
def test_places_pair_conjugate_embeddings(name):
    expected = {
        "q": ((0, 1),),
        "gaussian": ((0, 2),),
        "sqrt2": ((0, 1), (1, 1)),
        "sqrt_minus2": ((0, 2),),
        "sqrt_minus3": ((0, 2),),
        "zeta5": ((0, 2), (2, 2)),
        "zeta7": ((0, 2), (2, 2), (4, 2)),
    }[name]
    from hermlat.transference import random_bundle

    nf = build_field([1] * 7) if name == "zeta7" else shipped_field(name)
    bundle = random_bundle(nf, 2, np.random.default_rng(5))
    tdual = trace_dual(bundle)
    for lat in (restrict_scalars(bundle), tdual, tdual.weighted()):
        assert lat.places == expected


def test_places_of_unequal_conjugate_forms_count_once():
    # conjugate forms one ulp apart are not paired: every embedding is a
    # place of its own, and the sum norm keeps the ellipsoid {Q <= b^2}
    lat = restrict_scalars(identity_bundle(shipped_field("zeta5")))
    forms = lat.forms.copy()
    for s, c in enumerate(lat.nf.conj_index):
        if s < c:
            forms[c, 0, 0] = np.nextafter(forms[c, 0, 0], math.inf)
    unequal = NormedLattice(lat.nf, lat.max_f_rank, lat.basis, forms, lat.euclid_gram, lat.witness)
    assert lat.places == ((0, 2), (2, 2))
    assert unequal.places == ((0, 1), (1, 1), (2, 1), (3, 1))
    assert minima._radius_sq_factor(unequal, "sum") == 1.0


def test_expected_points_is_the_gaussian_heuristic():
    # the disc of radius 10 holds 317 integer points, 158 up to sign and
    # without 0; the heuristic gives 100 pi / 2 = 157.1
    assert abs(minima._expected_points(np.eye(2), 100.0) - 158) < 1
    assert len(enumerate_ellipsoid(np.eye(2), 100.0, DEFAULT_BUDGET)[0]) == 158
    # scaling the Gram by 4 halves every length: the same count at 4 times the radius
    gram = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    assert math.isclose(
        minima._expected_points(4 * gram, 40.0), minima._expected_points(gram, 10.0)
    )


def test_enumerate_ellipsoid_leaves_no_garbage():
    gram = np.array([[2.0, 1.0, 0.0], [1.0, 3.0, 1.0], [0.0, 1.0, 4.0]])
    enumerate_ellipsoid(gram, 6.0, DEFAULT_BUDGET)  # first call: lazy imports
    gc.collect()
    gc.disable()
    try:
        enumerate_ellipsoid(gram, 6.0, DEFAULT_BUDGET)
        assert gc.collect() == 0
    finally:
        gc.enable()


def count_engine_calls(monkeypatch) -> list:
    """The names of the ``lll_transform`` and ``enumerate_ellipsoid`` calls
    made from now on, in call order."""
    calls = []

    def counted(name):
        original = getattr(minima, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        return wrapper

    for name in ("enumerate_ellipsoid", "lll_transform"):
        monkeypatch.setattr(minima, name, counted(name))
    return calls


def test_each_ball_enumerated_once(monkeypatch, field_q, field_qi, field_sqrt_minus3, field_zeta5):
    from hermlat import transference
    from hermlat.duality import transfer_vector
    from hermlat.transference import BundleChecks, check_all, random_bundle

    calls = count_engine_calls(monkeypatch)
    ctx = BundleChecks(random_bundle(field_q, 2, np.random.default_rng(4)))
    profiles = {k: ctx.profile(k) for k in ("mu", "mu_star", "lambda", "lambda_vee", "mu_vee")}
    # over Q, mu and lambda search one ball of the primal lattice; the dual
    # bundle and the (weighted) trace dual have equal forms, and mu_star,
    # lambda_vee and mu_vee search one ball of them
    assert sorted(calls) == ["enumerate_ellipsoid"] * 2 + ["lll_transform"] * 2
    assert profiles["mu"].nodes == profiles["lambda"].nodes
    assert profiles["mu_star"].nodes == profiles["lambda_vee"].nodes == profiles["mu_vee"].nodes

    # over zeta5, check_all reduces the weighted trace dual with the trace
    # dual's T (its forms are 4 times theirs), and mu reads a prefix of
    # lambda's ball: 3 reductions and 4 searches for 4 lattices and 5 profiles
    contexts = []

    class Captured(BundleChecks):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            contexts.append(self)

    monkeypatch.setattr(transference, "BundleChecks", Captured)
    bundle = random_bundle(field_zeta5, 2, np.random.default_rng(1))
    transfer_vector(field_zeta5)  # the field's own search, memoized before counting
    calls.clear()
    check_all(bundle)
    assert sorted(calls) == ["enumerate_ellipsoid"] * 4 + ["lll_transform"] * 3
    (ctx,) = contexts
    mu, lam = ctx.profile("mu"), ctx.profile("lambda")
    assert mu.nodes == lam.nodes  # the search mu's ball was read from
    alone = successive_minima(restrict_scalars(bundle), bundle.rank, "f-rank", "sup")
    assert alone.nodes < mu.nodes
    assert mu.values == alone.values
    assert [w.z_coords for w in mu.witnesses] == [w.z_coords for w in alone.witnesses]
    assert (mu.radius_used, mu.certified) == (alone.radius_used, alone.certified)

    for nf in (field_qi, field_sqrt_minus3, field_zeta5):
        ctx = BundleChecks(random_bundle(nf, 2, np.random.default_rng(1)))
        weighted = ctx.weighted
        assert weighted.memo is ctx.tdual.memo
        assert np.array_equal(weighted.euclid_gram, 4 * ctx.tdual.euclid_gram)
        t = minima._reduce(weighted)[0]
        assert t is minima._reduce(ctx.tdual)[0]
        assert np.array_equal(t, lll_transform(weighted.euclid_gram))


@pytest.mark.parametrize(
    "name,reductions,searches",
    [
        # mixed signature: the weights 1, 2, 2 make the weighted trace dual
        # no power-of-two multiple of the trace dual, so nothing is shared
        ("x^3+x-1", 4, 4),
        # weights 1: the weighted trace dual has the trace dual's forms, and
        # its sup-norm search is not the trace dual's sum-norm one
        ("sqrt2", 3, 4),
        # the dual bundle and both trace duals have equal forms, and with one
        # embedding the sum norm is the sup norm
        ("q", 2, 2),
        # the weighted trace dual is 4 times the trace dual: one T, two searches
        ("zeta5", 3, 4),
    ],
)
def test_check_all_shares_by_content(monkeypatch, name, reductions, searches):
    from hermlat.duality import transfer_vector
    from hermlat.transference import check_all, random_bundle

    nf = build_field([-1, 1, 0, 1]) if name == "x^3+x-1" else shipped_field(name)
    transfer_vector(nf)  # the field's own search, memoized before counting
    calls = count_engine_calls(monkeypatch)
    for seed in range(1, 6):
        calls.clear()
        check_all(random_bundle(nf, 2, np.random.default_rng(seed)))
        assert (calls.count("lll_transform"), calls.count("enumerate_ellipsoid")) == (
            reductions, searches)


def eager_ball(lat, norm, bound):
    """The ball of radius ``bound`` built eagerly: every candidate of the
    ellipsoid the engine searches, normed by ``sigma_norms``, kept within
    the engine's tolerance and sorted by (norm, z)."""
    limit = bound * (1 + minima.TOL)
    t = lll_transform(lat.euclid_gram)
    gram = t.T @ lat.euclid_gram @ t
    radius_sq = minima._radius_sq_factor(lat, norm) * limit * limit
    ys, _ = enumerate_ellipsoid((gram + gram.T) / 2, radius_sq, DEFAULT_BUDGET)
    hits = []
    for z in ys @ t.T:
        z = _canonical(tuple(int(c) for c in z))
        value = minima.aggregate(lat.sigma_norms(np.array(z)), norm)
        if value <= limit:
            hits.append((value, z))
    return sorted(hits)


@pytest.mark.parametrize(
    "name,rank,keys",
    [("gaussian", 8, ("lambda_vee",)), ("zeta5", 2, None), ("zeta5", 3, None),
     ("sqrt2", 2, None), ("q", 3, None)],
)
def test_lazy_order_matches_eager_reference(name, rank, keys):
    # unit multiples (i x over Q(i), zeta x over Q(zeta5)) have equal norms,
    # so these balls are full of ties that only z orders
    from hermlat import shipped_field
    from hermlat.transference import PROFILES, BundleChecks, random_bundle

    bundle = random_bundle(shipped_field(name), rank, np.random.default_rng(1))
    for key in keys or PROFILES:
        attr, mode, norm = PROFILES[key]
        lat = getattr(BundleChecks(bundle), attr)
        count = lat.max_f_rank if mode == "f-rank" else lat.z_rank
        prof = successive_minima(lat, count, mode, norm)
        ref = eager_ball(lat, norm, prof.radius_used)
        if name in ("gaussian", "zeta5"):
            assert any(a[0] == b[0] for a, b in zip(ref, ref[1:]))
        # the whole ball, and the prefix the greedy scan read, up to its last witness
        ball = minima._ball(lat, norm, prof.radius_used, DEFAULT_BUDGET)
        assert list(ball.read(prof.radius_used)) == ref
        witnesses = [w.z_coords for w in prof.witnesses]
        read = ref[: [z for _, z in ref].index(witnesses[-1]) + 1]
        assert [z for _, z in read if z in set(witnesses)] == witnesses
        assert prof.values == tuple(math.log(v) for v, z in read if z in set(witnesses))
        # the whole ball, after that partial read and on a fresh lattice
        for fresh in (lat, getattr(BundleChecks(bundle), attr)):
            ball = [v.z_coords for v in enumerate_below(fresh, norm, prof.radius_used)]
            assert ball == [z for _, z in ref]


def test_lazy_ball_norms_only_what_is_read(field_zeta5):
    from hermlat.transference import random_bundle

    lat = restrict_scalars(random_bundle(field_zeta5, 3, np.random.default_rng(1)))
    prof = successive_minima(lat, lat.z_rank, "q-rank", "sup")
    ball = minima._ball(lat, "sup", prof.radius_used, DEFAULT_BUDGET)
    # a smaller radius of the same norm and budget reads a prefix of this ball
    mu = successive_minima(lat, 3, "f-rank", "sup")
    assert mu.radius_used < prof.radius_used and mu.nodes == prof.nodes
    assert minima._ball(lat, "sup", mu.radius_used, DEFAULT_BUDGET) is ball


def test_lazy_ball_concurrent_readers(field_qi):
    import sys
    import threading

    from hermlat.transference import random_bundle

    bundle = random_bundle(field_qi, 8, np.random.default_rng(1))
    bound = successive_minima(trace_dual(bundle), 16, "q-rank", "sum").radius_used
    expected = [v.z_coords for v in enumerate_below(trace_dual(bundle), "sum", bound)]
    lat = trace_dual(bundle)
    minima._ball(lat, "sum", bound, DEFAULT_BUDGET)  # searched, nothing normed yet
    start = threading.Barrier(8)
    results = []

    def read():
        start.wait(timeout=30)
        results.append([v.z_coords for v in enumerate_below(lat, "sum", bound)])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8


def test_minima_profile_rejects_decreasing_values():
    fields = dict(witnesses=(), mode="q-rank", norm="sup", radius_used=1.0, certified=True,
                  nodes=0)
    assert minima.MinimaProfile(values=(0.0, 0.0, 1.0), **fields).values == (0.0, 0.0, 1.0)
    with pytest.raises(ValueError, match="nondecreasing"):
        minima.MinimaProfile(values=(0.5, 0.0), **fields)


def test_enumerate_budget_raises(field_q):
    lat = restrict_scalars(make_bundle(field_q, 2, [np.eye(2)]))
    with pytest.raises(BudgetExhausted):
        enumerate_below(lat, "sup", 50.0, budget=10)
