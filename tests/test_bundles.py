import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlat import (
    BundleError,
    BundleVector,
    diagonal_bundle,
    dual_bundle,
    make_bundle,
    restrict_scalars,
    vector_from_f_coords,
)

from conftest import identity_bundle


def test_make_bundle_standard_z2(field_q):
    b = make_bundle(field_q, 2, [np.eye(2)])
    lat = restrict_scalars(b)
    assert np.allclose(lat.euclid_gram, np.eye(2))


def test_make_bundle_gaussian_identity(field_qi):
    b = identity_bundle(field_qi)
    assert b.rank == 1


def test_make_bundle_diagonal_norms(field_q):
    b = make_bundle(field_q, 2, [np.diag([4.0, 0.25])])
    lat = restrict_scalars(b)
    assert math.isclose(lat.sigma_norms(np.array([1, 0]))[0], 2.0)
    assert math.isclose(lat.sigma_norms(np.array([0, 1]))[0], 0.5)


def test_exact_norms_bit_identical_per_row(all_fields):
    # each row's stacked norms are the bits of the row normed alone and of
    # the plain sqrt(max(x @ p @ x, 0)), whatever the block and its layout
    from hermlat import build_field, minima
    from hermlat.transference import BundleChecks, random_bundle

    rng = np.random.default_rng(3)
    fields = {**all_fields, "zeta7": build_field([1, 1, 1, 1, 1, 1, 1])}
    for name, nf in fields.items():
        ctx = BundleChecks(random_bundle(nf, 2, np.random.default_rng(1)))
        for lat in (ctx.primal, ctx.tdual, ctx.weighted):
            wide = rng.integers(-4, 5, size=(200, 2 * lat.z_rank))
            zs = wide[:, ::2]  # int64, not contiguous
            assert not zs.flags.c_contiguous
            for m in (1, 2, 17, 200):
                stacked = lat.exact_norms(zs[:m])
                assert stacked.shape == (m, lat.n_embeddings)
                for norm in ("sup", "sum"):
                    rows = minima.aggregate(stacked, norm)
                    assert type(minima.aggregate(stacked[0], norm)) is float
                    for i in range(m):
                        assert rows[i] == minima.aggregate(stacked[i], norm)
                for i in range(m):
                    x = zs[i].astype(float)
                    plain = np.sqrt(np.maximum([x @ p @ x for p in lat.forms], 0.0))
                    assert np.array_equal(stacked[i], lat.exact_norms(zs[i : i + 1])[0]), name
                    assert np.array_equal(stacked[i], plain), name
                    assert np.array_equal(lat.sigma_norms(zs[i]), plain), name
                for s, m_p in lat.places:  # a place's conjugate column is the place's
                    assert m_p == 1 or np.array_equal(stacked[:, s], stacked[:, nf.conj_index[s]]), name
    # more rows than one block of minima._search (1,024): the same bits as
    # the rows normed in uneven pieces, one at a time, and as the plain norms
    ctx = BundleChecks(random_bundle(fields["zeta7"], 2, np.random.default_rng(1)))
    for lat in (ctx.primal, ctx.tdual, ctx.weighted):
        zs = rng.integers(-4, 5, size=(1029, lat.z_rank))
        stacked = lat.exact_norms(zs)
        pieces = [lat.exact_norms(zs[i : i + 999]) for i in range(0, len(zs), 999)]
        assert np.array_equal(stacked, np.concatenate(pieces))
        for i in range(1022, 1026):
            assert np.array_equal(stacked[i], lat.exact_norms(zs[i : i + 1])[0])
            x = zs[i].astype(float)
            assert np.array_equal(stacked[i], np.sqrt(np.maximum([x @ p @ x for p in lat.forms], 0.0)))


def test_random_bundle_refuses_an_unreachable_condition_bound(field_zeta5):
    # no Gaussian rank-3 Gram is that well conditioned: the draws stop at the cap
    from hermlat.transference import random_bundle

    with pytest.raises(BundleError, match="cond_max=1.0"):
        random_bundle(field_zeta5, 3, np.random.default_rng(1), cond_max=1.0)


def test_non_hermitian_rejected(field_q):
    with pytest.raises(BundleError):
        make_bundle(field_q, 2, [np.array([[1.0, 1.0], [0.0, 1.0]])])


def test_non_positive_definite_rejected(field_q):
    with pytest.raises(BundleError):
        make_bundle(field_q, 2, [np.diag([1.0, -1.0])])


@pytest.mark.parametrize("bad", [
    [[math.nan, 0.0], [0.0, 1.0]],
    [[1.0, 0.0], [0.0, math.inf]],
    [[1.0, math.nan], [math.nan, 1.0]],
    [[1.0, complex(0.0, -math.inf)], [complex(0.0, math.inf), 1.0]],
], ids=["nan-diagonal", "inf-diagonal", "nan-off-diagonal", "inf-imaginary"])
def test_non_finite_gram_rejected(field_q, field_qi, bad):
    with pytest.raises(BundleError, match="Gram 0 has an entry that is not finite"):
        make_bundle(field_q, 2, [np.array(bad)])
    h = np.array(bad, dtype=complex)
    with pytest.raises(BundleError, match="Gram 1 has an entry that is not finite"):
        make_bundle(field_qi, 2, [np.eye(2), h])


@pytest.mark.parametrize("scale", [math.nan, math.inf])
def test_non_finite_diagonal_scale_rejected(field_q, scale):
    with pytest.raises(BundleError, match="not finite"):
        diagonal_bundle(field_q, [[1.0], [scale]])


def test_conjugation_violation_rejected(field_qi):
    h0 = np.array([[2.0, 1j], [-1j, 2.0]])
    h1 = np.array([[2.0, 1j], [-1j, 2.0]])  # should be conj(h0)
    with pytest.raises(BundleError):
        make_bundle(field_qi, 2, [h0, h1])


def test_missing_gram_rejected(field_qi):
    with pytest.raises(BundleError):
        make_bundle(field_qi, 1, [np.eye(1)])


def test_restrict_scalars_gaussian(field_qi):
    lat = restrict_scalars(identity_bundle(field_qi))
    assert np.allclose(lat.euclid_gram, 2 * np.eye(2))


def test_restrict_scalars_sqrt2(field_sqrt2):
    lat = restrict_scalars(identity_bundle(field_sqrt2))
    assert np.allclose(lat.euclid_gram, np.diag([2.0, 4.0]))


def test_euclid_gram_is_sigma_sum(field_sqrt_minus3):
    rng = np.random.default_rng(5)
    b = identity_bundle(field_sqrt_minus3, rank=2)
    lat = restrict_scalars(b)
    for _ in range(100):
        x = rng.integers(-10, 10, lat.z_rank)
        q = float(x @ lat.euclid_gram @ x)
        s = float((lat.sigma_norms(x) ** 2).sum())
        assert math.isclose(q, s, rel_tol=1e-9, abs_tol=1e-12)


def test_conjugate_forms_are_equal(field_zeta5):
    # the forms of conjugate embeddings agree to rounding; stack_forms makes
    # them bit-identical, which the sum norm's place-aware ellipsoid relies on
    from hermlat import trace_dual
    from hermlat.transference import random_bundle

    bundle = random_bundle(field_zeta5, 2, np.random.default_rng(1))
    dual = trace_dual(bundle)
    for lat in (restrict_scalars(bundle), dual, dual.weighted()):
        for s, sbar in enumerate(field_zeta5.conj_index):
            assert np.array_equal(lat.forms[s], lat.forms[sbar])


def test_aggregation_sandwich(field_qi, field_sqrt2):
    rng = np.random.default_rng(6)
    for nf in (field_qi, field_sqrt2):
        lat = restrict_scalars(identity_bundle(nf, rank=2))
        r = nf.degree
        for _ in range(200):
            x = rng.integers(-8, 8, lat.z_rank)
            if not x.any():
                continue
            norms_sq = lat.sigma_norms(x) ** 2
            q = float(x @ lat.euclid_gram @ x)
            assert norms_sq.max() <= q * (1 + 1e-9)
            assert q <= r * norms_sq.max() * (1 + 1e-9)


def test_sum_vs_sup_inequality(all_fields):
    # sum over embeddings of |x|_s is at most r times the sup
    rng = np.random.default_rng(7)
    for nf in all_fields.values():
        lat = restrict_scalars(identity_bundle(nf))
        for _ in range(100):
            x = rng.integers(-5, 5, lat.z_rank)
            if not x.any():
                continue
            norms = lat.sigma_norms(x)
            assert norms.sum() <= nf.degree * norms.max() * (1 + 1e-12)


def test_norm_positivity(field_qi):
    rng = np.random.default_rng(8)
    lat = restrict_scalars(identity_bundle(field_qi, rank=2))
    for _ in range(1000):
        x = rng.integers(-20, 20, lat.z_rank)
        norms = lat.sigma_norms(x)
        if x.any():
            assert norms.min() > 0
        else:
            assert norms.max() == 0


def test_dual_bundle_identity_self_dual(field_q):
    b = make_bundle(field_q, 2, [np.eye(2)])
    assert np.allclose(dual_bundle(b).grams[0], np.eye(2))


def test_dual_bundle_diagonal(field_q):
    b = make_bundle(field_q, 2, [np.diag([4.0, 0.25])])
    assert np.allclose(dual_bundle(b).grams[0], np.diag([0.25, 4.0]))


def test_double_dual_roundtrip(field_qi):
    rng = np.random.default_rng(9)
    a = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    h = a.conj().T @ a + 0.1 * np.eye(2)
    b = make_bundle(field_qi, 2, [h, h.conj()])
    dd = dual_bundle(dual_bundle(b))
    for s in range(2):
        assert np.abs(dd.grams[s] - b.grams[s]).max() < 1e-10


@given(
    coords=st.lists(st.integers(min_value=-50, max_value=50), min_size=4, max_size=4)
)
@settings(max_examples=100, deadline=None)
def test_z_f_roundtrip_exact(coords):
    from hermlat import shipped_field

    nf = shipped_field("gaussian")
    b = identity_bundle(nf, rank=2)
    v = BundleVector(b, tuple(coords))
    assert vector_from_f_coords(b, v.f_coords).z_coords == tuple(coords)


def test_f_coords_values(field_qi):
    b = identity_bundle(field_qi, rank=2)
    v = BundleVector(b, (1, 2, 3, -4))
    f = v.f_coords
    assert f[0].coords == (Fraction(1), Fraction(2))
    assert f[1].coords == (Fraction(3), Fraction(-4))
