import math
from fractions import Fraction

import numpy as np
import pytest

from hermlat import (
    build_field,
    codifferent_covolume,
    different_lattice,
    dual_minima_comparison,
    make_bundle,
    minkowski_codifferent_bound,
    minkowski_codifferent_vector,
    restrict_scalars,
    trace_dual,
    trace_module,
    transfer_vector,
    unit_ball_volume,
)
from conftest import identity_bundle


def test_trace_module_q(field_q):
    tm = trace_module(field_q)
    assert tm.codifferent_basis[0].coords == (Fraction(1),)
    assert tm.metric_weights == (1.0,)


def test_trace_module_gaussian(field_qi):
    tm = trace_module(field_qi)
    assert [c.coords for c in tm.codifferent_basis] == [
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(-1, 2)),
    ]
    assert tm.metric_weights == (2.0, 2.0)


def test_trace_module_sqrt2(field_sqrt2):
    tm = trace_module(field_sqrt2)
    # spans {1/2, sqrt(2)/4}
    assert [c.coords for c in tm.codifferent_basis] == [
        (Fraction(1, 2), Fraction(0)),
        (Fraction(0), Fraction(1, 4)),
    ]
    assert tm.metric_weights == (1.0, 1.0)


def test_biorthogonality_exact(all_fields):
    for nf in all_fields.values():
        tm = trace_module(nf)
        for i, b in enumerate(nf.integral_basis):
            for j, c in enumerate(tm.codifferent_basis):
                assert (b * c).trace() == Fraction(int(i == j))


def test_trace_dual_self_dual_z2(field_q):
    td = trace_dual(make_bundle(field_q, 2, [np.eye(2)]))
    assert np.allclose(td.euclid_gram, np.eye(2))


def test_trace_dual_diag(field_q):
    td = trace_dual(make_bundle(field_q, 2, [np.diag([4.0, 0.25])]))
    assert np.allclose(td.euclid_gram, np.diag([0.25, 4.0]))


def test_trace_dual_gaussian_alpha_convention(field_qi):
    # plain dual form of the Gaussian lattice is half the identity; the
    # alpha-weighted view scales each embedding norm by the weight 2
    td = trace_dual(identity_bundle(field_qi))
    assert np.allclose(td.euclid_gram, 0.5 * np.eye(2))
    assert np.allclose(td.weighted().euclid_gram, 2.0 * np.eye(2))


def test_dual_basis_pairing_is_identity(field_qi, field_zeta5):
    for nf in (field_qi, field_zeta5):
        td = trace_dual(identity_bundle(nf, rank=1 if nf.degree > 2 else 2))
        basis = td.z_dual_basis()
        for i, u in enumerate(basis):
            for j in range(td.z_rank):
                z = [0] * td.z_rank
                z[j] = 1
                assert td.pairing(u, z) == Fraction(int(i == j))


def test_dual_gram_is_inverse_of_primal(field_sqrt_minus3):
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(11)
    b = random_bundle(field_sqrt_minus3, 2, rng)
    primal = restrict_scalars(b)
    td = trace_dual(b)
    assert np.abs(td.euclid_gram - np.linalg.inv(primal.euclid_gram)).max() < 1e-9


def test_alpha_isometry_random_vectors(all_fields):
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(12)
    for nf in all_fields.values():
        rank = 1 if nf.degree > 2 else 2
        b = random_bundle(nf, rank, rng)
        td = trace_dual(b)
        for _ in range(100):
            z = rng.integers(-10, 10, td.z_rank)
            direct = td.sigma_norms(z)
            for s in range(nf.degree):
                via_alpha = td.sigma_norm_via_alpha(tuple(z), s)
                assert abs(direct[s] - via_alpha) <= 1e-9 * max(1.0, via_alpha)


def test_codifferent_covolume_closed_form(all_fields):
    for nf in all_fields.values():
        expected = math.log(abs(nf.discriminant)) - 2 * nf.r2 * math.log(2)
        assert abs(codifferent_covolume(nf) - expected) <= 1e-9


def test_unit_ball_volume(field_q, field_qi, field_sqrt2):
    assert unit_ball_volume(field_q) == 2.0
    assert math.isclose(unit_ball_volume(field_qi), math.pi)
    assert unit_ball_volume(field_sqrt2) == 4.0


def test_minkowski_vector_q(field_q):
    v, lg = minkowski_codifferent_vector(field_q)
    assert v.coords == (Fraction(1),) or v.coords == (Fraction(-1),)
    assert lg == 0.0
    assert minkowski_codifferent_bound(field_q) == 0.0


def test_minkowski_vector_bounds_all_fields(all_fields):
    # Q(zeta7), disc -16807: a search at the Minkowski radius itself needs
    # more than the default budget of nodes
    zeta7 = build_field([1, 1, 1, 1, 1, 1, 1])
    for name, nf in {**all_fields, "zeta7": zeta7}.items():
        v, lg = minkowski_codifferent_vector(nf)
        assert not v.is_zero()
        bound = minkowski_codifferent_bound(nf)
        assert lg <= bound + 1e-9, name


def test_minkowski_examples(field_qi, field_sqrt2):
    _, lg = minkowski_codifferent_vector(field_qi)
    assert lg <= 0.5 * math.log(4) - 0.5 * math.log(math.pi) + 1e-9
    _, lg2 = minkowski_codifferent_vector(field_sqrt2)
    assert lg2 <= 0.5 * math.log(8) + 1e-9


def test_different_lattice_index(all_fields):
    # the different of a monogenic order is generated by f'(theta); its
    # index in the order equals |disc|
    from hermlat.exactlinalg import det

    for nf in all_fields.values():
        basis = different_lattice(nf)
        m = [[x for x in nf.to_integral_coords(y)] for y in basis]
        assert abs(det(m)) == abs(nf.discriminant)
        # containment: every basis element of the different multiplied by
        # every codifferent basis element is integral
        tm = trace_module(nf)
        for y in basis:
            for c in tm.codifferent_basis:
                assert all(t.denominator == 1 for t in nf.to_integral_coords(y * c))


def test_different_is_fprime_ideal(field_qi, field_sqrt2):
    # for the shipped monogenic fields the different is f'(theta) * O_F
    for nf in (field_qi, field_sqrt2):
        coeffs = nf.defining_poly
        theta = nf.theta()
        fprime = nf.zero()
        power = nf.one()
        for k in range(1, len(coeffs)):
            fprime = fprime + (k * Fraction(coeffs[k])) * power
            power = power * theta
        basis = different_lattice(nf)
        # f'(theta) * b_i must lie in the computed lattice and vice versa
        from hermlat.exactlinalg import det

        gen_lattice = [[x for x in nf.to_integral_coords(fprime * b)] for b in nf.integral_basis]
        comp_lattice = [[x for x in nf.to_integral_coords(y)] for y in basis]
        assert abs(det(gen_lattice)) == abs(det(comp_lattice))
        # mutual containment via exact solves
        from hermlat.exactlinalg import inverse, mat_mul, is_integral, transpose

        a = transpose(gen_lattice)
        b = transpose(comp_lattice)
        assert is_integral(mat_mul(inverse(a), b))
        assert is_integral(mat_mul(inverse(b), a))


def test_transfer_vector_values(field_q, field_qi, field_sqrt2, field_sqrt_minus3):
    _, lg = transfer_vector(field_q)
    assert lg == 0.0
    _, lg = transfer_vector(field_qi)
    assert abs(lg) <= 1e-12  # |2|/2 = 1
    _, lg = transfer_vector(field_sqrt2)
    assert abs(lg - 0.5 * math.log(8)) <= 1e-9  # 2*sqrt(2), weights 1
    _, lg = transfer_vector(field_sqrt_minus3)
    assert abs(lg - math.log(math.sqrt(3) / 2)) <= 1e-9


def test_dual_minima_comparison_q_trivial(field_q):
    rep = dual_minima_comparison(make_bundle(field_q, 1, [np.eye(1)]), 1)
    assert rep.holds
    assert rep.transfer_log_norm == 0.0
    assert rep.mu_dual_bundle == rep.mu_trace_dual


def test_dual_minima_comparison_gaussian(field_qi):
    rep = dual_minima_comparison(identity_bundle(field_qi), 1)
    assert rep.holds and rep.certified
    assert rep.mu_dual_bundle <= rep.mu_trace_dual + rep.transfer_log_norm + 1e-9


def test_dual_minima_comparison_diag(field_q):
    rep = dual_minima_comparison(make_bundle(field_q, 2, [np.diag([4.0, 0.25])]), 1)
    assert rep.holds
    assert math.isclose(rep.mu_dual_bundle, -math.log(2), abs_tol=1e-12)
    assert math.isclose(rep.mu_trace_dual, -math.log(2), abs_tol=1e-12)
    assert rep.transfer_log_norm == 0.0


def test_dual_minima_random(field_sqrt2, field_sqrt_minus3):
    from hermlat.transference import random_bundle

    rng = np.random.default_rng(13)
    for nf in (field_sqrt2, field_sqrt_minus3):
        for _ in range(5):
            b = random_bundle(nf, 2, rng)
            for k in (1, 2):
                rep = dual_minima_comparison(b, k)
                assert rep.holds, rep


def test_dual_minima_k_range(field_q):
    with pytest.raises(ValueError):
        dual_minima_comparison(make_bundle(field_q, 1, [np.eye(1)]), 2)
