import itertools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlat import (
    BudgetExhausted,
    build_field,
    codifferent_covolume,
    different_lattice,
    load_field,
    make_bundle,
    minkowski_codifferent_bound,
    minkowski_codifferent_vector,
    restrict_scalars,
    trace_dual,
    trace_module,
    transfer_vector,
    unit_ball_volume,
)
from hermlat.exactlinalg import row_basis

from conftest import FIXDIR, identity_bundle


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


def test_assembled_forms_match_the_inverted_embedding_stack(all_fields):
    # Oracle for the trace dual: invert the complex (N*r) x (N*r) stack A of
    # embeddings (block s, row j holds sigma_s of the integral basis in
    # module slot j); with C_s the columns of A^-1 for block s, the form at
    # s is Re(C_s H_s^-1 C_s^H).  Biorthogonality makes C_s the transpose of
    # the codifferent's embeddings, so the dual bundle assembled over the
    # codifferent basis must give the same forms.  Oracle for ideal
    # lattices: the outer products t_s^2 conj(row)^T row of the basis
    # embeddings.
    from hermlat.duality import codifferent_lattice, dual_trace_module_lattice, ideal_lattice
    from hermlat.transference import random_bundle

    def close(got, want):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    fields = {**all_fields, "x^3+x-1": build_field([-1, 1, 0, 1]),
              "zeta7": build_field([1, 1, 1, 1, 1, 1, 1])}
    rng = np.random.default_rng(16)
    for nf in fields.values():
        r = nf.degree
        emb = [[b.embed(s) for b in nf.integral_basis] for s in range(r)]
        for n in (1, 2, 3):
            bundle = random_bundle(nf, n, rng)
            a = np.zeros((n * r, n * r), dtype=complex)
            for s in range(r):
                for j in range(n):
                    a[s * n + j, j * r : (j + 1) * r] = emb[s]
            a_inv = np.linalg.inv(a)
            want = []
            for s in range(r):
                c = a_inv[:, s * n : (s + 1) * n]
                want.append(np.real(c @ np.linalg.inv(bundle.grams[s]) @ c.conj().T))
            close(trace_dual(bundle).forms, np.stack(want))

        tm = trace_module(nf)
        scales = [float(t) for t in 0.5 + rng.random(r)]
        scales = [max(t, scales[nf.conj_index[s]]) for s, t in enumerate(scales)]
        cases = [
            (codifferent_lattice(nf), tm.codifferent_basis, [1.0] * r),
            (dual_trace_module_lattice(nf), different_lattice(nf), [1 / w for w in tm.metric_weights]),
            (ideal_lattice(nf, nf.integral_basis, scales), nf.integral_basis, scales),
        ]
        for lat, basis, t in cases:
            want = []
            for s in range(r):
                row = np.array([b.embed(s) for b in basis])
                want.append(np.real(np.outer(row.conj(), row)) * t[s] ** 2)
            close(lat.forms, np.stack(want))


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


# maximal orders whose integral basis is not the power basis of f:
# (poly, constant term first; basis rows; discriminant)
SUPPLIED_BASIS_ORDERS = {
    "sqrt5": ([-5, 0, 1], [[1, 0], ["1/2", "1/2"]], 5),
    "sqrt_minus7": ([7, 0, 1], [[1, 0], ["1/2", "1/2"]], -7),
    # Dedekind's cubic field, whose ring of integers has no power basis
    "dedekind": ([-8, -2, -1, 1], [[1, 0, 0], [0, 1, 0], [0, "1/2", "1/2"]], -503),
}

# with the shipped fields and the supplied-basis orders, the 20 fields on
# which the transfer vector's log-norm is checked at 60 digits
CORPUS_POLYS = {
    "zeta7": [1, 1, 1, 1, 1, 1, 1],
    "zeta8": [1, 0, 0, 0, 1],
    "zeta9": [1, 0, 0, 1, 0, 0, 1],
    "zeta12": [1, 0, -1, 0, 1],
    "sqrt3": [-3, 0, 1],
    "sqrt_minus5": [5, 0, 1],
    "x^3 + x - 1": [-1, 1, 0, 1],
    "x^3 - x^2 - 2x + 1": [1, -2, -1, 1],
    "x^3 - 2": [-2, 0, 0, 1],
    "x^4 - 2": [-2, 0, 0, 0, 1],
    "x^3 - x^2 + x + 1": [1, 1, -1, 1],
}


def _supplied_basis_order(name):
    poly, basis, disc = SUPPLIED_BASIS_ORDERS[name]
    nf = build_field(poly, integral_basis=basis)
    assert nf.discriminant == disc
    return nf


def _same_lattice(nf, xs, ys):
    """Whether the field elements xs and ys span one Z-lattice, exactly."""
    from hermlat.exactlinalg import inverse, is_integral, mat_mul, transpose

    a = transpose([nf.to_integral_coords(x) for x in xs])
    b = transpose([nf.to_integral_coords(y) for y in ys])
    return is_integral(mat_mul(inverse(a), b)) and is_integral(mat_mul(inverse(b), a))


def test_different_lattice_index(all_fields):
    # the index of the different in the order equals |disc|
    from hermlat.exactlinalg import det

    fields = {**all_fields, **{name: _supplied_basis_order(name) for name in SUPPLIED_BASIS_ORDERS}}
    for name, nf in fields.items():
        basis = different_lattice(nf)
        m = [[x for x in nf.to_integral_coords(y)] for y in basis]
        assert abs(det(m)) == abs(nf.discriminant), name
        # containment: every basis element of the different multiplied by
        # every codifferent basis element is integral
        tm = trace_module(nf)
        for y in basis:
            for c in tm.codifferent_basis:
                assert all(t.denominator == 1 for t in nf.to_integral_coords(y * c)), name
    # Q(sqrt 5) and Q(sqrt -7): the different is theta * O_F, not the
    # f'(theta) * O_F of the power-basis order
    for name in ("sqrt5", "sqrt_minus7"):
        nf = fields[name]
        theta_ideal = [nf.theta() * b for b in nf.integral_basis]
        assert _same_lattice(nf, theta_ideal, different_lattice(nf)), name


@st.composite
def integer_rows(draw):
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 6))
    row = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return draw(st.lists(row, min_size=m, max_size=m))


@given(integer_rows())
@settings(max_examples=200, deadline=None)
def test_row_basis_spans_the_rows(rows):
    from hermlat.exactlinalg import inverse, is_integral, mat, mat_mul

    n = len(rows[0])
    # the index of the rows' span in Z^n, independently: the gcd of the
    # n x n minors, 0 when the rows do not have full column rank
    index = math.gcd(*(
        int(sympy.Matrix([rows[i] for i in pick]).det())
        for pick in itertools.combinations(range(len(rows)), n)
    ))
    if index == 0:
        with pytest.raises(ValueError, match="full column rank"):
            row_basis(rows)
        return
    basis = row_basis(rows)
    assert len(basis) == n
    assert all(basis[i][j] == 0 for i in range(n) for j in range(i))
    assert all(basis[i][i] > 0 for i in range(n))
    assert math.prod(basis[i][i] for i in range(n)) == index
    # every input row is an integer combination of the basis rows
    assert is_integral(mat_mul(mat(rows), inverse(mat(basis))))


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4], [-3, -6]],
    [[0, 1], [0, 5]],
    [[1, 0, 0], [0, 1, 0]],
    [[0, 0, 0]],
])
def test_row_basis_rejects_rank_deficient_rows(rows):
    with pytest.raises(ValueError, match="full column rank"):
        row_basis(rows)


def _log_transfer_norm_60_digits(nf, y):
    """log max_s |sigma_s(y)| / w_s at 60 digits, w_s = 1 at real and 2 at
    complex embeddings, from mpmath's roots of f."""
    with mpmath.workdps(60):
        coeffs = [mpmath.mpf(c.numerator) / c.denominator for c in reversed(y.coords)]
        norms = []
        for z in mpmath.polyroots(list(reversed(nf.defining_poly)), maxsteps=400, extraprec=600):
            weight = 1 if abs(z.imag) < mpmath.mpf("1e-40") else 2
            norms.append(abs(mpmath.polyval(coeffs, z)) / weight)
        return mpmath.log(max(norms))


def test_transfer_vector_log_norm_accuracy(all_fields):
    fields = {
        **all_fields,
        **{name: build_field(poly) for name, poly in CORPUS_POLYS.items()},
        **{name: _supplied_basis_order(name) for name in SUPPLIED_BASIS_ORDERS},
    }
    assert len(fields) == 20
    for name, nf in fields.items():
        y, log_norm = transfer_vector(nf)
        assert abs(log_norm - _log_transfer_norm_60_digits(nf, y)) <= 2e-13, name


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


@pytest.mark.parametrize("search", [transfer_vector, minkowski_codifferent_vector])
def test_field_vector_search_keeps_its_node_count(search):
    # over zeta5 each search needs 24 nodes; once a default-budget call has
    # memoized the vector, a smaller budget still raises, as on a fresh field,
    # and a budget below 1 is a ValueError before and after
    nf = load_field(FIXDIR / "field_zeta5.json")
    with pytest.raises(BudgetExhausted):
        search(nf, 23)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        search(nf, 0)
    found = search(nf)
    assert search(nf, 24) == found
    for budget in (10, 23):
        with pytest.raises(BudgetExhausted):
            search(nf, budget)
    with pytest.raises(ValueError, match="budget must be at least 1"):
        search(nf, 0)

