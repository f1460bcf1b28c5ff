import json
import math
import os
import random
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction
from functools import cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hermlat import FieldError, build_field, duality_gap_constant, numberfield, trace_gram
from hermlat.fixtures import _FIELD_POLYS

ROOT = Path(__file__).resolve().parent.parent

# the extra fields of the ROADMAP.md measurements, none of them shipped,
# constant term first
CORPUS_POLYS = {
    "zeta7": [1, 1, 1, 1, 1, 1, 1],
    "zeta9": [1, 0, 0, 1, 0, 0, 1],
    "x^3 - 2": [-2, 0, 0, 1],
    "x^3 + x - 1": [-1, 1, 0, 1],
    "x^3 - x^2 - 2x + 1": [1, -2, -1, 1],
    "x^3 - x^2 + x + 1": [1, 1, -1, 1],
    "x^4 - 2": [-2, 0, 0, 0, 1],
    "x^2 - 3": [-3, 0, 1],
    "x^2 - 5": [-5, 0, 1],
}

# polynomials the mod-p certificate cannot decide, with sympy's verdict.  The
# Galois groups of the first three are (Z/2)^2 and that of x^8 + 1 is
# Z/2 x Z/4, so modulo every prime they split into factors of equal degree at
# most 2, resp. 4, some of which multiply to degree 2, resp. 4; x^4 + 4 is reducible
SYMPY_DECIDED = {
    "x^4 + 1": ([1, 0, 0, 0, 1], True),
    "x^4 - x^2 + 1": ([1, 0, -1, 0, 1], True),
    "x^4 - 10x^2 + 1": ([1, 0, -10, 0, 1], True),
    "x^8 + 1": ([1, 0, 0, 0, 0, 0, 0, 0, 1], True),
    "x^4 + 4": ([4, 0, 0, 0, 1], False),
}


def test_build_rational_field(field_q):
    assert field_q.degree == 1
    assert field_q.signature == (1, 0)
    assert field_q.discriminant == 1


def test_build_gaussian_field(field_qi):
    assert field_qi.signature == (0, 1)
    assert field_qi.discriminant == -4
    assert trace_gram(field_qi) == [[2, 0], [0, -2]]


def test_build_sqrt2_field(field_sqrt2):
    assert field_sqrt2.signature == (2, 0)
    assert field_sqrt2.discriminant == 8
    assert trace_gram(field_sqrt2) == [[2, 0], [0, 4]]


def test_non_monic_rejected():
    with pytest.raises(FieldError):
        build_field([1, 2])


def test_reducible_rejected():
    # x^2 - 1 has a rational root; x^4 + 4 = (x^2 + 2x + 2)(x^2 - 2x + 2) and
    # x^4 + 3x^2 + 2 = (x^2 + 1)(x^2 + 2) have none
    for poly in ([-1, 0, 1], [4, 0, 0, 0, 1], [2, 0, 3, 0, 1]):
        with pytest.raises(FieldError, match="reducible"):
            build_field(poly)
    # x^4 + 1 is irreducible over Q, though it factors modulo every prime
    assert build_field([1, 0, 0, 0, 1]).signature == (0, 2)


def _oracle_corpus(count: int, seed: int) -> list[list[int]]:
    """Seeded monic integer polynomials of degree 1-8; about a third are
    products of two monic factors."""
    rng = random.Random(seed)
    corpus = []
    for _ in range(count):
        if rng.random() < 0.3:
            a = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1]
            b = [rng.randint(-5, 5) for _ in range(rng.randint(1, 4))] + [1]
            f = [0] * (len(a) + len(b) - 1)
            for i, ai in enumerate(a):
                for j, bj in enumerate(b):
                    f[i + j] += ai * bj
        else:
            f = [rng.randint(-9, 9) for _ in range(rng.randint(1, 8))] + [1]
        corpus.append(f)
    return corpus


def test_exact_decisions_match_sympy():
    # the certificate never calls a reducible f irreducible, and it decides
    # every irreducible member of the corpus; the Sturm count is the number of
    # distinct real roots, squarefree or not
    x = sympy.symbols("x")
    reducible = 0
    for f in _oracle_corpus(300, seed=13):
        poly = sympy.Poly(list(reversed(f)), x, domain="QQ")
        assert numberfield._irreducible_mod_primes(f) == poly.is_irreducible, f
        assert numberfield._real_root_count(f) == len(poly.real_roots(multiple=False)), f
        reducible += not poly.is_irreducible
    assert reducible > 60


@pytest.fixture
def sympy_calls(monkeypatch):
    """Records every polynomial that reaches sympy's irreducibility test."""
    calls = []
    original = numberfield._irreducible_by_sympy

    def spy(coeffs):
        calls.append(list(coeffs))
        return original(coeffs)

    monkeypatch.setattr(numberfield, "_irreducible_by_sympy", spy)
    return calls


@pytest.mark.parametrize("name", SYMPY_DECIDED)
def test_sympy_decides_what_the_certificate_leaves_open(name, sympy_calls):
    poly, irreducible = SYMPY_DECIDED[name]
    if irreducible:
        build_field(poly)
    else:
        with pytest.raises(FieldError, match="reducible"):
            build_field(poly)
    assert sympy_calls == [poly]


def test_certificate_decides_shipped_and_corpus_fields(sympy_calls):
    polys = [list(p) for p in _FIELD_POLYS.values()] + list(CORPUS_POLYS.values())
    for poly in polys:
        build_field(poly)
    assert sympy_calls == []


def test_shipped_paths_do_not_import_sympy():
    # a fresh interpreter: this test session imports sympy itself
    script = """
import json, sys
from hermlat import cli
from hermlat.fixtures import shipped_field, shipped_field_names
for name in shipped_field_names():
    shipped_field(name)
code = cli.main(["check", "--fixture", "fixtures/bundle_gaussian_rank1.json", "--statement", "all"])
print(json.dumps({"code": code, "sympy": "sympy" in sys.modules, "mpmath": "mpmath" in sys.modules}))
"""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, "-c", script], cwd=ROOT, env=env, capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1]) == {"code": 0, "sympy": False, "mpmath": False}


def test_degree_zero_rejected():
    with pytest.raises(FieldError):
        build_field([1])


def test_basis_not_containing_power_basis_rejected():
    # basis {2, 2i} does not contain 1
    with pytest.raises(FieldError):
        build_field([1, 0, 1], integral_basis=[[2, 0], [0, 2]])


def test_non_integral_trace_pairing_rejected():
    # {1, i/2} contains Z[i] coordinates-wise? it does not contain Z[i]... use
    # a basis that contains Z[theta] but has fractional pairings: {1, theta/1}
    # scaled down cannot contain Z[theta]; supply {1/2, i/2} instead
    with pytest.raises(FieldError):
        build_field([1, 0, 1], integral_basis=[["1/2", 0], [0, "1/2"]])


def test_user_basis_accepted_eisenstein():
    # x^2 + 3 with basis {1, (1 + theta)/2} is the maximal order, disc -3
    nf = build_field([3, 0, 1], integral_basis=[[1, 0], ["1/2", "1/2"]])
    assert nf.discriminant == -3
    assert not nf.power_basis_order


def test_power_basis_flag(field_sqrt2):
    assert field_sqrt2.power_basis_order


def test_signature_consistency(all_fields):
    for nf in all_fields.values():
        r1, r2 = nf.signature
        assert r1 + 2 * r2 == nf.degree


def test_trace_gram_det_is_disc(all_fields):
    from hermlat.exactlinalg import det

    for nf in all_fields.values():
        assert det([list(r) for r in nf.trace_gram_matrix]) == nf.discriminant


def test_embeddings_conjugation_stable(all_fields):
    for nf in all_fields.values():
        for s in range(nf.degree):
            sbar = nf.conj_index[s]
            assert nf.conj_index[sbar] == s
            assert abs(nf.embeddings[sbar] - nf.embeddings[s].conjugate()) < 1e-12


def test_embedding_residuals(all_fields):
    for nf in all_fields.values():
        coeffs = nf.defining_poly
        for root in nf.embeddings:
            val = sum(c * root**k for k, c in enumerate(coeffs))
            assert abs(val) < 1e-12


# float embeddings as float.hex, with conj_index and signature, recorded with
# the earlier root finder (mpmath.polyroots) for the shipped and corpus fields
PINNED_EMBEDDINGS = json.loads((ROOT / "tests" / "golden" / "embeddings.json").read_text())


@pytest.mark.parametrize("bits", [64, 256])
@pytest.mark.parametrize("name", PINNED_EMBEDDINGS)
def test_embeddings_pinned(name, bits):
    pinned = PINNED_EMBEDDINGS[name]
    embeddings, _, conj_index, signature = numberfield._compute_embeddings(pinned["poly"], bits)
    assert [[z.real.hex(), z.imag.hex()] for z in embeddings] == pinned["embeddings"]
    assert list(conj_index) == pinned["conj_index"]
    assert list(signature) == pinned["signature"]
    nf = build_field(pinned["poly"])
    assert (nf.embeddings, nf.conj_index, nf.signature) == (embeddings, conj_index, signature)


def _random_irreducible(count: int, seed: int) -> list[list[int]]:
    """Seeded irreducible monic polynomials of degree 2-8, coefficients in [-9, 9]."""
    rng = random.Random(seed)
    x = sympy.symbols("x")
    polys = []
    while len(polys) < count:
        f = [rng.randint(-9, 9) for _ in range(rng.randint(2, 8))] + [1]
        if sympy.Poly(list(reversed(f)), x, domain="QQ").is_irreducible:
            polys.append(f)
    return polys


RANDOM_POLYS = _random_irreducible(24, seed=2)


@cache
def _reference_roots(poly: tuple[int, ...]) -> list:
    """Roots of f in the embedding order at 100 digits: mpmath.polyroots, three
    Newton steps, components below 1e-60 set to 0; real ascending, then
    conjugate pairs by (Re, Im) with the positive-imaginary root first."""
    with mpmath.workdps(100):
        coeffs = list(reversed(poly))
        roots = []
        for z in mpmath.polyroots(coeffs, maxsteps=200, extraprec=400):
            for _ in range(3):
                value, slope = mpmath.polyval(coeffs, z, derivative=True)
                z -= value / slope
            re, im = (c if abs(c) > mpmath.mpf("1e-60") else mpmath.mpf(0) for c in (z.real, z.imag))
            roots.append((re, im))
        reals = sorted(re for re, im in roots if im == 0)
        upper = sorted((re, im) for re, im in roots if im > 0)
        ordered = [mpmath.mpc(re) for re in reals]
        for re, im in upper:
            ordered += [mpmath.mpc(re, im), mpmath.mpc(re, -im)]
    return ordered


@pytest.mark.parametrize("bits", [64, 256])
def test_embeddings_match_high_precision_reference(bits):
    for poly in RANDOM_POLYS:
        embeddings, _, conj_index, signature = numberfield._compute_embeddings(poly, bits)
        reference = _reference_roots(tuple(poly))
        # correctly rounded doubles of the 100-digit roots
        expected = [complex(float(z.real), float(z.imag)) for z in reference]
        assert [(z.real.hex(), z.imag.hex()) for z in embeddings] == [
            (z.real.hex(), z.imag.hex()) for z in expected
        ], poly
        degree = len(poly) - 1
        n_real = sum(1 for z in expected if z.imag == 0)
        assert signature == (n_real, (degree - n_real) // 2), poly
        assert conj_index == tuple(
            s if s < n_real else s + 1 - 2 * ((s - n_real) % 2) for s in range(degree)
        ), poly
        nf = build_field(poly)
        assert (nf.embeddings, nf.conj_index, nf.signature) == (embeddings, conj_index, signature)


@pytest.mark.parametrize("bits", [64, 256])
def test_refined_roots_match_high_precision_reference(bits):
    # the refined roots, kept on the field as Decimals, to 2^-bits
    for poly in RANDOM_POLYS[:8]:
        embeddings, embeddings_hp, _, _ = numberfield._compute_embeddings(poly, bits)
        with mpmath.workdps(100):
            for s, want in enumerate(_reference_roots(tuple(poly))):
                re, im = embeddings_hp[s]
                got = mpmath.mpc(str(re), str(im))
                assert abs(got - want) <= mpmath.mpf(2) ** -bits * (1 + abs(want)), (poly, s)
        assert build_field(poly).embeddings == embeddings


def test_zero_rule():
    # the purely imaginary roots of the even x^4 - 2 and x^2 + 49 get real part +0.0
    assert [z.real.hex() for z in build_field([-2, 0, 0, 0, 1]).embeddings[2:]] == ["0x0.0p+0"] * 2
    embeddings = numberfield._compute_embeddings([49, 0, 1], 4)[0]
    assert embeddings[0].real.hex() == "0x0.0p+0"
    assert build_field([49, 0, 1]).embeddings == embeddings
    # x^2 + x + 49 is not even, so no root has real part 0; at 4 bits its real
    # part -1/2 lies within 2^-4 (1 + |z|) = 1/2 of 0, at 64 bits it does not
    with pytest.raises(FieldError, match="real part"):
        numberfield._compute_embeddings([49, 1, 1], 4)
    assert build_field([49, 1, 1]).embeddings[0].real == -0.5


# Mignotte's x^6 - 2 (10^5 x - 1)^2: two real roots near 10^-5 lie 1.4e-20
# apart, closer than the 4 * 2^-64 (1 + |z|) that 64 bits can separate
MIGNOTTE = [-2, 400000, -20000000000, 0, 0, 0, 1]


def test_precision_rises_until_the_roots_certify():
    with pytest.raises(FieldError, match="not separated at precision 64"):
        numberfield._compute_embeddings(MIGNOTTE, 64)
    nf = build_field(MIGNOTTE)
    assert nf.prec_bits == 128
    assert nf.embeddings == numberfield._compute_embeddings(MIGNOTTE, 256)[0]
    assert build_field([1, 0, 1]).prec_bits == 64


def test_root_certificates(monkeypatch):
    # two roots on one point fail the separation check, a point off the
    # roots fails the residual check, and coincident seeds stop the
    # refinement; at every precision, so build_field gives up at 4,096 bits
    one = (Decimal(0), Decimal(1))
    monkeypatch.setattr(numberfield, "_refine_roots", lambda coeffs, digits: [one, one])
    with pytest.raises(FieldError, match="not separated at precision 4096$"):
        build_field([1, 0, 1])
    monkeypatch.setattr(
        numberfield, "_refine_roots", lambda coeffs, digits: [(Decimal(0), Decimal("1.001")), one]
    )
    with pytest.raises(FieldError, match="residual .* at precision 4096$"):
        build_field([1, 0, 1])
    monkeypatch.undo()
    monkeypatch.setattr(numberfield.np, "roots", lambda coeffs: np.array([1j, 1j]))
    with pytest.raises(FieldError, match="not separated at precision 4096$"):
        build_field([1, 0, 1])


def test_element_arithmetic_exact(field_qi):
    a = field_qi.element([Fraction(1, 2), 3])
    b = field_qi.element([2, Fraction(-1, 3)])
    prod = a * b
    # (1/2 + 3i)(2 - i/3) = 1 - i/6 + 6i + 1 = 2 + 35i/6
    assert prod.coords == (Fraction(2), Fraction(35, 6))
    inv = a.inverse()
    assert (a * inv).coords == (Fraction(1), Fraction(0))


def test_trace_values(field_sqrt2):
    theta = field_sqrt2.theta()
    assert theta.trace() == 0
    assert (theta * theta).trace() == 4
    assert field_sqrt2.one().trace() == 2


def test_duality_gap_constant_values(field_q, field_qi):
    assert duality_gap_constant(1, field_q) == 0.0
    assert math.isclose(duality_gap_constant(4, field_q), 1.5 * math.log(4), rel_tol=1e-12)
    expected = (
        0.5 * math.log(4) + 1.5 * math.log(2) + 2.5 * math.log(2) - 0.5 * math.log(math.pi)
    )
    assert math.isclose(duality_gap_constant(2, field_qi), expected, rel_tol=1e-12)
    with pytest.raises(ValueError):
        duality_gap_constant(0, field_q)


def test_duality_gap_constant_against_high_precision(all_fields):
    # 100-digit independent evaluation, agreement to 1e-12
    with mpmath.workdps(100):
        for nf in all_fields.values():
            for n in (1, 2, 5, 16):
                expected = (
                    mpmath.log(abs(nf.discriminant)) / nf.degree
                    + mpmath.mpf(3) / 2 * mpmath.log(n)
                    + mpmath.mpf(5) / 2 * mpmath.log(nf.degree)
                    - mpmath.mpf(nf.r2) / nf.degree * mpmath.log(mpmath.pi)
                )
                assert abs(duality_gap_constant(n, nf) - float(expected)) < 1e-12


@given(n=st.integers(min_value=1, max_value=1000))
@settings(max_examples=50, deadline=None)
def test_duality_gap_constant_strictly_increasing(n):
    nf = build_field([1, 0, 1])
    assert duality_gap_constant(n + 1, nf) > duality_gap_constant(n, nf)


def test_mixed_field_arithmetic_rejected(field_q, field_qi):
    with pytest.raises(FieldError):
        field_q.one() + field_qi.one()


def test_theta_action_supplied_basis():
    # theta = sqrt(-3), w = (1 + theta)/2: theta*1 = -1 + 2w, theta*w = -2 + w
    nf = build_field([3, 0, 1], integral_basis=[[1, 0], ["1/2", "1/2"]])
    assert nf.theta_action(nf.integral_basis) == ((-1, -2), (2, 1))
    # over {1/2, theta/4}: theta/2 = 2*(theta/4), -3/4 = -(3/2)*(1/2); scaled by 2
    basis = [nf.element(["1/2", 0]), nf.element([0, "1/4"])]
    assert nf.theta_action(basis) == ((0, -3), (4, 0))


def test_shipped_field_checks_its_discriminant(monkeypatch):
    from hermlat import fixtures

    monkeypatch.setattr(fixtures, "_FIELD_DISCS", {**fixtures._FIELD_DISCS, "sqrt2": 7})
    monkeypatch.setattr(fixtures, "_cache", {})
    with pytest.raises(FieldError, match="discriminant 8 != 7"):
        fixtures.shipped_field("sqrt2")


def test_mat_mul_checks_shapes():
    from hermlat.exactlinalg import mat, mat_mul

    assert mat_mul(mat([[1, 2]]), mat([[3], [4]])) == mat([[11]])
    with pytest.raises(ValueError, match="1x2 matrix by a 1x2"):
        mat_mul(mat([[1, 2]]), mat([[3, 4]]))
