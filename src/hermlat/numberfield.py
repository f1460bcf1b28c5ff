"""Number fields F = Q[x]/(f) with exact ring arithmetic and numeric embeddings.

Elements are stored by their rational coordinates in the power basis of a
root theta of the monic defining polynomial f.  Traces and the trace Gram
matrix are computed exactly (via power sums of the roots, never floats), so
the discriminant of the given order is an exact integer.  Irreducibility of
f and its number of real roots are decided in exact integer arithmetic: a
distinct-degree factorisation modulo small primes certifies irreducibility
(sympy's exact test decides only the polynomials it leaves open), and a
Sturm sequence counts the real roots.  The embeddings are the roots of f,
seeded by ``numpy.roots``, refined together in ``decimal`` and certified
at a precision of ``prec_bits`` bits (``_compute_embeddings``, which also
gives the rule that sets a real part below the certified bound to exactly
0).  ``build_field`` tries 64 bits first and doubles the precision up to
4,096 bits until the roots certify.  The refined roots are kept on the
field as Decimals, and the lattice code reads them rounded to machine
complex numbers, which do not change with the precision.

All constructed objects are immutable after ``build_field`` returns and are
safe for unrestricted concurrent reads.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import exactlinalg as xl

# precisions build_field tries in turn, keeping the first that certifies
_PREC_BITS = (64, 128, 256, 512, 1024, 2048, 4096)
# Weierstrass steps of the root refinement before its certification decides
_MAX_STEPS = 100

# primes tried by the mod-p irreducibility certificate
_CERTIFICATE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)


class FieldError(ValueError):
    """Invalid defining data for a number field."""


@dataclass(frozen=True)
class FieldElement:
    """Element of a number field, exact rational coords in the power basis."""

    nf: "NumberField"
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.nf.degree:
            raise FieldError("coordinate vector has wrong length")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.nf, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.nf, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.nf, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            self._check(other)
            return self.nf._multiply(self, other)
        return FieldElement(self.nf, tuple(a * Fraction(other) for a in self.coords))

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldElement)
            and other.nf is self.nf
            and other.coords == self.coords
        )

    def __hash__(self):
        # the coordinates' hash is kept once computed: memo keys such as a
        # basis hash their elements on every lookup, at about 1 us a Fraction
        if "_coords_hash" not in self.__dict__:
            object.__setattr__(self, "_coords_hash", hash(self.coords))
        return hash((id(self.nf), self.__dict__["_coords_hash"]))

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("zero element of a number field")
        m = self.nf._mul_matrix(self)
        one = [Fraction(1)] + [Fraction(0)] * (self.nf.degree - 1)
        return FieldElement(self.nf, tuple(xl.solve(m, one)))

    def trace(self) -> Fraction:
        """Exact trace Tr_{F/Q} via precomputed power sums of the roots."""
        return sum(
            (c * self.nf._power_sums[k] for k, c in enumerate(self.coords)),
            Fraction(0),
        )

    def embed(self, idx: int) -> complex:
        """Value of the element under the idx-th embedding (machine precision)."""
        root = self.nf.embeddings[idx]
        acc = 0j
        for c in reversed(self.coords):
            acc = acc * root + float(c)
        return acc

    def _check(self, other):
        if other.nf is not self.nf:
            raise FieldError("elements of different fields")

    def __repr__(self):
        terms = [f"{c}*t^{k}" if k else f"{c}" for k, c in enumerate(self.coords) if c]
        return " + ".join(terms) if terms else "0"


@dataclass(frozen=True)
class NumberField:
    """A number field with a chosen order, embeddings and trace data.

    ``integral_basis`` holds the basis elements of the order, and
    ``basis_matrix_inv`` maps power-basis coordinates to coordinates in it.
    """

    defining_poly: tuple[int, ...]  # constant term first, monic
    degree: int
    integral_basis: tuple[FieldElement, ...] = field(repr=False)
    basis_matrix_inv: tuple[tuple[Fraction, ...], ...] = field(repr=False)
    trace_gram_matrix: tuple[tuple[Fraction, ...], ...] = field(repr=False)
    discriminant: int
    signature: tuple[int, int]
    embeddings: tuple[complex, ...] = field(repr=False)
    conj_index: tuple[int, ...] = field(repr=False)
    prec_bits: int  # the precision that certified the roots
    power_basis_order: bool  # True when the order is Z[theta], maximality unverified
    _power_sums: tuple[Fraction, ...] = field(repr=False)
    _embeddings_hp: tuple[tuple[Decimal, Decimal], ...] = field(repr=False)  # refined (re, im)
    # objects that depend only on the field, built on first use by ``memoized``
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    # -- construction helpers -------------------------------------------------

    def element(self, coords: Sequence) -> FieldElement:
        return FieldElement(self, tuple(Fraction(c) for c in coords))

    def zero(self) -> FieldElement:
        return self.element([0] * self.degree)

    def one(self) -> FieldElement:
        return self.element([1] + [0] * (self.degree - 1))

    def theta(self) -> FieldElement:
        if self.degree == 1:
            # theta is a rational root; express it in the 1-dim power basis
            return self.element([Fraction(-self.defining_poly[0], self.defining_poly[1])])
        return self.element([0, 1] + [0] * (self.degree - 2))

    @property
    def r1(self) -> int:
        return self.signature[0]

    @property
    def r2(self) -> int:
        return self.signature[1]

    def memoized(self, key, build):
        """``build()``, computed once per field and kept in ``memo`` under ``key``."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    def basis_embeddings(self, basis: Sequence[FieldElement]) -> tuple[tuple[complex, ...], ...]:
        """Row s holds the elements of ``basis`` under embedding s.  Computed
        once per basis."""
        return self.memoized(("basis_embeddings", tuple(basis)), lambda: tuple(
            tuple(b.embed(s) for b in basis) for s in range(self.degree)
        ))

    def combine(self, basis: Sequence[FieldElement], coords: Sequence) -> FieldElement:
        """The element sum_i coords[i] * basis[i], exactly."""
        acc = self.zero()
        for c, b in zip(coords, basis):
            if c:
                acc = acc + Fraction(c) * b
        return acc

    def from_integral_coords(self, coords: Sequence) -> FieldElement:
        """Element with the given exact coordinates in the integral basis."""
        return self.combine(self.integral_basis, coords)

    def theta_action(self, basis: Sequence[FieldElement]) -> tuple[tuple[int, ...], ...]:
        """Multiplication by theta in coordinates over ``basis``, as an integer matrix.

        The matrix is d * B^-1 C B, where the columns of B are the power-basis
        coordinates of ``basis``, C is the companion matrix of the defining
        polynomial and d is the least positive integer that makes it integral.
        The scale d leaves the Q-span of the images unchanged.  Computed once
        per basis.
        """
        return self.memoized(("theta_action", tuple(basis)), lambda: self._theta_action(basis))

    def _theta_action(self, basis: Sequence[FieldElement]) -> tuple[tuple[int, ...], ...]:
        b = xl.transpose([list(x.coords) for x in basis])
        m = xl.mat_mul(xl.inverse(b), xl.mat_mul(self._mul_matrix(self.theta()), b))
        d = math.lcm(*(x.denominator for row in m for x in row))
        return tuple(tuple(int(x * d) for x in row) for row in m)

    def to_integral_coords(self, x: FieldElement) -> list[Fraction]:
        return xl.mat_vec([list(r) for r in self.basis_matrix_inv], list(x.coords))

    # -- exact arithmetic internals -------------------------------------------

    def _multiply(self, a: FieldElement, b: FieldElement) -> FieldElement:
        r = self.degree
        prod = [Fraction(0)] * (2 * r - 1)
        for i, ai in enumerate(a.coords):
            if ai:
                for j, bj in enumerate(b.coords):
                    if bj:
                        prod[i + j] += ai * bj
        # theta^k = -theta^(k-r) * (a_0 + ... + a_(r-1) theta^(r-1)), top degree first
        for k in range(2 * r - 2, r - 1, -1):
            ck = prod[k]
            if ck:
                for j, aj in enumerate(self.defining_poly[:r]):
                    prod[k - r + j] -= ck * aj
        return FieldElement(self, tuple(prod[:r]))

    def _mul_matrix(self, a: FieldElement) -> xl.Matrix:
        """Matrix of multiplication by ``a`` in the power basis."""
        cols = []
        basis_el = self.one()
        theta = self.theta()
        for _ in range(self.degree):
            cols.append(list((a * basis_el).coords))
            basis_el = basis_el * theta
        return xl.transpose(cols)

    def __repr__(self):
        poly = " + ".join(
            f"{c}*x^{k}" if k else f"{c}" for k, c in enumerate(self.defining_poly) if c
        )
        return f"NumberField({poly}, disc={self.discriminant}, sig={self.signature})"


def _power_sums(coeffs: Sequence[int], upto: int) -> list[Fraction]:
    """Power sums p_k = sum(root^k) of a monic polynomial, Newton's identities."""
    r = len(coeffs) - 1
    a = [Fraction(c) for c in coeffs]  # a[j] multiplies x^j, a[r] == 1
    p = [Fraction(r)]
    for k in range(1, upto + 1):
        if k <= r:
            s = -k * a[r - k]
            for i in range(1, k):
                s -= a[r - i] * p[k - i]
        else:
            s = Fraction(0)
            for i in range(1, r + 1):
                s -= a[r - i] * p[k - i]
        p.append(s)
    return p


# -- exact decisions on the defining polynomial ----------------------------------
# Polynomials are coefficient lists, constant term first, with a non-zero
# leading coefficient; [] is the zero polynomial.


def _trim(a: list) -> list:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_divmod(a: Sequence, b: Sequence, p: int | None = None) -> tuple[list, list]:
    """Quotient and remainder of a by b (b != 0): over Q when ``p`` is None,
    with Fraction coefficients, and over F_p otherwise."""
    inv = 1 / Fraction(b[-1]) if p is None else pow(b[-1], -1, p)
    r = _trim(list(a))
    q = [0] * max(len(r) - len(b) + 1, 0)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] * inv if p is None else r[-1] * inv % p
        q[k] = c
        for i, bi in enumerate(b):
            r[k + i] -= c * bi
            if p is not None:
                r[k + i] %= p
        _trim(r)
    return q, r


def _gcd_mod_p(a: list, b: list, p: int) -> list:
    """Monic gcd of a and b over F_p."""
    while b:
        a, b = b, _poly_divmod(a, b, p)[1]
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _mulmod_p(a: list, b: list, m: list, p: int) -> list:
    """a * b mod (m, p)."""
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] += ai * bj
    return _poly_divmod([c % p for c in prod], m, p)[1]


def _powmod_p(a: list, e: int, m: list, p: int) -> list:
    """a^e mod (m, p), by square and multiply."""
    result = [1]
    while e:
        if e & 1:
            result = _mulmod_p(result, a, m, p)
        a = _mulmod_p(a, a, m, p)
        e >>= 1
    return result


def _factor_degrees_mod_p(f: list, p: int) -> list[int]:
    """Degrees of the irreducible factors over F_p of f, monic and squarefree
    mod p, by distinct-degree factorisation (Cohen, A Course in Computational
    Algebraic Number Theory, §3.4)."""
    degrees = []
    h = [0, 1]  # x^(p^d) mod f
    d = 0
    while 2 * (d + 1) <= len(f) - 1:
        d += 1
        h = _powmod_p(h, p, f, p)
        h_minus_x = h + [0] * (2 - len(h))
        h_minus_x[1] = (h_minus_x[1] - 1) % p
        g = _gcd_mod_p(f, _trim(h_minus_x), p)
        if len(g) > 1:  # the product of f's factors of degree d
            degrees += [d] * ((len(g) - 1) // d)
            f = _poly_divmod(f, g, p)[0]
            h = _poly_divmod(h, f, p)[1]
    if len(f) > 1:
        degrees.append(len(f) - 1)
    return degrees


def _irreducible_mod_primes(coeffs: Sequence[int]) -> bool:
    """True when factorisations modulo small primes prove the monic f of
    degree r >= 2 irreducible over Q.

    A monic factor of f over Z of degree d reduces mod p to a product of some
    of f's irreducible factors mod p, so d is a sum of some of their degrees
    for every prime p that keeps f squarefree.  When no d in 1..r-1 is such a
    sum for all the primes tried, f has no proper factor.  False means
    undecided: f is reducible, or no prime tried decides it (x^4 + 1 has no
    prime at all, since it splits into factors of degree <= 2 mod every p).
    """
    possible = set(range(1, len(coeffs) - 1))
    for p in _CERTIFICATE_PRIMES:
        f = [c % p for c in coeffs]
        df = _trim([k * c % p for k, c in enumerate(f)][1:])
        if len(_gcd_mod_p(f, df, p)) > 1:
            continue  # p divides the discriminant of f
        sums = {0}
        for e in _factor_degrees_mod_p(f, p):
            sums |= {s + e for s in sums}
        possible &= sums
        if not possible:
            return True
    return False


def _irreducible_by_sympy(coeffs: Sequence[int]) -> bool:
    """sympy's exact irreducibility test, for the f the mod-p certificate
    leaves undecided."""
    import sympy

    return sympy.Poly(list(reversed(coeffs)), sympy.symbols("x"), domain="QQ").is_irreducible


def _real_root_count(coeffs: Sequence[int]) -> int:
    """Number of distinct real roots of f, from a Sturm sequence over Q: the
    sign changes of f, f', -rem(f, f'), ... at -infinity minus those at
    +infinity, read off the leading coefficients."""
    seq = [list(coeffs), [k * c for k, c in enumerate(coeffs)][1:]]
    while True:
        rem = _poly_divmod(seq[-2], seq[-1])[1]
        if not rem:
            break
        seq.append([-c for c in rem])

    def changes(signs):
        return sum(1 for a, b in zip(signs, signs[1:]) if a != b)

    at_plus = [a[-1] > 0 for a in seq]
    at_minus = [(a[-1] > 0) == (len(a) % 2 == 1) for a in seq]
    return changes(at_minus) - changes(at_plus)


def _working_digits(prec_bits: int) -> int:
    """Decimal digits the roots are refined to and kept at, for ``prec_bits``."""
    return max(30, int(prec_bits * 0.35) + 25)


# Complex numbers in the root refinement are (re, im) pairs of Decimals,
# computed in the decimal context that ``_compute_embeddings`` sets.


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _cdiv(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def _cabs_sq(a):
    return a[0] * a[0] + a[1] * a[1]


def _poly_at(coeffs: Sequence[int], z):
    """f(z) by Horner's rule."""
    acc = (Decimal(0), Decimal(0))
    for c in reversed(coeffs):
        re, im = _cmul(acc, z)
        acc = (re + c, im)
    return acc


def _refine_roots(coeffs: Sequence[int], digits: int) -> list:
    """All roots of f, refined together by Weierstrass (Durand-Kerner) steps
    from the float roots of ``numpy.roots``.

    Each step moves every root z_i by f(z_i) / prod_(j != i) (z_i - z_j);
    the product repels the iterates from each other, so two of them are not
    drawn to one simple root.  The steps stop once every move is below
    10^(10 - digits) times the root's size, a little above the rounding
    level of f(z) at ``digits`` digits; the certification in
    ``_compute_embeddings`` decides whether the result is good enough.
    """
    zs = [(Decimal(z.real), Decimal(z.imag)) for z in np.roots(coeffs[::-1]).astype(complex)]
    tol_sq = Decimal(10) ** (20 - 2 * digits)
    for _ in range(_MAX_STEPS):
        converged = True
        for i, z in enumerate(zs):
            q = (Decimal(1), Decimal(0))
            for j, w in enumerate(zs):
                if j != i:
                    q = _cmul(q, (z[0] - w[0], z[1] - w[1]))
            step = _cdiv(_poly_at(coeffs, z), q)
            zs[i] = (z[0] - step[0], z[1] - step[1])
            converged = converged and _cabs_sq(step) <= tol_sq * (1 + _cabs_sq(z))
        if converged:
            break
    return zs


def _compute_embeddings(coeffs: Sequence[int], prec_bits: int):
    """Roots of f ordered deterministically: real ascending, then conjugate
    pairs by (Re, Im) with the positive-imaginary root first.

    The number of real roots is counted exactly by a Sturm sequence; f is
    irreducible, hence squarefree, so every root is simple and the count is
    the number of real embeddings.  The real/complex split therefore never
    depends on a float threshold.

    The roots are refined together in ``decimal`` at ``_working_digits``
    digits (``_refine_roots``) and certified at eps = 2^-prec_bits: the
    residual |f(z)| is at most eps * height * (1 + |z|)^r, and two roots lie
    more than 4 eps (1 + |z|) apart.  Otherwise FieldError is raised.

    Zero rule: a real part at most eps (1 + |z|) is set to exactly 0; where
    the true value is 0 the refinement leaves about 10^-digits of noise.
    Re z = 0 for a root z only when f(-x) = +-f(x), since -zbar is then a
    common root of f and f(-x), and an irreducible f that shares a root
    with f(-x) divides it.  For such f, -zbar is a root of f, so a nonzero
    real part is half the distance between two roots, which the separation
    check puts above 2 eps (1 + |z|); for any other f a real part that
    small raises FieldError.  An imaginary part, half the distance from z
    to zbar, is never that small; the real roots keep their real parts only.

    For a small-height f the separation check cannot fire at 64 bits or
    more: Mahler's bound on the distance between two roots,
    sqrt(3) |disc f|^(1/2) r^(-(r+2)/2) ||f||_2^(1-r), exceeds 2^-47 for
    every f of degree at most 8 with coefficients in [-9, 9].  For the real
    part of a root of any other f the same bound, applied to f(x) f(-x),
    gives only 2^-176, so there the FieldError is what guarantees the rule.

    Returns the machine-precision embeddings (each component the correctly
    rounded double of the refined value), the refined roots as (re, im)
    Decimal pairs, ``conj_index`` and the signature.
    """
    r = len(coeffs) - 1
    n_real = _real_root_count(coeffs)
    digits = _working_digits(prec_bits)
    with decimal.localcontext(decimal.Context(prec=digits)):
        try:
            roots = _refine_roots(coeffs, digits)
        except ArithmeticError:  # two iterates coincide
            raise FieldError(f"roots of f are not separated at precision {prec_bits}") from None
        eps = Decimal(2) ** -prec_bits
        size = [1 + _cabs_sq(z).sqrt() for z in roots]  # 1 + |z|

        height = max(abs(c) for c in coeffs)
        for z, sz in zip(roots, size):
            residual = _cabs_sq(_poly_at(coeffs, z)).sqrt()
            if residual > eps * height * sz**r:
                raise FieldError(
                    f"embedding residual {residual:.3e} exceeds certified bound at precision {prec_bits}"
                )
        for i in range(r):
            for j in range(i):
                gap = _cabs_sq((roots[i][0] - roots[j][0], roots[i][1] - roots[j][1])).sqrt()
                if gap <= 4 * eps * max(size[i], size[j]):
                    raise FieldError(f"roots of f are not separated at precision {prec_bits}")

        symmetric = not any(coeffs[0::2]) or not any(coeffs[1::2])  # f(-x) = +-f(x)

        def real_part(i):
            re = roots[i][0]
            if abs(re) > eps * size[i]:
                return re
            if not symmetric:
                raise FieldError(
                    f"a root's real part is not separated from 0 at precision {prec_bits}"
                )
            return Decimal(0)

        # classify: the n_real roots with smallest |Im| are the real ones
        order = sorted(range(r), key=lambda i: abs(roots[i][1]))
        real_idx = set(order[:n_real])
        reals = sorted(real_part(i) for i in real_idx)
        complexes = [(real_part(i), roots[i][1]) for i in range(r) if i not in real_idx]
        pos = sorted(z for z in complexes if z[1] > 0)
        if 2 * len(pos) != len(complexes):
            raise FieldError("complex roots do not split into conjugate pairs")

    embeddings_hp = [(x, Decimal(0)) for x in reals]
    conj_index = list(range(len(reals)))
    for z in pos:
        i = len(embeddings_hp)
        embeddings_hp += [z, (z[0], z[1].copy_negate())]
        conj_index.extend([i + 1, i])
    embeddings = tuple(complex(float(re), float(im)) for re, im in embeddings_hp)
    return embeddings, tuple(embeddings_hp), tuple(conj_index), (n_real, len(pos))


def build_field(poly: Sequence[int], integral_basis: Sequence[Sequence] | None = None) -> NumberField:
    """Construct a number field from a monic integral polynomial.

    ``poly`` lists coefficients constant term first.  When ``integral_basis``
    is omitted the power basis Z[theta] is used and the resulting order may be
    non-maximal (flagged on the field).  A supplied basis is given row-wise,
    each row the power-basis coordinates of one basis element; it must contain
    Z[theta] and have exact integral trace pairings.

    The roots are certified at the first of 64, 128, ..., 4,096 bits at
    which ``_compute_embeddings`` succeeds, recorded as ``prec_bits``.  For
    an irreducible f Mahler's root-separation bound guarantees that some
    finite precision does; past 4,096 bits the last FieldError is raised.
    """
    coeffs = [int(c) for c in poly]
    if len(coeffs) < 2:
        raise FieldError("defining polynomial must have degree >= 1")
    if coeffs[-1] != 1:
        raise FieldError("defining polynomial must be monic")
    r = len(coeffs) - 1

    if r > 1 and not (_irreducible_mod_primes(coeffs) or _irreducible_by_sympy(coeffs)):
        raise FieldError("defining polynomial is reducible over Q")

    power_sums = tuple(_power_sums(coeffs, max(2 * r - 2, 1)))

    for prec_bits in _PREC_BITS:
        try:
            embeddings, embeddings_hp, conj_index, signature = _compute_embeddings(coeffs, prec_bits)
        except FieldError:
            if prec_bits == _PREC_BITS[-1]:
                raise
        else:
            break
    if signature[0] + 2 * signature[1] != r:
        raise FieldError("signature does not match the degree")

    if integral_basis is None:
        basis_rows = xl.identity(r)
    else:
        basis_rows = [[Fraction(c) for c in row] for row in integral_basis]
        if len(basis_rows) != r or any(len(row) != r for row in basis_rows):
            raise FieldError("integral basis must be an r x r matrix")
    basis_cols = xl.transpose(basis_rows)

    try:
        basis_cols_inv = xl.inverse(basis_cols)
    except ZeroDivisionError:
        raise FieldError("integral basis vectors are linearly dependent") from None

    # the basis must contain Z[theta]: power-basis vectors must have integer
    # coordinates in the supplied basis
    if integral_basis is not None and not xl.is_integral(basis_cols_inv):
        raise FieldError("supplied basis does not contain Z[theta]")

    # trace form B^T H B, where H_ij = Tr(theta^(i+j)) = p_(i+j) on the power basis
    hankel = [[power_sums[i + j] for j in range(r)] for i in range(r)]
    gram = xl.mat_mul(xl.mat_mul(basis_rows, hankel), basis_cols)
    if integral_basis is not None and not all(
        x.denominator == 1 for row in gram for x in row
    ):
        raise FieldError("supplied basis has non-integral trace pairings")

    disc = xl.det(gram)
    if disc.denominator != 1:
        raise FieldError("discriminant of the given order is not an integer")
    if disc == 0:
        raise FieldError("degenerate trace form")

    nf = NumberField(
        defining_poly=tuple(coeffs),
        degree=r,
        integral_basis=(),
        basis_matrix_inv=tuple(tuple(row) for row in basis_cols_inv),
        trace_gram_matrix=tuple(tuple(row) for row in gram),
        discriminant=int(disc),
        signature=signature,
        embeddings=embeddings,
        conj_index=conj_index,
        prec_bits=prec_bits,
        power_basis_order=integral_basis is None,
        _power_sums=power_sums,
        _embeddings_hp=embeddings_hp,
    )
    # the basis elements refer to the field, so they are set once it exists
    object.__setattr__(nf, "integral_basis", tuple(FieldElement(nf, tuple(row)) for row in basis_rows))
    return nf


def trace_gram(nf: NumberField) -> list[list[Fraction]]:
    """Exact matrix of trace pairings on the integral basis; det equals disc."""
    return [list(row) for row in nf.trace_gram_matrix]


def duality_gap_constant(n: int, nf: NumberField) -> float:
    """Duality-gap constant: (1/r)log|disc| + (3/2)log N + (5/2)log r - (r2/r)log pi."""
    if n < 1:
        raise ValueError("rank must be at least 1")
    r = nf.degree
    return (
        math.log(abs(nf.discriminant)) / r
        + 1.5 * math.log(n)
        + 2.5 * math.log(r)
        - nf.r2 / r * math.log(math.pi)
    )
