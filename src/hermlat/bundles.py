"""Hermitian bundles over a ring of integers and the Z-lattices they define.

A bundle is a free rank-N module over the ring of integers of F together
with one hermitian positive-definite Gram H_s per complex embedding s, the
family being invariant under complex conjugation; ``dual_bundle`` gives
E* the dual metric, with Grams conj(H_s^-1), and ``HermitianBundle.dual``
keeps it per bundle.  ``NormedLattice`` is the lattice type of every
lattice the minima engine runs on, and ``assemble_forms`` builds their
forms from such a family over a Z-basis (b_i) of one module slot: with
A_s the N x (N*r) matrix holding sigma_s(b_i) in row j, columns j*r + i,
the form at s is Re(A_s^H H_s A_s), and Q(x) = sum_s |x|_s^2 is their
sum.  Restriction of scalars uses the integral basis; ``hermlat.duality``
uses the codifferent basis for the trace dual and a one-slot Gram
[[t_s^2]] for ideal lattices.

Everything is immutable after construction, apart from a bundle's kept
dual, a lattice's kept places and its memo of deterministic derived data;
concurrent reads are safe.  The memo's searched balls (``hermlat.minima``)
are immutable sorted arrays, so any number of readers may read one at
once.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .numberfield import FieldElement, NumberField

HERMITIAN_TOL = 1e-12
CONJSYM_TOL = 1e-12
# random_bundle's draws: each Gram is a Gaussian A^H A plus RANDOM_FLOOR
# times the identity, and an unreachable cond_max is refused after
# RANDOM_MAX_DRAWS of them.  Rank-3 bundles over a totally real cubic field
# with cond_max = 10, as test fixtures draw them, took 182 draws on average
# and 2,025 at most in 100 tries; at the default cond_max no rank up to 24
# took more than 52.
RANDOM_FLOOR = 1e-3
RANDOM_MAX_DRAWS = 10_000


class BundleError(ValueError):
    """Invalid metric data for a hermitian bundle."""


class PrecisionError(RuntimeError):
    """Assembled numerical data failed its consistency checks."""


@dataclass(frozen=True)
class HermitianBundle:
    """Free module of rank N over O_F with per-embedding hermitian metrics."""

    nf: NumberField
    rank: int
    grams: tuple[np.ndarray, ...]  # indexed by embedding, each N x N complex

    @functools.cached_property
    def dual(self) -> "HermitianBundle":
        """``dual_bundle(self)``, built on first use and kept: the dual bundle
        and the trace dual (``hermlat.duality.trace_dual``) of one bundle
        share its Grams."""
        return dual_bundle(self)

    def scaled(self, factor: float) -> "HermitianBundle":
        """Bundle with every Gram multiplied by factor (norms scale by sqrt)."""
        return HermitianBundle(self.nf, self.rank, tuple(factor * h for h in self.grams))

    def __repr__(self):
        return f"HermitianBundle(rank={self.rank}, field={self.nf!r})"


def make_bundle(nf: NumberField, rank: int, grams: Sequence[np.ndarray]) -> HermitianBundle:
    """Validate and build a bundle: finite, hermitian, positive definite, conjugation-invariant."""
    if rank < 1:
        raise BundleError("rank must be at least 1")
    if len(grams) != nf.degree:
        raise BundleError(f"need one Gram per embedding ({nf.degree}), got {len(grams)}")
    mats = []
    for s, g in enumerate(grams):
        h = np.asarray(g, dtype=complex)
        if h.shape != (rank, rank):
            raise BundleError(f"Gram {s} has shape {h.shape}, expected {(rank, rank)}")
        if not np.isfinite(h).all():
            raise BundleError(f"Gram {s} has an entry that is not finite")
        scale = max(1.0, float(np.abs(h).max()))
        if np.abs(h - h.conj().T).max() > HERMITIAN_TOL * scale:
            raise BundleError(f"Gram {s} is not hermitian")
        h = (h + h.conj().T) / 2
        try:
            np.linalg.cholesky(h)
        except np.linalg.LinAlgError:
            raise BundleError(f"Gram {s} is not positive definite") from None
        mats.append(h)
    for s in range(nf.degree):
        sbar = nf.conj_index[s]
        scale = max(1.0, float(np.abs(mats[s]).max()))
        if np.abs(mats[sbar] - mats[s].conj()).max() > CONJSYM_TOL * scale:
            raise BundleError(
                f"Gram family violates conjugation invariance between embeddings {s} and {sbar}"
            )
    return HermitianBundle(nf, rank, tuple(m.copy() for m in mats))


def random_bundle(nf: NumberField, rank: int, rng: np.random.Generator,
                  cond_max: float = 1e3) -> HermitianBundle:
    """Random conjugation-invariant bundle with condition number <= cond_max.

    Gram at a representative embedding is A*A^H-style Gaussian plus a small
    multiple of the identity; the conjugate embedding gets the entrywise
    conjugate.  Draws are repeated (deterministically) until the condition
    bound holds; BundleError if ``RANDOM_MAX_DRAWS`` draws all miss it.
    """
    r = nf.degree
    for _ in range(RANDOM_MAX_DRAWS):
        grams: list[np.ndarray | None] = [None] * r
        for s in range(r):
            if grams[s] is not None:
                continue
            sbar = nf.conj_index[s]
            if sbar == s:
                a = rng.standard_normal((rank, rank))
                h = a.T @ a + RANDOM_FLOOR * np.eye(rank)
                grams[s] = h.astype(complex)
            else:
                a = rng.standard_normal((rank, rank)) + 1j * rng.standard_normal((rank, rank))
                h = a.conj().T @ a + RANDOM_FLOOR * np.eye(rank)
                h = (h + h.conj().T) / 2
                grams[s] = h
                grams[sbar] = h.conj()
        conds = [np.linalg.cond(g) for g in grams]
        if max(conds) <= cond_max:
            return make_bundle(nf, rank, grams)
    raise BundleError(
        f"no random bundle of rank {rank} met cond_max={cond_max} in {RANDOM_MAX_DRAWS} draws"
    )


def dual_bundle(bundle: HermitianBundle) -> HermitianBundle:
    """Dual bundle: same rank, each Gram H replaced by the dual metric's.

    In the dual basis of E* a functional with coordinate row l has dual
    norm^2 l H^{-1} l^H.  Vectors are normed as x^H G x, so with x = l^T the
    dual Gram is G = (H^{-1})^T, which for hermitian H is the entrywise
    conjugate of H^{-1}.  (H^{-1} itself gives the conjugate metric; over a
    CM field, where complex conjugation is an automorphism, its minima are
    the same, but over other fields they are not.)
    """
    inv = []
    for h in bundle.grams:
        hi = np.linalg.inv(h).conj()
        inv.append((hi + hi.conj().T) / 2)
    return HermitianBundle(bundle.nf, bundle.rank, tuple(inv))


@dataclass(frozen=True)
class BundleVector:
    """Lattice vector: integer coordinates plus exact module coordinates."""

    bundle: HermitianBundle
    z_coords: tuple[int, ...]

    @property
    def f_coords(self) -> tuple[FieldElement, ...]:
        return module_coords(self.bundle.nf.integral_basis, self.z_coords)

    def __repr__(self):
        return f"BundleVector{self.z_coords}"


def module_coords(basis: Sequence[FieldElement], z: Sequence[int]) -> tuple[FieldElement, ...]:
    """Module coordinates of z: slot j is sum_i z[j*r + i] * basis[i]."""
    nf = basis[0].nf
    r = nf.degree
    return tuple(nf.combine(basis, z[j : j + r]) for j in range(0, len(z), r))


def vector_from_f_coords(bundle: HermitianBundle, f_coords: Sequence[FieldElement]) -> BundleVector:
    """Inverse of BundleVector.f_coords; requires integral coordinates."""
    nf = bundle.nf
    z: list[int] = []
    for x in f_coords:
        for c in nf.to_integral_coords(x):
            if c.denominator != 1:
                raise BundleError("element does not lie in the module")
            z.append(int(c))
    return BundleVector(bundle, tuple(z))


@dataclass(frozen=True, eq=False)
class NormedLattice:
    """A Z-lattice in F^N with one norm per embedding, as the minima engine sees it.

    z-coordinates are ordered module-coordinate major: index j*r + i holds
    the coefficient of ``basis[i]`` in module slot j, where ``basis`` is the
    integral basis, the codifferent basis or an ideal basis.  ``forms[s]``
    is the real form with x^T forms[s] x = |x|_s^2, metric weights included;
    ``euclid_gram`` is their sum.  ``witness`` turns integer coordinates
    into the vector type callers expect (BundleVector, DualVector or
    FieldElement).
    """

    nf: NumberField
    max_f_rank: int
    basis: tuple[FieldElement, ...]
    forms: np.ndarray  # (r, N*r, N*r)
    euclid_gram: np.ndarray
    witness: Callable[[tuple[int, ...]], object]
    # what the minima engine derives from the forms alone (the reduced
    # basis, the searched balls), built on first use by ``memoized`` and
    # keyed by the array each entry is derived from (see
    # ``hermlat.minima``), so any lattices of one field may share one
    memo: dict = field(default_factory=dict, kw_only=True, repr=False, compare=False)

    def memoized(self, key, build):
        """``build()``, computed once per memo and kept in ``memo`` under ``key``."""
        if key not in self.memo:
            self.memo[key] = build()
        return self.memo[key]

    @property
    def z_rank(self) -> int:
        return self.euclid_gram.shape[0]

    @property
    def n_embeddings(self) -> int:
        return len(self.forms)

    def sigma_norms(self, z: np.ndarray) -> np.ndarray:
        """All embedding norms of an integer coordinate vector."""
        return self.exact_norms(np.asarray(z)[None])[0]

    def exact_norms(self, zs: np.ndarray) -> np.ndarray:
        """All embedding norms of the rows of zs, as an (m, r) array.

        Each (row, form) pair is one vector-matrix and one dot product, the
        BLAS calls of ``x @ p @ x`` on its own, so a row's norms are the
        same bits whatever rows it is stacked with: a caller may norm a
        large set in blocks of any size (``minima._search`` does), and the
        rows it is given are normed at once.  Only one form per place is
        normed: the conjugate of a place with m_p = 2 has an array-equal
        form (``places``), so its column is a copy.
        """
        sq = np.empty((len(zs), self.n_embeddings))
        xs = np.ascontiguousarray(zs, dtype=float)
        rows, cols = xs[:, None, :], xs[:, :, None]
        for s, m in self.places:
            sq[:, s] = (rows @ self.forms[s] @ cols)[:, 0, 0]
            if m == 2:
                sq[:, self.nf.conj_index[s]] = sq[:, s]
        return np.sqrt(np.maximum(sq, 0.0))

    def f_components(self, z: Sequence[int]) -> tuple[FieldElement, ...]:
        return module_coords(self.basis, [int(c) for c in z])

    def to_vector(self, z: Sequence[int]):
        return self.witness(tuple(int(c) for c in z))

    @property
    def theta_action(self) -> tuple[tuple[int, ...], ...]:
        """Integer matrix of multiplication by theta on one module slot's coordinates."""
        return self.nf.theta_action(self.basis)

    @functools.cached_property
    def places(self) -> tuple[tuple[int, int], ...]:
        """The places of the sum norm as (embedding, m_p), m_p the number of
        embeddings the place stands for.  An embedding and its conjugate
        whose forms are equal as arrays (``stack_forms`` makes them so when
        they agree to rounding) make one place with m_p = 2; every other
        embedding is a place with m_p = 1."""
        forms, places, paired = self.forms, [], set()
        for s, c in enumerate(self.nf.conj_index):
            if s < c and (forms[s] == forms[c]).all():
                places.append((s, 2))
                paired.add(c)
            elif s not in paired:
                places.append((s, 1))
        return tuple(places)


def stack_forms(
    forms: Sequence[np.ndarray], conj_index: Sequence[int], what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked forms and their symmetrized sum, checked positive definite.

    The forms of conjugate embeddings s and conj_index[s] are equal in exact
    arithmetic but may differ in the last bits; when they agree within
    CONJSYM_TOL (relative) both are replaced by their mean, so that the
    two make one place of ``NormedLattice.places``, counted twice.  Forms
    that genuinely differ are kept as they are.
    """
    forms = list(forms)
    for s, sbar in enumerate(conj_index):
        if s < sbar:
            a, b = forms[s], forms[sbar]
            if np.abs(a - b).max() <= CONJSYM_TOL * np.abs(a).max():
                forms[s] = forms[sbar] = (a + b) / 2
    gram = sum(forms)
    gram = (gram + gram.T) / 2
    try:
        np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise PrecisionError(f"the float64 forms of the {what} are not positive definite") from None
    return np.stack(forms), gram


def assemble_forms(
    nf: NumberField, grams: Sequence[np.ndarray], basis: Sequence[FieldElement], what: str
) -> tuple[np.ndarray, np.ndarray]:
    """Stacked forms and Euclidean Gram of the lattice spanned by basis[i] in
    module slot j (z-index j*r + i), normed at embedding s by the N x N
    hermitian Gram grams[s] on module coordinates: Re(A_s^H grams[s] A_s),
    see the module docstring."""
    n, r = len(grams[0]), nf.degree
    forms = []
    for s, row in enumerate(nf.basis_embeddings(basis)):
        a = np.zeros((n, n * r), dtype=complex)
        for j in range(n):
            a[j, j * r : (j + 1) * r] = row
        p = a.conj().T @ grams[s] @ a
        forms.append(np.real(p + p.conj().T) / 2)  # x real => x^T Re(P) x = |x|^2_sigma
    return stack_forms(forms, nf.conj_index, what)


def restrict_scalars(bundle: HermitianBundle) -> NormedLattice:
    """The rank-(N*r) Z-lattice underlying a bundle, with per-embedding norms."""
    nf = bundle.nf
    stacked, gram = assemble_forms(nf, bundle.grams, nf.integral_basis, "restricted lattice")
    return NormedLattice(
        nf, bundle.rank, nf.integral_basis, stacked, gram, functools.partial(BundleVector, bundle)
    )
