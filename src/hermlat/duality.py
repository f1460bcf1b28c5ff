"""Trace duality: the module of Z-linear functionals and its lattices.

The trace module is Hom_Z(O_F, Z).  Every functional is x -> Tr(t*x) for a
unique t in the codifferent (the trace-dual lattice of O_F), so the module
is realized inside F by the codifferent basis, the trace pairing giving
exact biorthogonality with the integral basis.  The canonical generator Tr
carries the metric weight 1 at real embeddings and 2 at complex ones: as a
real-linear functional on the completion at a complex place, Tr acts by
z -> 2*Re(z), whose operator norm is 2.

Two norm families coexist on the trace-dual lattice E^v = Hom_Z(E, Z):

* plain norms: the dual-metric norm of the sigma-component of the
  C-linear extension of a functional.  Summed over all embeddings these
  give exactly the polar norm of the sup-norm unit ball, and the induced
  Euclidean form is the inverse of the primal form (classical dual
  lattice).  These are the default and feed the polar-transference check.
* weighted norms: plain norms times the metric weight of the embedding.
  These are the norms transported through the identification
  E^v = E* (x) omega and are the ones under which the comparison
  mu_k(E*) <= mu_k(E^v) + sup log|v| holds with a transfer vector v from
  the inverse trace module.

Every lattice built here is a ``NormedLattice``.  The trace-dual lattice
is one in the codifferent basis, with witnesses ``DualVector``; its
subclass ``TraceDualLattice`` adds the exact pairing checks, and
``weighted()`` returns the same lattice with forms w_s^2 * P_s.  The
ideal lattices (the codifferent, the inverse trace module) have rank r,
one module slot and field elements as witnesses.  What depends on the
field alone (trace module, transfer and Minkowski vectors) is kept in the
field's memo.

The covolume convention is fixed so that the closed form
log|disc| - 2*r2*log(2) holds: covolumes are measured relative to the
plainly-metrized ring of integers (unit covolume), with the codifferent
carrying the weighted metric.  See the README derivation note.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import exactlinalg as xl
from .bundles import HermitianBundle, NormedLattice, PrecisionError, module_coords, stack_forms
from .minima import DEFAULT_BUDGET, TOL, BudgetExhausted, check_budget, successive_minima
from .numberfield import FieldElement, NumberField


class DualityError(RuntimeError):
    """A duality-side computation failed its exactness or existence guarantee."""


@dataclass(frozen=True)
class TraceModule:
    """Hom_Z(O_F, Z) with its codifferent realization and metric weights."""

    nf: NumberField
    codifferent_basis: tuple[FieldElement, ...]
    metric_weights: tuple[float, ...]  # per embedding: 1 real, 2 complex

    def __repr__(self):
        return f"TraceModule(field={self.nf!r})"


def trace_module(nf: NumberField) -> TraceModule:
    """Codifferent basis (trace-dual of the integral basis) plus weights.

    Biorthogonality Tr(b_i * c_j) = delta_ij is verified exactly, once per
    field.
    """
    return nf.memoized("trace_module", lambda: _build_trace_module(nf))


def _build_trace_module(nf: NumberField) -> TraceModule:
    gram = [list(row) for row in nf.trace_gram_matrix]
    try:
        inv = xl.inverse(gram)
    except ZeroDivisionError:
        raise DualityError("singular trace Gram; field data corrupted upstream") from None
    basis = []
    for j in range(nf.degree):
        c = nf.zero()
        for i in range(nf.degree):
            if inv[i][j]:
                c = c + inv[i][j] * nf.integral_basis[i]
        basis.append(c)
    for i in range(nf.degree):
        for j in range(nf.degree):
            expect = Fraction(int(i == j))
            if (nf.integral_basis[i] * basis[j]).trace() != expect:
                raise DualityError("codifferent basis failed exact biorthogonality")
    weights = tuple(1.0 if nf.conj_index[s] == s else 2.0 for s in range(nf.degree))
    return TraceModule(nf, tuple(basis), weights)


def ideal_lattice(
    nf: NumberField, basis: Sequence[FieldElement], sigma_scale: Sequence[float]
) -> NormedLattice:
    """The Z-lattice of field elements spanned by ``basis``, normed at
    embedding s by sigma_scale[s] * |sigma_s(v)|."""
    r = nf.degree
    forms = []
    for s in range(r):
        row = np.array([b.embed(s) for b in basis], dtype=complex)
        m = np.outer(row.conj(), row) * (sigma_scale[s] ** 2)
        forms.append(np.real(m + m.conj().T) / 2)
    stacked, gram = stack_forms(forms, nf.conj_index, "ideal lattice")
    basis = tuple(basis)
    return NormedLattice(nf, 1, basis, stacked, gram, functools.partial(nf.combine, basis))


def codifferent_lattice(nf: NumberField) -> NormedLattice:
    """The codifferent with the canonical embedding norms |sigma(v)|."""
    tm = trace_module(nf)
    return ideal_lattice(nf, tm.codifferent_basis, [1.0] * nf.degree)


def different_lattice(nf: NumberField) -> list[FieldElement]:
    """Z-basis of the inverse of the codifferent, {y in F : y * codiff <= O_F}.

    Solved exactly: stacking the multiplication-by-c_j matrices in integral
    coordinates gives an integer system whose solution lattice is computed
    by Z-diagonalization.
    """
    tm = trace_module(nf)
    r = nf.degree
    if r == 1:
        return [nf.one()]
    # columns of m_j: integral coords of b_i * c_j
    stacked: list[list[Fraction]] = [[Fraction(0)] * r for _ in range(r * r)]
    for j, c in enumerate(tm.codifferent_basis):
        for i, b in enumerate(nf.integral_basis):
            coords = nf.to_integral_coords(b * c)
            for row in range(r):
                stacked[j * r + row][i] = coords[row]
    denom = 1
    for row in stacked:
        for v in row:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    int_rows = [[int(v * denom) for v in row] for row in stacked]
    basis_cols = xl.integral_solution_lattice(int_rows, denom)
    out = []
    for i in range(r):
        coords = [basis_cols[row][i] for row in range(r)]
        out.append(nf.from_integral_coords(coords))
    return out


def dual_trace_module_lattice(nf: NumberField) -> NormedLattice:
    """The inverse trace module as a normed lattice: elements y of the
    different, normed by |sigma(y)| / weight_sigma (the metric inverse to
    the trace module's)."""
    tm = trace_module(nf)
    basis = different_lattice(nf)
    scales = [1.0 / w for w in tm.metric_weights]
    return ideal_lattice(nf, tuple(basis), scales)


def unit_ball_volume(nf: NumberField) -> float:
    """Volume of the unit ball in the real completion: 2^r1 * pi^r2."""
    return (2.0 ** nf.r1) * (math.pi ** nf.r2)


def codifferent_covolume(nf: NumberField) -> float:
    """Log covolume of the inverse trace module, weighted-metric convention.

    Computed directly from Gram matrices: the covolume of the codifferent
    under the weighted hermitian pairing, measured relative to the covolume
    of the plainly-metrized integral basis (so the trivial module has
    covolume one).  Equals log|disc| - 2 r2 log 2.  Both Grams are the
    Euclidean Grams of ideal lattices, checked positive definite there
    (PrecisionError otherwise).
    """
    tm = trace_module(nf)
    g_ref = ideal_lattice(nf, nf.integral_basis, [1.0] * nf.degree).euclid_gram
    g_w = ideal_lattice(nf, tm.codifferent_basis, tm.metric_weights).euclid_gram
    return 0.5 * (np.linalg.slogdet(g_ref)[1] - np.linalg.slogdet(g_w)[1])


def minkowski_codifferent_bound(nf: NumberField) -> float:
    """Log of the guaranteed sup-norm radius: (1/r)log|disc| - (r2/r)log(pi)."""
    r = nf.degree
    return math.log(abs(nf.discriminant)) / r - nf.r2 / r * math.log(math.pi)


def minkowski_codifferent_vector(
    nf: NumberField, budget: int = DEFAULT_BUDGET
) -> tuple[FieldElement, float]:
    """Shortest sup-norm vector of the codifferent; certified under the bound.

    The covolume of the codifferent in the canonical embedding is at most
    the weighted-convention covolume above, so Minkowski's first theorem
    guarantees a nonzero vector with sup log-norm at most
    (1/r)log|disc| - (r2/r)log(pi).  The search runs at the radius the
    reduced basis proves, and its result is then checked against that bound:
    a shortest vector outside it indicates an implementation bug and raises
    DualityError.  Computed once per field; raises BudgetExhausted when the
    search needs more nodes than the budget.
    """
    v, log_norm = _shortest_vector(
        nf, "minkowski_vector", codifferent_lattice, budget, "enumeration"
    )
    if log_norm > minkowski_codifferent_bound(nf) + math.log1p(TOL):
        raise DualityError(
            "no codifferent vector inside the guaranteed radius; "
            "this contradicts Minkowski's theorem and signals a bug"
        )
    return v, log_norm


def transfer_vector(nf: NumberField, budget: int = DEFAULT_BUDGET) -> tuple[FieldElement, float]:
    """Shortest vector of the inverse trace module in the duality metric.

    Returns (y, sup log-norm) where y ranges over the different and the
    norm at embedding s is |sigma(y)| / weight_s.  This is the vector whose
    sup log-norm bounds mu_k(E-dual-bundle) - mu_k(E-trace-dual) from above.
    Computed once per field; raises BudgetExhausted when the search needs
    more nodes than the budget.
    """
    return _shortest_vector(
        nf, "transfer_vector", dual_trace_module_lattice, budget, "transfer vector search"
    )


def _shortest_vector(
    nf: NumberField,
    key: str,
    lattice: Callable[[NumberField], NormedLattice],
    budget: int,
    search: str,
) -> tuple[FieldElement, float]:
    """Shortest nonzero sup-norm vector of ``lattice(nf)`` and its log-norm,
    from one search at the radius the reduced basis proves.

    The result is kept in the field's memo under ``key`` together with the
    search's node count, so a later call whose budget is below that count
    raises BudgetExhausted (naming the ``search``) just as a first one would,
    and a budget below 1 is a ValueError either way.
    """
    check_budget(budget)

    def build():
        profile = successive_minima(lattice(nf), 1, "q-rank", "sup", budget)
        if not profile.certified:
            raise BudgetExhausted(f"{search} exceeded budget of {budget} nodes")
        return profile.witnesses[0], profile.values[0], profile.nodes

    v, log_norm, nodes = nf.memoized(key, build)
    if nodes > budget:
        raise BudgetExhausted(f"{search} exceeded budget of {budget} nodes")
    return v, log_norm


@dataclass(frozen=True)
class DualVector:
    """Vector of the trace-dual lattice of ``bundle``: integer dual coords
    plus its exact codifferent coordinates, one per module slot.

    The functional is x -> sum_j Tr(t_j * xi_j(x)) with xi_j the j-th module
    coordinate of x and t_j = f_coords[j].
    """

    bundle: HermitianBundle
    z_coords: tuple[int, ...]

    @property
    def f_coords(self) -> tuple[FieldElement, ...]:
        return module_coords(trace_module(self.bundle.nf).codifferent_basis, self.z_coords)

    t_coords = f_coords

    def __repr__(self):
        return f"DualVector{self.z_coords}"


@dataclass(frozen=True, eq=False)
class TraceDualLattice(NormedLattice):
    """Hom_Z(E, Z) with the plain per-embedding norms, in the codifferent basis."""

    source: HermitianBundle
    dual_grams: tuple[np.ndarray, ...]  # H_sigma^{-1}

    def z_dual_basis(self) -> tuple[DualVector, ...]:
        """The dual Z-basis: functional i evaluates to 1 on primal basis
        vector i and to 0 on the others (exact biorthogonality)."""
        zr = self.z_rank
        return tuple(self.to_vector([int(i == j) for j in range(zr)]) for i in range(zr))

    def pairing(self, u: DualVector, z: Sequence[int]) -> Fraction:
        """Exact evaluation of a dual vector on an integer primal vector."""
        xs = module_coords(self.nf.integral_basis, [int(c) for c in z])
        return sum(((t * x).trace() for t, x in zip(u.t_coords, xs)), Fraction(0))

    def weighted(self) -> NormedLattice:
        """The lattice normed through the alpha identification: plain
        sigma-norms times the trace-module metric weights."""
        w = trace_module(self.nf).metric_weights
        forms = [(w[s] ** 2) * p for s, p in enumerate(self.forms)]
        stacked, gram = stack_forms(forms, self.nf.conj_index, "weighted trace-dual lattice")
        return NormedLattice(self.nf, self.max_f_rank, self.basis, stacked, gram, self.witness)

    def sigma_norm_via_alpha(self, z: Sequence[int], s: int) -> float:
        """Norm of the sigma-component computed through the exact trace
        decomposition: embed the t-vector at sigma and take the dual-metric
        norm of the resulting functional row (bra form: row Hinv row^H).
        Independent of the numeric inversion route in sigma_norms."""
        row = np.array([t.embed(s) for t in self.f_components(z)])
        return float(np.sqrt(max(np.real(row @ self.dual_grams[s] @ row.conj()), 0.0)))


def trace_dual(bundle: HermitianBundle) -> TraceDualLattice:
    """The lattice Hom_Z(E, Z) with its per-embedding norm evaluators."""
    nf = bundle.nf
    n, r = bundle.rank, nf.degree
    zr = n * r
    # stack the embedding maps of the restricted lattice (block s, row j
    # holds sigma_s of the integral basis in columns j*r .. j*r+r-1) into
    # the square change of coordinates
    a = np.zeros((zr, zr), dtype=complex)
    for s, row in enumerate(nf.basis_embeddings):
        for j in range(n):
            a[s * n + j, j * r : (j + 1) * r] = row
    try:
        a_inv = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        raise PrecisionError("embedding stack is numerically singular") from None
    forms = []
    dual_grams = []
    for s in range(r):
        c = a_inv[:, s * n : (s + 1) * n]  # zr x n
        hinv = np.linalg.inv(bundle.grams[s])
        hinv = (hinv + hinv.conj().T) / 2
        m = c @ hinv @ c.conj().T
        dual_grams.append(hinv)
        forms.append(np.real(m + m.conj().T) / 2)
    stacked, gram = stack_forms(forms, nf.conj_index, "trace-dual lattice")
    return TraceDualLattice(
        nf=nf,
        max_f_rank=n,
        basis=trace_module(nf).codifferent_basis,
        forms=stacked,
        euclid_gram=gram,
        witness=functools.partial(DualVector, bundle),
        source=bundle,
        dual_grams=tuple(dual_grams),
    )
