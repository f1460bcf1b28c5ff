"""Trace duality: the module of Z-linear functionals and its lattices.

The trace module is Hom_Z(O_F, Z).  Every functional is x -> Tr(t*x) for a
unique t in the codifferent (the trace-dual lattice of O_F), so the module
is realized inside F by the codifferent basis c_j, with Tr(b_i c_j) =
delta_ij checked exactly.  The canonical generator Tr carries the metric
weight 1 at real embeddings and 2 at complex ones: as a real-linear
functional on the completion at a complex place, Tr acts by
z -> 2*Re(z), whose operator norm is 2.

The trace dual E^v = Hom_Z(E, Z) is the dual bundle E* restricted over the
codifferent basis.  The functional x -> sum_j Tr(t_j xi_j(x)), xi_j the
j-th module coordinate of x, has at embedding s the component row
(sigma_s(t_j))_j, whose dual-metric norm^2 row H_s^-1 row^H is real and so
equals its conjugate: the norm^2 of the column row^T under conj(H_s^-1),
the Gram of ``dual_bundle``.  So ``trace_dual`` assembles the dual
bundle's Grams (``HermitianBundle.dual``, built once per bundle) over the
codifferent basis (``bundles.assemble_forms``), with ``DualVector``
witnesses.  Nothing is approximated: biorthogonality makes the
codifferent's embeddings the inverse of the stack of the integral basis
embeddings, the change of coordinates to the dual.

Two norm families coexist on E^v:

* plain norms, the ones above.  Summed over all embeddings they give
  exactly the polar norm of the sup-norm unit ball, and the induced
  Euclidean form is the inverse of the primal form (classical dual
  lattice).  These are the default and feed the polar-transference check.
* weighted norms: plain norms times the metric weight of the embedding
  (``TraceDualLattice.weighted``, forms w_s^2 * P_s), the norms
  transported through E^v = E* (x) omega, under which
  mu_k(E*) <= mu_k(E^v) + sup log|v| holds with a transfer vector v from
  the inverse trace module.

``TraceDualLattice`` adds the exact pairing checks.  The ideal lattices
(the codifferent, the inverse trace module) are assembled the same way,
with one module slot, Grams [[t_s^2]] and field elements as witnesses.
What depends on the field alone (trace module, transfer and Minkowski
vectors) is kept in the field's memo.

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
from .bundles import (
    HermitianBundle, NormedLattice, assemble_forms, module_coords, stack_forms
)
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
    r = nf.degree
    basis = tuple(nf.combine(nf.integral_basis, [row[j] for row in inv]) for j in range(r))
    for i, b in enumerate(nf.integral_basis):
        if any((b * c).trace() != int(i == j) for j, c in enumerate(basis)):
            raise DualityError("codifferent basis failed exact biorthogonality")
    weights = tuple(1.0 if nf.conj_index[s] == s else 2.0 for s in range(r))
    return TraceModule(nf, basis, weights)


def ideal_lattice(
    nf: NumberField, basis: Sequence[FieldElement], sigma_scale: Sequence[float]
) -> NormedLattice:
    """The Z-lattice of field elements spanned by ``basis``, normed at
    embedding s by sigma_scale[s] * |sigma_s(v)|: one module slot with the
    1 x 1 Grams [[sigma_scale[s]^2]]."""
    basis = tuple(basis)
    grams = [np.array([[t**2]], dtype=complex) for t in sigma_scale]
    stacked, gram = assemble_forms(nf, grams, basis, "ideal lattice")
    return NormedLattice(nf, 1, basis, stacked, gram, functools.partial(nf.combine, basis))


def codifferent_lattice(nf: NumberField) -> NormedLattice:
    """The codifferent with the canonical embedding norms |sigma(v)|."""
    tm = trace_module(nf)
    return ideal_lattice(nf, tm.codifferent_basis, [1.0] * nf.degree)


def different_lattice(nf: NumberField) -> list[FieldElement]:
    """Z-basis of the different, the inverse of the codifferent,
    {y in F : y * codiff <= O_F}.

    y = sum_i t_i b_i lies in it iff y * c_j is integral for every
    codifferent basis element c_j, that is iff M_j t is in Z^r, where M_j
    is multiplication by c_j in integral coordinates.  So the t form the
    dual of the Z-span of the rows of all M_j.  With B that span's echelon
    basis (``exactlinalg.row_basis`` of the rows times their common
    denominator, divided back), the condition reads B t in Z^r, and the
    columns of the exact inverse of B are a basis.
    """
    tm = trace_module(nf)
    r = nf.degree
    rows = []
    for c in tm.codifferent_basis:
        cols = [nf.to_integral_coords(b * c) for b in nf.integral_basis]
        rows += [[col[k] for col in cols] for k in range(r)]
    denom = math.lcm(*(v.denominator for row in rows for v in row))
    basis = xl.row_basis([[v * denom for v in row] for row in rows])
    inv = xl.inverse([[Fraction(v, denom) for v in row] for row in basis])
    return [nf.from_integral_coords([row[i] for row in inv]) for i in range(r)]


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
        norm of the resulting functional row (bra form: row H^-1 row^H).
        Inverts the source Gram itself, so it checks the assembled forms
        independently."""
        row = np.array([t.embed(s) for t in self.f_components(z)])
        hinv = np.linalg.inv(self.source.grams[s])
        return float(np.sqrt(max(np.real(row @ hinv @ row.conj()), 0.0)))


def trace_dual(bundle: HermitianBundle) -> TraceDualLattice:
    """The lattice Hom_Z(E, Z): the dual bundle restricted over the
    codifferent basis (see the module docstring)."""
    nf = bundle.nf
    basis = trace_module(nf).codifferent_basis
    stacked, gram = assemble_forms(nf, bundle.dual.grams, basis, "trace-dual lattice")
    return TraceDualLattice(
        nf, bundle.rank, basis, stacked, gram, functools.partial(DualVector, bundle), source=bundle
    )
