"""Successive minima of Z-lattices with per-embedding norms, certified in one pass.

The engine never searches for its radius.  For the first ``count`` minima
it

1. reduces the Euclidean Gram G with LLL (delta = 0.99) to an exact
   integer unimodular T.  The Gram-Schmidt data of each basis vector are
   computed from its Gram row once, with plain left-to-right float sums,
   when the scan first reaches it, and are kept across size reductions
   and swaps from then on (``lll_transform``);
2. takes a proven radius b from the aggregated norms of the reduced basis
   vectors T e_i.  In q-rank mode the ``count`` shortest basis vectors are
   Q-independent, so b is their largest norm.  In f-rank mode any
   (count-1)*r+1 Q-independent vectors contain ``count`` F-independent
   ones (count-1 vectors span an F-subspace of Q-dimension at most
   (count-1)*r), so b is the ((count-1)*r+1)-th smallest basis norm;
3. enumerates the ellipsoid below containing the norm ball of radius b
   once, on T^T G T.  The kernel is a level-synchronous Fincke-Pohst
   search: it fixes the coordinates from the last down, expanding a whole
   frontier of partial vectors per level, and counts each frontier's
   children against the node budget before building them.  The
   frontiers are numpy arrays, cut into chunks of at most
   ``_FRONTIER_ROWS`` rows and expanded depth first, so memory is bounded
   whatever the budget.  A sum-norm search over a lattice of two or more
   places (``NormedLattice.places``) whose ellipsoid is expected to hold
   at least ``_PLACE_POINTS`` points (the Gaussian heuristic) also
   carries, per place, the partial sums of that place's norm and cuts off
   the partial vectors that can no longer reach the ball (see below).
   Numpy's calls cost about the same per frontier however few rows it
   holds, so any other search expands its frontiers of at most
   ``_SCALAR_NODES`` children from the root with Python floats on lists,
   by the same float expressions, term for term: the vectors, their order
   and the node count are the same bits whichever path expands a
   frontier.  This module alone reads and writes the lattice's memo, and
   keeps in it only what an entry's key fully determines: T, keyed by the
   Euclidean Gram scaled to a fixed binary exponent (see ``_reduce``); per
   forms, norm and budget, the largest completed ball, whose prefix
   answers any smaller radius (``mu``'s ball lies inside ``lambda``'s);
   and each search that ran out of budget, keyed also by its exact
   radius.  T^T G T and the place factors are recomputed by each search.
   These keys alone decide what lattices that share a memo dict share;
4. maps the candidates back through T, puts their signs in the original
   coordinates (highest nonzero coordinate positive) and norms each of
   them once by ``exact_norms``, which gives a row the bits ``sigma_norms``
   gives it alone, all in place and ``_FRONTIER_ROWS`` rows at a time, so
   beside the candidates it holds one block's copies and one norm per
   candidate; it keeps those within the ball, sorted by norm.  A
   read yields each run of equal norms sorted by z, so readers see the
   (norm, z) order of the whole ball however little of it they read;
5. picks witnesses greedily by nondecreasing (norm, z) with exact
   independence tests in one fraction-free integer rank tracker.  In
   q-rank mode it holds the chosen z.  In f-rank mode it holds each chosen
   z together with its images under multiplication by theta (an integer
   matrix on each module slot), so the Q-span it tracks is the F-span of
   the chosen vectors and rank_F = rank_Q{theta^j v} / r; no field element
   is touched.  Since b bounds the ``count``-th minimum, the greedy scan
   always completes unless the node budget ran out first, and it stops
   reading the ball at its ``count``-th witness.

Containment used by the enumeration (Q is the Euclidean form, the sum of
the squared embedding norms |x|_s^2 over all r embeddings):

* sup norm:  sup_s |x|_s <= b  implies  Q(x) = sum_s |x|_s^2 <= r * b^2,
  so the ellipsoid {Q <= r b^2} contains the sup ball of radius b.
* sum norm:  let m_s = 2 when embedding s and its conjugate have equal
  forms (a complex place, counted twice) and m_s = 1 otherwise.  A place
  p, of norm a_p, appears m_p times among the embeddings, so
  sum_s |x|_s <= b  means  sum_p m_p a_p <= b  and
  min(m) Q(x) <= sum_s m_s |x|_s^2 = sum_p (m_p a_p)^2
              <= (sum_p m_p a_p)^2 <= b^2.
  The ellipsoid {Q <= b^2 / 2} therefore contains the sum ball of radius
  b when every embedding is paired (a totally complex field whose
  conjugate norms agree), and {Q <= b^2} does otherwise.
* sum norm, place by place: in the reduced coordinates let R_p be upper
  triangular with R_p^T R_p = T^T F_p T, F_p the form of place p (only
  semidefinite, so R_p comes from an eigendecomposition and a QR
  decomposition, not from Cholesky).  Once the coordinates level .. n-1
  are fixed, l_p = sum_{i >= level} (R_p[i, i:] x[i:])^2 is a sum of some
  of the squares that make up |x|_p^2 = |R_p x|^2, whatever the other
  coordinates are, so sum_p m_p sqrt(l_p) <= sum_p m_p |x|_p, the sum norm
  of every vector that completes the partial one.  A partial vector with
  sum_p m_p sqrt(l_p) > b (1 + TOL) (1 + PLACE_MARGIN) thus has no
  completion in the ball: it is counted as a node but gets no children,
  and a leaf that fails the test is not a candidate.  Such a search
  runs in numpy from the root, which updates the per-place centres and
  partial sums elementwise, as it updates the ellipsoid's.  A lattice of
  one place (Q, or an imaginary quadratic field with paired forms)
  builds no factors: there m |x| <= b is the ellipsoid itself.

These are exact inequalities between nonnegative reals, hence an
enumeration that is complete in the ellipsoid, but for the partial
vectors the place test cuts off, is complete in the norm ball, which is
what certification rests on.  Forms are paired only when they are equal
as arrays (``NormedLattice.places``), so a lattice whose conjugate norms
differ keeps the looser ellipsoid.  The ellipsoid is enumerated at the radius
bound * (1 + TOL) that the ball accepts.  T is unimodular whatever
the rounding in its Gram-Schmidt data, so the reduced coordinates cover
exactly the same lattice points; floating point only affects how well
reduced T is.  Which points are in the ball, and in what order, is
decided on the norms that are reported, so only the place test rests on
an accuracy assumption: no float sum of per-place norms from the factors
R_p exceeds its exact value by a relative ``PLACE_MARGIN`` or more.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from operator import mul
from typing import Literal, Sequence, get_args

import numpy as np

from .bundles import BundleVector, NormedLattice

TOL = 1e-9
DEFAULT_BUDGET = 10_000_000
# The place test of a sum-norm search keeps partial vectors up to this
# relative margin above the ball's radius, for the rounding of its float
# sums (see the module docstring).
PLACE_MARGIN = 1e-6

LLL_DELTA = 0.99
# Ends the reduction if rounding makes it cycle; T stays unimodular at any exit.
_LLL_MAX_SWAPS = 100_000
# Most partial vectors one enumeration frontier holds.  The search keeps at
# most one frontier per level, so they take at most n * (2n+1) * 8 *
# _FRONTIER_ROWS bytes (2.5 MB at n = 12) whatever the budget, and
# n * ((P+2)n + P + 1) * 8 * _FRONTIER_ROWS with P places to prune by
# (5 MB at n = 12, P = 2); larger frontiers do not speed it up.  _search
# maps, signs and norms the candidates in place in blocks of as many rows,
# so it adds one block's copies and a float per candidate to them.
_FRONTIER_ROWS = 1 << 10
# In a search not pruned by place, frontiers of at most this many children
# are expanded with Python floats, about 1 us a child, instead of numpy's
# calls, about 20 us a frontier however small it is.
_SCALAR_NODES = 8
# Sum-norm searches are pruned by place only when their ellipsoid is expected
# to hold at least this many points: below it, building the place factors
# (about 30 us) and testing them (about 10 us a numpy frontier) cost more
# than the nodes and candidates the test saves.
_PLACE_POINTS = 1000

Mode = Literal["f-rank", "q-rank"]
Norm = Literal["sup", "sum"]


def _check_choice(value, choices: type, what: str) -> None:
    """ValueError unless ``value`` is one of the ``Literal`` type's values."""
    if value not in get_args(choices):
        raise ValueError(f"{what} must be one of {get_args(choices)}, got {value!r}")


class BudgetExhausted(RuntimeError):
    """Node budget ran out before the computation could be certified."""


@dataclass(frozen=True)
class MinimaProfile:
    """Certified successive minima (log scale) with witness vectors."""

    values: tuple[float, ...]
    witnesses: tuple[BundleVector, ...]
    mode: Mode
    norm: Norm
    radius_used: float
    certified: bool
    nodes: int

    def __post_init__(self):
        if not all(a <= b + TOL for a, b in zip(self.values, self.values[1:])):
            raise ValueError(f"minima must be nondecreasing, got {self.values}")


def aggregate(norms: np.ndarray, norm: Norm) -> float | np.ndarray:
    """The sup or sum of per-embedding norms along the last axis: a float for
    one vector's norms, an array for the rows of ``exact_norms``."""
    out = norms.max(axis=-1) if norm == "sup" else norms.sum(axis=-1)
    return float(out) if out.ndim == 0 else out


def enumerate_ellipsoid(
    gram: np.ndarray,
    radius_sq: float,
    budget: int,
    places: tuple[np.ndarray, float] | None = None,
) -> tuple[np.ndarray, int]:
    """All nonzero integer x with x^T gram x <= radius_sq, up to sign.

    Sign convention: the highest-index nonzero coordinate is positive.
    Returns (vectors, nodes), vectors an (m, n) int64 array in no
    particular order.  A node is one value tried for one coordinate.
    Raises BudgetExhausted when the node count exceeds the budget.

    ``places``, when given, is the per-place test of a sum-norm search
    (see the module docstring), a pair (factors, limit): ``factors[p]`` is
    m_p R_p, for an upper-triangular R_p with R_p^T R_p the form of place p
    in the coordinates of ``gram`` and m_p its number of embeddings (scaling
    by m_p = 1 or 2 is exact, so sqrt(l_p) below is m_p sqrt(l_p) for R_p
    bit for bit).  A partial vector whose fixed rows of the factors give
    sum_p sqrt(l_p) above ``limit`` is counted as a node but has no
    children, and a leaf that fails the test is not returned.

    The coordinates are fixed from the last down, a frontier of partial
    vectors at a time, in numpy (``_Frontier``).  A search without
    ``places`` first expands, from the root, the frontiers of at most
    ``_SCALAR_NODES`` children with Python floats (``_expand_small``),
    which evaluates the same float expressions, so the vectors, their order
    and the node count do not depend on which path expands a frontier.
    Frontiers hold at most ``_FRONTIER_ROWS`` rows and are expanded depth
    first, so memory does not grow with the budget; each frontier's
    children are counted against the budget before any of them is built.
    """
    n = gram.shape[0]
    r = np.linalg.cholesky(gram).T  # upper triangular, Q(x) = |r @ x|^2
    bound = radius_sq * (1 + 1e-12) + 1e-12
    if bound < 0:
        return np.zeros((0, n), dtype=np.int64), 0

    kernel = _Kernel(r, float(bound), places)
    found: list[np.ndarray] = []
    if places is None:
        level, rows, nodes = _expand_small(kernel, budget, found)
    else:  # the root: one all-zero row
        level, rows, nodes = n - 1, np.zeros((1, kernel.p + n * kernel.k + n + 1)), 0
    if level >= 0:
        with np.errstate(invalid="ignore"):  # sqrt of a negative room: no children
            first = kernel.p + n * kernel.k  # x_0's column
            stack = [_Frontier(kernel, level, np.array(rows), True)]
            nodes += stack[0].size
            while stack:
                if nodes > budget:
                    raise BudgetExhausted(f"enumeration exceeded budget of {budget} nodes")
                top = stack[-1]
                if top.done == top.size:
                    stack.pop()
                    continue
                zero_first = top.zero_first and top.done == 0
                rows = top.expand(kernel, _FRONTIER_ROWS)
                if top.level == 0:
                    rows = rows[int(zero_first) :]  # drop x = 0, row 0 when zero_first
                    found.append(rows[rows[:, -1] <= bound, first : first + n].astype(np.int64))
                elif len(rows):  # none when every child failed the place test
                    stack.append(_Frontier(kernel, top.level - 1, rows, zero_first))
                    nodes += stack[-1].size
    # the all-zero prefix always reaches level 0, so ``found`` is not empty
    return np.concatenate(found), nodes


class _Kernel:
    """The factors one enumeration expands its frontiers with.

    ``factors`` stacks the ellipsoid's Cholesky factor r (k = 0) and the
    P place factors (k = p + 1), K = P + 1 in all; ``columns[l, j K + k]``
    is ``factors[k, j, l]``.  A frontier row holds, in floats, the places'
    partial sums l_p in column p, the centres sum_{i > level}
    factors[k, j, i] x_i of the levels j <= level in column P + j K + k,
    the fixed coordinates x_j in column P + K n + j and the partial sum of
    |r x|^2 in the last column.  Without places P = 0, K = 1 and a row is
    (centres, coordinates, partial sum).
    """

    __slots__ = ("n", "p", "k", "r", "bound", "columns", "limit")

    def __init__(self, r, bound, places):
        n = len(r)
        self.n, self.r, self.bound = n, r, bound
        if places is None:
            self.p, self.k, self.columns = 0, 1, r.T
        else:
            factors, self.limit = places
            factors = np.concatenate([r[None], factors])
            self.k = len(factors)
            self.p = self.k - 1
            self.columns = factors.transpose(2, 1, 0).reshape(n, n * self.k)

    def kept(self, lens):
        """Which rows of partial sums l_p (one column per place) pass the
        place test, their square roots summed place by place from the
        first."""
        roots = np.sqrt(lens)
        total = roots[:, 0]
        for p in range(1, self.p):
            total = total + roots[:, p]
        return total <= self.limit


def _expand_small(kernel, budget, found):
    """Expand the frontiers of a search without places from the root down
    while each has at most ``_SCALAR_NODES`` children; returns (level,
    rows, nodes).

    A row is (centres, coordinates, partial sum): the centres of the
    levels <= ``level``, the fixed coordinates above it and the partial
    sum of |r x|^2, as in a ``_Frontier`` row; row 0 is the all-zero
    prefix.  Each frontier's children are counted against the budget
    before they are built, and the leaves of level 0 go to ``found``.  A
    frontier with more children, or with an infinite or nan interval, is
    returned unexpanded, as its level and its rows laid out for
    ``_Frontier``; once level 0 is done the level is -1.  Every float is
    computed by the expression ``_Frontier`` uses, term for term, so the
    intervals, the nodes and the leaves are the same bits.
    """
    n, bound = kernel.n, kernel.bound
    columns = kernel.columns.tolist()  # columns[l][j] = r[j, l]
    rows, nodes = [([0.0] * n, (), 0.0)], 0
    for level in range(n - 1, -1, -1):
        col = columns[level]
        r_ll = col[level]
        spans, size = [], 0
        for i, (centres, coords, partial) in enumerate(rows):
            room = bound - partial
            if not room >= 0:  # negative or nan room: no children
                continue
            c = -centres[level] / r_ll
            half = math.sqrt(room) / r_ll
            lo, hi = c - half - 1e-12, c + half + 1e-12
            if not -math.inf < lo <= hi < math.inf:  # inf or nan: numpy's rules decide
                size = math.inf
                break
            lo = math.ceil(lo)
            if i == 0:  # the all-zero prefix: the sign convention
                lo = max(lo, 0)
            count = math.floor(hi) - lo + 1
            if count > 0:
                spans.append((centres, coords, partial, c, float(lo), count))
                size += count
        if size > _SCALAR_NODES:
            # centres of the levels above, coordinates of those below: never read
            zeros = [0.0] * n
            return level, [[*cen, *zeros, *xs, q] for cen, xs, q in rows], nodes
        nodes += size
        if nodes > budget:
            raise BudgetExhausted(f"enumeration exceeded budget of {budget} nodes")
        lower = col[:level]
        rows = []
        child = 0.0  # the children numbered as ``_Frontier.expand`` numbers them
        for centres, coords, partial, c, lo, count in spans:
            offset = lo - child
            for _ in range(count):
                x = offset + child
                child += 1.0
                step = r_ll * (x - c)
                new_centres = [cj + fj * x for cj, fj in zip(centres, lower)]
                rows.append((new_centres, (x, *coords), partial + step * step))
    if rows:  # rows[0] is x = 0, the all-zero vector
        leaves = [coords for _, coords, partial in rows[1:] if partial <= bound]
        found.append(np.array(leaves, dtype=np.int64).reshape(-1, n))
    return -1, None, nodes


class _Frontier:
    """Partial vectors whose coordinates above ``level`` are fixed, in numpy.

    A search pruned by place takes this path from the root, and any other
    from its first frontier with more than ``_SCALAR_NODES`` children
    down.  ``rows`` are laid out as
    ``_Kernel`` says: the places' partial sums, the centres, the fixed
    coordinates and the partial sum of |r x|^2 over the fixed levels.
    Its children are the integers of [lo_i, hi_i], the values the remaining
    room leaves for coordinate ``level``; ``size`` counts the children of
    all rows and ``done`` those that ``expand`` has produced so far.  A row
    whose partial sum exceeds the bound (negative room, nan interval) has
    no children; an infinite interval has more children than any budget
    allows, so it raises BudgetExhausted.  When ``zero_first``, row 0 is the all-zero prefix: its
    interval is clamped at 0 (the sign convention), so its first child,
    x_level = 0, is the next level's all-zero prefix and comes first among
    the children.  The float expressions are those of a recursive
    Fincke-Pohst search and of ``_expand_small``, term for term, so the
    intervals and the node count match both exactly.
    """

    __slots__ = ("level", "rows", "zero_first", "c", "ends", "offset", "size", "done")

    def __init__(self, kernel, level, rows, zero_first):
        r_ll = kernel.r[level, level]
        c = -rows[:, kernel.p + level * kernel.k] / r_ll
        half = np.sqrt(kernel.bound - rows[:, -1]) / r_ll
        lo = np.ceil(c - half - 1e-12)
        if zero_first:
            lo[0] = max(lo[0], 0.0)
        counts = np.fmax(np.floor(c + half + 1e-12) - lo + 1, 0)  # nan -> 0
        self.ends = counts.cumsum()
        self.offset = lo - (self.ends - counts)  # child k of row i takes x_level = offset_i + k
        self.level, self.rows, self.zero_first, self.c = level, rows, zero_first, c
        if not math.isfinite(self.ends[-1]):
            raise BudgetExhausted("enumeration frontier has infinitely many children")
        self.size = int(self.ends[-1])
        self.done = 0

    def expand(self, kernel, limit):
        """The next ``limit`` children (fewer at the end) that pass the
        place test, as rows."""
        level, start, p = self.level, self.done, kernel.p
        self.done = min(start + limit, self.size)
        child = np.arange(start, self.done, dtype=float)
        parent = self.ends.searchsorted(child, side="right")
        xi = self.offset[parent] + child
        k, columns = kernel.k, kernel.columns
        at = level * k  # columns[level, at] is r[level, level], at + 1 + q place q's
        if p:
            d = columns[level, at + 1 : at + k]
            t = self.rows[parent, p + at + 1 : p + at + k] + d * xi[:, None]
            lens = self.rows[parent, :p] + t * t
            keep = kernel.kept(lens)
            parent, xi, lens = parent[keep], xi[keep], lens[keep]
        step = kernel.r[level, level] * (xi - self.c[parent])
        rows = self.rows[parent]
        rows[:, -1] += step * step
        if p:
            rows[:, :p] = lens
        rows[:, p : p + at] += columns[level, :at] * xi[:, None]
        rows[:, p + kernel.n * k + level] = xi
        return rows


def lll_transform(gram: np.ndarray) -> np.ndarray:
    """Integer unimodular T whose columns are an LLL-reduced basis for ``gram``.

    Cohen's Algorithm 2.6.3 run on the Gram matrix.  The Gram-Schmidt
    coefficients mu_kj and squared lengths B_k of basis vector k are
    computed from its Gram row once, when the scan first reaches k (k
    exceeds k_max, the furthest it has been), and kept from then on: a
    size reduction updates row k of mu in place, and a swap of k-1 and k
    updates mu and B by Cohen's SWAP formulas.  Before the Lovasz test
    vector k is size-reduced against k-1 only; against k-2 .. 0 only when
    the test passes and k advances.  The Gram is read only by first
    visits, so only its rows above k_max are kept current: a reduction of
    vector k updates their column k, and a swap exchanges their columns
    k-1 and k.  The basis changes themselves are exact integer column
    operations on T, so T is unimodular whatever the rounding.  On return
    T^T gram T satisfies |mu_kj| <= 1/2 and
    B_k >= (LLL_DELTA - mu_(k,k-1)^2) B_(k-1), up to rounding.

    The first-visit sums are accumulated left to right with plain float
    additions of the products (mu_ji * mu_ki) * B_i and mu_kj^2 * B_j, so
    T, and with it every search statistic, is the same on every supported
    interpreter.  They must not be taken with ``sum()``, which Python 3.12
    made compensated, nor with ``math.fsum`` or ``np.dot``: each rounds
    differently, and a different rounding changes T on some Grams.
    Scaling the Gram by a power of two scales every B_k and leaves every
    mu_kj unchanged, bit for bit, so it leaves T unchanged.
    """
    n = gram.shape[0]
    g = [[float(v) for v in row] for row in gram]  # rows above k_max: Gram of the current basis
    t = [[int(i == j) for j in range(n)] for i in range(n)]  # t[k]: basis vector k
    mu = [[0.0] * n for _ in range(n)]  # mu[k][j] for j < k; the rest is never read
    b = [g[0][0]] + [0.0] * (n - 1)  # squared Gram-Schmidt lengths
    k, k_max, swaps = 1, 0, 0

    def size_reduce(k, l, q):
        # basis vector k -= q * basis vector l, q = round(mu_kl) != 0
        t[k] = [x - q * y for x, y in zip(t[k], t[l])]
        for row in g[k_max + 1 :]:
            row[k] -= q * row[l]
        mk, ml = mu[k], mu[l]
        mk[l] -= q
        for i in range(l):
            mk[i] -= q * ml[i]

    while k < n and swaps < _LLL_MAX_SWAPS:
        if k > k_max:
            k_max = k
            mk, gk = mu[k], g[k]
            for j in range(k):
                mj = mu[j]
                s = 0.0
                for i in range(j):
                    s += mj[i] * mk[i] * b[i]
                mk[j] = (gk[j] - s) / b[j]
            s = 0.0
            for j in range(k):
                s += mk[j] * mk[j] * b[j]
            b[k] = gk[k] - s
        q = round(mu[k][k - 1])
        if q:
            size_reduce(k, k - 1, q)
        m = mu[k][k - 1]
        if b[k] < (LLL_DELTA - m * m) * b[k - 1]:
            # swap basis vectors k-1 and k; rows k-1 and k of mu trade
            # places, which moves their entries j < k-1, all that is read
            t[k - 1], t[k] = t[k], t[k - 1]
            for row in g[k_max + 1 :]:
                row[k - 1], row[k] = row[k], row[k - 1]
            mu[k - 1], mu[k] = mu[k], mu[k - 1]
            b_new = b[k] + m * m * b[k - 1]  # the new B_(k-1)
            mk = mu[k]
            mk[k - 1] = m * b[k - 1] / b_new
            b[k] = b[k - 1] * b[k] / b_new
            b[k - 1] = b_new
            for mi in mu[k + 1 : k_max + 1]:
                x = mi[k]
                mi[k] = mi[k - 1] - m * x
                mi[k - 1] = x + mk[k - 1] * mi[k]
            swaps += 1
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                q = round(mu[k][l])
                if q:
                    size_reduce(k, l, q)
            k += 1
    return np.array(t, dtype=np.int64).T


def _radius_sq_factor(lattice: NormedLattice, norm: Norm) -> float:
    """c such that {Q <= c b^2} contains the ball of radius b of ``norm``
    (see the module docstring)."""
    if norm == "sup":
        return float(lattice.n_embeddings)
    return 1.0 / min(m for _, m in lattice.places)


def _place_factors(lattice: NormedLattice) -> np.ndarray:
    """The factors m_p R_p of the sum norm's places in the reduced basis T
    that ``enumerate_ellipsoid`` tests.

    R_p is upper triangular with R_p^T R_p = T^T F T for the form F of
    place p.  F is only semidefinite, so Cholesky does not apply: with
    T^T F T = V diag(w) V^T (negative rounding in w set to 0), the R of
    the QR decomposition of diag(sqrt w) V^T is such a factor.
    """
    places = lattice.places
    t = _reduce(lattice)
    forms = t.T @ lattice.forms[[s for s, _ in places]] @ t
    w, v = np.linalg.eigh((forms + forms.transpose(0, 2, 1)) / 2)
    weights = np.array([m for _, m in places])[:, None]
    roots = (weights * np.sqrt(np.maximum(w, 0.0)))[:, :, None]
    return np.linalg.qr(roots * v.transpose(0, 2, 1), mode="r")


def _expected_points(gram: np.ndarray, radius_sq: float) -> float:
    """The Gaussian heuristic for the number of nonzero lattice points in
    {x^T gram x <= radius_sq} up to sign: half the ellipsoid's volume over
    the covolume sqrt(det gram); inf when that exceeds the float range."""
    n = len(gram)
    log_volume = n / 2 * math.log(math.pi * radius_sq) - math.lgamma(n / 2 + 1)
    try:
        return math.exp(log_volume - np.linalg.slogdet(gram)[1] / 2) / 2
    except OverflowError:
        return math.inf


def _reduce(lattice: NormedLattice) -> np.ndarray:
    """An LLL-reduced basis T of the lattice, memoized by its Euclidean Gram
    G scaled to a fixed binary exponent.

    Grams that are exact power-of-two multiples of each other thus share
    T.  Such a factor scales every float ``lll_transform`` computes from
    the Gram (its entries and the squared lengths B_k) exactly and leaves
    the mu_kj unchanged, so every rounding, swap and T would come out bit
    for bit the same.  Over a totally complex field the weighted trace
    dual is 4 times the trace dual.
    """
    g = lattice.euclid_gram
    key = ("lll", np.ldexp(g, -math.frexp(g[0, 0])[1]).tobytes())
    t = lattice.memo.get(key)
    if t is None:
        t = lattice.memo[key] = lll_transform(g)
    return t


def check_budget(budget: int) -> None:
    """ValueError for a node budget below 1, which no search can honour."""
    if budget < 1:
        raise ValueError(f"budget must be at least 1 node, got {budget}")


def enumerate_below(
    lattice: NormedLattice,
    norm: Norm,
    bound: float,
    budget: int = DEFAULT_BUDGET,
) -> list[BundleVector]:
    """All nonzero vectors with aggregated norm <= bound*(1+tol), up to sign.

    Sorted by (aggregated norm, lexicographic z-coordinates); deterministic.
    """
    _check_choice(norm, Norm, "norm")
    if not bound > 0:
        raise ValueError(f"bound must be positive, got {bound}")
    ball = _ball(lattice, norm, bound, budget)
    return [lattice.to_vector(z) for _, z in ball.read(bound)]


def _ball(lattice: NormedLattice, norm: Norm, bound: float, budget: int) -> "_Ball":
    """The searched ball that holds the ball of radius ``bound``.

    The lattice's memo keeps, per forms, norm and budget, the largest ball
    whose search completed, and a smaller radius than its own is answered
    by that ball.  A search that ran out of budget is kept under the same
    key and its exact radius, and only that search is answered by it: the
    node count need not grow with the radius, since a larger sum-norm
    radius can switch on the place test (``_PLACE_POINTS``) and take fewer
    nodes.  Lattices with equal forms that share one memo share their
    balls: over Q the dual-bundle and trace-dual profiles search the same
    ones, at the same radius.
    """
    check_budget(budget)
    norm_key = norm if lattice.n_embeddings > 1 else "sup"  # one embedding: sup = sum
    key = (lattice.forms.tobytes(), norm_key, budget)
    ball_key, exhausted_key = ("ball", *key), ("exhausted", *key, bound)
    memo = lattice.memo
    ball = memo.get(ball_key)
    if ball is not None and bound <= ball.bound:
        return ball
    if exhausted_key in memo:
        raise BudgetExhausted(f"enumeration exceeded budget of {budget} nodes")
    try:
        ball = _search(lattice, norm, bound, budget)
    except BudgetExhausted:
        memo[exhausted_key] = True
        raise
    memo[ball_key] = ball
    return ball


def _search(lattice: NormedLattice, norm: Norm, bound: float, budget: int) -> "_Ball":
    """The ``_Ball`` of radius ``bound``; BudgetExhausted if the budget runs out.

    The enumeration runs on the reduced basis T, for the sum norm over two
    or more places also pruned by place when the ellipsoid is expected to
    hold at least ``_PLACE_POINTS`` points; the candidates are mapped
    back to the lattice's own coordinates and signed there (highest nonzero
    coordinate positive), in place, ``_FRONTIER_ROWS`` rows at a time.
    Each candidate is normed once by ``exact_norms``, with its block,
    so reported values, ball membership and the tie order among unit
    multiples of equal norm do not depend on which candidates share a call.
    """
    limit = bound * (1 + TOL)
    t, g = _reduce(lattice), lattice.euclid_gram
    reduced_gram = t.T @ g @ t
    reduced_gram = (reduced_gram + reduced_gram.T) / 2
    radius_sq = _radius_sq_factor(lattice, norm) * limit * limit
    places = None
    if (
        norm == "sum"
        and len(lattice.places) > 1
        and _expected_points(reduced_gram, radius_sq) >= _PLACE_POINTS
    ):
        places = (_place_factors(lattice), limit * (1 + PLACE_MARGIN))
    xs, nodes = enumerate_ellipsoid(reduced_gram, radius_sq, budget, places)
    values = np.empty(len(xs))
    for start in range(0, len(xs), _FRONTIER_ROWS):
        block = xs[start : start + _FRONTIER_ROWS]
        block[:] = block @ t.T
        last = block.shape[1] - 1 - np.argmax(block[:, ::-1] != 0, axis=1)
        block *= np.sign(block[np.arange(len(block)), last])[:, None]
        values[start : start + _FRONTIER_ROWS] = aggregate(lattice.exact_norms(block), norm)
    keep = np.flatnonzero(values <= limit)
    keep = keep[np.argsort(values[keep], kind="stable")]
    return _Ball(bound, nodes, values[keep].tolist(), xs[keep])


@dataclass(frozen=True, eq=False)
class _Ball:
    """The points of one searched ball: their exact norms ``values``, a
    nondecreasing list, and their coordinates, the rows of ``zs`` in the
    same order.  It lives in a memo that lattices may share and is never
    changed, so any number of readers may read it at once."""

    bound: float
    nodes: int
    values: list[float]
    zs: np.ndarray

    def read(self, bound: float):
        """The (norm, z) pairs with norm <= bound * (1 + TOL), in (norm, z)
        order: each run of equal norms is sorted by z as it is reached."""
        values = self.values
        end = bisect.bisect_right(values, bound * (1 + TOL))
        start = 0
        while start < end:
            value = values[start]
            stop = bisect.bisect_right(values, value, start, end)
            for z in sorted(map(tuple, self.zs[start:stop].tolist())):
                yield value, z
            start = stop


class _RankTracker:
    """Incremental exact rank over Q of integer vectors, fraction-free.

    Stored rows are in echelon form, each with its own pivot column and
    zeros at the pivots of the rows before it; each is kept as (pivot,
    pivot entry, row).  A vector is reduced against the rows in order by
    v <- a v - c row, with a the cached pivot entry and c = v[pivot], and
    no gcd is taken on the way.  Only a vector that extends the span is
    divided by the gcd of its entries, once, when it is stored, so every
    stored row is primitive.  With ``action`` (an integer r x r matrix
    applied to each block of r coordinates), a vector that extends the
    span is stored together with its images under action^1 .. action^(r-1),
    so the span held is closed under the action.
    """

    def __init__(self, action: Sequence[Sequence[int]] | None = None):
        self.action = action
        self.rows: list[tuple[int, int, list[int]]] = []  # (pivot, pivot entry, row)

    def _store(self, v: list[int]) -> bool:
        for pivot, a, row in self.rows:
            c = v[pivot]
            if c:
                v = [a * x - c * y for x, y in zip(v, row)]
        if not any(v):
            return False
        g = math.gcd(*v)
        if g > 1:
            v = [x // g for x in v]
        pivot = v.index(next(filter(None, v)))  # first nonzero entry
        self.rows.append((pivot, v[pivot], v))
        return True

    def _act(self, v: list[int]) -> list[int]:
        r = len(self.action)
        out = []
        for j in range(0, len(v), r):
            block = v[j : j + r]
            out.extend(sum(map(mul, row, block)) for row in self.action)
        return out

    def try_extend(self, z: Sequence[int]) -> bool:
        """Whether z extends the span; if so it is added (with its images)."""
        v = list(map(int, z))
        if not self._store(v):
            return False
        if self.action is not None:
            for _ in range(len(self.action) - 1):
                v = self._act(v)
                self._store(v)
        return True


def exact_rank(vectors: Sequence[BundleVector], mode: Mode) -> int:
    """Exact rank of a family of lattice vectors, over Q or over F.

    Q-rank is taken on the integer coordinates.  F-rank is taken on the
    power-basis coordinates of the module coordinates ``f_coords``, each
    vector's denominators cleared, with theta acting by the companion
    matrix of the defining polynomial.  All vectors must come from one
    lattice: one bundle, and one vector type, since a primal and a
    trace-dual vector of one bundle have coordinates in different bases.
    """
    _check_choice(mode, Mode, "mode")
    if not vectors:
        return 0
    first = vectors[0]
    if any(v.bundle is not first.bundle or type(v) is not type(first) for v in vectors[1:]):
        raise ValueError("vectors must come from one lattice")
    if mode == "q-rank":
        tracker = _RankTracker()
        return sum(tracker.try_extend(v.z_coords) for v in vectors)
    nf = vectors[0].bundle.nf
    r = nf.degree
    power_basis = [nf.element([int(i == j) for j in range(r)]) for i in range(r)]
    tracker = _RankTracker(nf.theta_action(power_basis))
    count = 0
    for v in vectors:
        coords = [c for x in v.f_coords for c in x.coords]
        d = math.lcm(*(c.denominator for c in coords))
        count += tracker.try_extend([int(c * d) for c in coords])
    return count


def successive_minima(
    lattice: NormedLattice,
    count: int,
    mode: Mode = "f-rank",
    norm: Norm = "sup",
    budget: int = DEFAULT_BUDGET,
) -> MinimaProfile:
    """First ``count`` successive minima of the lattice under the given norm.

    Reduces the basis with LLL, takes a radius that the reduced basis
    proves to hold ``count`` independent vectors (see the module
    docstring), enumerates that ball once and selects witnesses greedily.
    A ball the lattice already searched at a larger radius, under the same
    norm and budget, is read instead, and the profile reports that search's
    nodes.  On budget exhaustion an empty, uncertified profile reports the
    budget as its nodes.
    """
    _check_choice(mode, Mode, "mode")
    _check_choice(norm, Norm, "norm")
    max_k = lattice.max_f_rank if mode == "f-rank" else lattice.z_rank
    if not 1 <= count <= max_k:
        raise ValueError(f"k must be between 1 and {max_k} for mode {mode}")

    basis_norms = np.sort(aggregate(lattice.exact_norms(_reduce(lattice).T), norm))
    index = count - 1 if mode == "q-rank" else (count - 1) * lattice.n_embeddings
    bound = float(basis_norms[index])
    try:
        ball = _ball(lattice, norm, bound, budget)
        hits, nodes = ball.read(bound), ball.nodes
    except BudgetExhausted:
        hits, nodes = [], budget
    chosen = _greedy_select(lattice, hits, count, mode)
    return MinimaProfile(
        values=tuple(math.log(v) for v, _ in chosen),
        witnesses=tuple(lattice.to_vector(z) for _, z in chosen),
        mode=mode,
        norm=norm,
        radius_used=bound,
        certified=len(chosen) == count,
        nodes=nodes,
    )


def _greedy_select(lattice: NormedLattice, hits, count: int, mode: Mode):
    tracker = _RankTracker(lattice.theta_action if mode == "f-rank" else None)
    chosen = []
    for value, z in hits:
        if tracker.try_extend(z):
            chosen.append((value, z))
            if len(chosen) == count:
                break
    return chosen
