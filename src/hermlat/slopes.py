"""Arithmetic degrees and slopes of diagonal bundles.

A diagonal bundle is an orthogonal direct sum of metrized line summands:
each summand is generated by a standard module generator whose norm at
embedding s is a positive scale t_s (conjugation-invariant per line).  The
normalized degree of a line is -(sum over all embeddings of log t_s) / r,
and the slope profile of a diagonal bundle is the sorted list of its line
degrees.  This normalization is the one under which the two identities
checked here hold on diagonals:

* slope duality: sigma_k(E) + sigma_(N+1-k)(E*) = 0,
* the minima/slope comparison: mu_k(E) + sigma_k(E) >= 0.

Both checkers return a ``hermlat.transference.TheoremReport`` carrying the
bundle's digest, the two sides and their ``sum``, the slack and the verdict,
so they render like every other checked statement.

Slope computations reject non-diagonal input: successive slopes of a
general bundle over a number ring are out of scope here, and diagonals
exercise every identity this package verifies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .bundles import BundleError, HermitianBundle, make_bundle, restrict_scalars
from .minima import DEFAULT_BUDGET, successive_minima
from .numberfield import NumberField
from .transference import TheoremReport, _value, _verdict, bundle_digest

# how far mu_k + sigma_k may fall below 0, and sigma_k + sigma_(N+1-k) of
# the dual may stray from 0, before the slope checks fail
MINIMA_SLOPE_SLACK = 1e-9
SLOPE_DUALITY_SLACK = 1e-10


class NotDiagonalError(BundleError):
    """Slope operations only accept diagonal bundles."""


@dataclass(frozen=True)
class DiagonalBundle:
    """Orthogonal sum of metrized lines: scales[l][s] is the norm of the
    l-th generator at embedding s."""

    nf: NumberField
    line_scales: tuple[tuple[float, ...], ...]
    bundle: HermitianBundle

    @property
    def rank(self) -> int:
        return len(self.line_scales)


def _check_scales(nf: NumberField, scales: Sequence[float]) -> None:
    """Require one positive scale per embedding, equal at conjugate embeddings."""
    if len(scales) != nf.degree:
        raise BundleError("need one scale per embedding")
    if any(t <= 0 for t in scales):
        raise BundleError("scales must be positive")
    if any(abs(t - scales[nf.conj_index[s]]) > 1e-12 * t for s, t in enumerate(scales)):
        raise BundleError("scales must be conjugation-invariant")


def diagonal_bundle(nf: NumberField, line_scales: Sequence[Sequence[float]]) -> DiagonalBundle:
    """Build a diagonal bundle from per-line, per-embedding positive scales."""
    scales = tuple(tuple(float(t) for t in line) for line in line_scales)
    n = len(scales)
    if n < 1:
        raise BundleError("need at least one line")
    for line in scales:
        _check_scales(nf, line)
    grams = []
    for s in range(nf.degree):
        grams.append(np.diag([line[s] ** 2 for line in scales]).astype(complex))
    return DiagonalBundle(nf, scales, make_bundle(nf, n, grams))


def as_diagonal(bundle: HermitianBundle) -> DiagonalBundle:
    """Reinterpret a bundle whose Gram matrices are all diagonal."""
    for s, h in enumerate(bundle.grams):
        off = h - np.diag(np.diag(h))
        if np.abs(off).max() > 1e-12 * max(1.0, float(np.abs(h).max())):
            raise NotDiagonalError(f"Gram {s} is not diagonal; slopes are only computed on diagonal bundles")
    scales = tuple(
        tuple(float(math.sqrt(np.real(bundle.grams[s][l, l]))) for s in range(bundle.nf.degree))
        for l in range(bundle.rank)
    )
    return DiagonalBundle(bundle.nf, scales, bundle)


def line_degree(nf: NumberField, scales: Sequence[float]) -> float:
    """Normalized arithmetic degree of a metrized line: -(sum_s log t_s)/r."""
    _check_scales(nf, scales)
    return -sum(math.log(t) for t in scales) / nf.degree


@dataclass(frozen=True)
class SlopeProfile:
    """Successive slopes, nonincreasing, log scale, normalized by 1/r."""

    slopes: tuple[float, ...]

    def __post_init__(self):
        if not all(a >= b - 1e-12 for a, b in zip(self.slopes, self.slopes[1:])):
            raise ValueError(f"slopes must be nonincreasing, got {self.slopes}")


def diagonal_slopes(diag: DiagonalBundle) -> SlopeProfile:
    degrees = sorted(
        (line_degree(diag.nf, line) for line in diag.line_scales), reverse=True
    )
    return SlopeProfile(tuple(degrees))


def dual_diagonal(diag: DiagonalBundle) -> DiagonalBundle:
    return diagonal_bundle(diag.nf, [[1.0 / t for t in line] for line in diag.line_scales])


def check_minima_slope_bound(diag: DiagonalBundle, k: int, budget: int = DEFAULT_BUDGET) -> TheoremReport:
    """Minima/slope comparison on a diagonal bundle: mu_k + sigma_k >= 0."""
    if not 1 <= k <= diag.rank:
        raise ValueError("k out of range")
    prof = successive_minima(restrict_scalars(diag.bundle), k, "f-rank", "sup", budget)
    mu_k = _value(prof, k - 1)
    sigma_k = diagonal_slopes(diag).slopes[k - 1]
    total = mu_k + sigma_k
    return TheoremReport(
        statement=f"minima-slope[k={k}]",
        digest=bundle_digest(diag.bundle),
        quantities=(("mu_k", mu_k), ("sigma_k", sigma_k), ("sum", total)),
        slack=MINIMA_SLOPE_SLACK,
        verdict=_verdict(prof.certified, total >= -MINIMA_SLOPE_SLACK),
    )


def check_slope_duality(diag: DiagonalBundle, k: int) -> TheoremReport:
    """sigma_k of the bundle plus sigma_(N+1-k) of its dual vanishes."""
    if not 1 <= k <= diag.rank:
        raise ValueError("k out of range")
    sigma_k = diagonal_slopes(diag).slopes[k - 1]
    sigma_dual = diagonal_slopes(dual_diagonal(diag)).slopes[diag.rank - k]
    total = sigma_k + sigma_dual
    return TheoremReport(
        statement=f"slope-duality[k={k}]",
        digest=bundle_digest(diag.bundle),
        quantities=(("sigma_k", sigma_k), ("sigma_dual_N+1-k", sigma_dual), ("sum", total)),
        slack=SLOPE_DUALITY_SLACK,
        verdict=_verdict(True, abs(total) <= SLOPE_DUALITY_SLACK),
    )
