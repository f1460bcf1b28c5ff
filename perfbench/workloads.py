"""Seeded bundle workloads of the hermlat benchmark.

Every input is generated from the seed handed to a workload's stream; the
program under test only ever receives the generated bundles.  Each
workload is an endless, deterministic stream: a run takes bundles from it
until its time is up, so the same seed always yields the same prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from hermlat import make_bundle, numberfield, random_bundle
from hermlat.minima import DEFAULT_BUDGET

# Defining polynomials of the shipped fields the workloads use (constant
# term first).  Fields are built here, not through the cached
# ``fixtures.shipped_field``, so that set-up time really builds them.
FIELD_POLYS = {
    "q": (0, 1),
    "gaussian": (1, 0, 1),
    "sqrt2": (-2, 0, 1),
    "sqrt_minus3": (1, -1, 1),
    "zeta5": (1, 1, 1, 1, 1),
}

# The two check-* workloads perturb fixed base bundles by seeded
# congruences.  Independent random bundles are no use there: zeta5 rank-2
# checks range from 0.14 s to 21 s (the radius-doubling overshoot enters
# the node count to the 8th power), so a run of a few of them gives no
# steady median.  A base bundle is the index-th one drawn by random_bundle
# from default_rng(BASE_SEED).
BASE_SEED = 1
PERTURBATION = 0.01

# check-n12 runs every bundle under this node budget.  At the default
# budget one zeta5 rank-3 check takes about 25 s; under this one most
# profiles exhaust it, so a check costs about 1 s and is uncertified, which
# is the state the ROADMAP's N*r = 12 goal must change.  A perturbation
# can move a profile's last radius doubling across the budget; under a
# smaller budget fewer profiles sit near that edge.
N12_BUDGET = 30_000


@dataclass(frozen=True)
class Workload:
    name: str
    fields: tuple[str, ...]
    budget: int
    make_stream: Callable[[dict, int], Iterator]
    setup_bundles: int  # bundles drawn (and timed) during set-up
    panel_size: int  # reference bundles the correctness gate re-checks
    round_size: int = 1  # a run checks whole rounds of this many bundles


def build_fields(names) -> dict:
    # looked up on the module at call time, so the tracer's wrapper is seen
    return {name: numberfield.build_field(FIELD_POLYS[name]) for name in names}


def _fuzz_small(fields: dict, seed: int) -> Iterator:
    """Rank 1-2 bundles over the fuzz-corpus fields, drawn like ``fuzz``."""
    rng = np.random.default_rng(seed)
    order = [fields[n] for n in ("q", "gaussian", "sqrt2", "sqrt_minus3")]
    trial = 0
    while True:
        nf = order[trial % len(order)]
        rank = int(rng.integers(1, 3))
        yield random_bundle(nf, rank, rng)
        trial += 1


def _perturbed(bundle, rng: np.random.Generator, eps: float):
    """Congruence A^H H A of every Gram by A = I + eps * noise, keeping the
    family conjugation-invariant (real noise at real embeddings)."""
    nf, n = bundle.nf, bundle.rank
    grams: list = [None] * nf.degree
    for s, h in enumerate(bundle.grams):
        if grams[s] is not None:
            continue
        sbar = nf.conj_index[s]
        noise = rng.standard_normal((n, n))
        if sbar != s:
            noise = noise + 1j * rng.standard_normal((n, n))
        a = np.eye(n) + eps * noise
        g = a.conj().T @ h @ a
        grams[s] = (g + g.conj().T) / 2
        if sbar != s:
            grams[sbar] = grams[s].conj()
    return make_bundle(nf, n, grams)


def _base_bundle(nf, rank: int, index: int):
    rng = np.random.default_rng(BASE_SEED)
    for _ in range(index):
        random_bundle(nf, rank, rng)
    return random_bundle(nf, rank, rng)


def _perturbed_stream(fields: dict, bases, seed: int) -> Iterator:
    """Round-robin perturbations of the (field, rank, index) base bundles."""
    base = [_base_bundle(fields[f], rank, index) for f, rank, index in bases]
    rng = np.random.default_rng(seed)
    while True:
        for b in base:
            yield _perturbed(b, rng, PERTURBATION)


def _check_deg4_n2(fields: dict, seed: int) -> Iterator:
    # lambda_vee takes ~160k nodes here (the first bundle of the stream, the
    # ROADMAP's baseline, takes 452,802 and ~6.6 s: too few per run)
    return _perturbed_stream(fields, [("zeta5", 2, 2)], seed)


def _check_n12(fields: dict, seed: int) -> Iterator:
    return _perturbed_stream(fields, [("zeta5", 3, 0), ("gaussian", 6, 0)], seed)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fuzz-small", ("q", "gaussian", "sqrt2", "sqrt_minus3"),
                 DEFAULT_BUDGET, _fuzz_small, setup_bundles=200, panel_size=40),
        Workload("check-deg4-n2", ("zeta5",), DEFAULT_BUDGET, _check_deg4_n2,
                 setup_bundles=2, panel_size=1),
        # whole zeta5/gaussian pairs; one timing sample is a pair's mean
        Workload("check-n12", ("zeta5", "gaussian"), N12_BUDGET, _check_n12,
                 setup_bundles=2, panel_size=2, round_size=2),
    )
}
