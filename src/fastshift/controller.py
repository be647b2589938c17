"""Adaptive seed-count control.

The seed count N for the seeded engine is steered by the observed mode
count M: too few seeds (N < L*M) risks missing a cluster, so N doubles and
the run continues at once, keeping its walkers and adding seeds;
comfortably many (N > H*M) wastes work, so N shrinks by M for the next
dataset in a sequence. Between the bounds the result is accepted as-is.
The coverage-probability formula quantifies the risk the lower bound
guards against.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
import math
import time

import numpy as np

from .core import ClusterResult, ShiftConfig, VectorSet, Walkers, assign_labels
from .faster import run_faster

# the seed band: at least L and at most H seeds per observed mode
SEED_LOW_L = 8
SEED_HIGH_H = 32


@dataclass
class ControllerState:
    """Seed-count state carried across retries and across frames.

    ``history`` records every attempt as ``(N, M, accepted)``; its length
    numbers the seed-derivation stream of the next attempt, so every
    attempt (and every frame) draws its new seeds deterministically from a
    stream of its own. Within one ``run_adaptive`` call a retry keeps the
    previous attempt's walkers and only adds seeds; a new call (the next
    frame) starts from fresh seeds.
    """

    N: int
    history: list = field(default_factory=list)

    @property
    def exhausted(self) -> bool:
        """The latest attempt was accepted under the L*M floor, which only
        N reaching n allows."""
        if not self.history:
            return False
        N, M, accepted = self.history[-1]
        return accepted and N < min_seed_bound(M)

    @property
    def retries(self) -> int:
        """Attempts that were retried, i.e. not accepted, over all calls."""
        return sum(not accepted for _, _, accepted in self.history)


def coverage_probability(N: int, M: int) -> float:
    """Chance that N seeds cover all M equal clusters, under the model
    that every size-N multiset of cluster assignments is equally likely.

    Value is C(N-1, M-1) / C(N+M-1, M-1), exact at any size (integer
    combinatorics, correctly rounded division). N < M returns 0.0: fewer
    seeds than clusters cannot cover them.

    Note the multiset model undercounts real uniform sampling: for
    N = M = 2 it gives 1/3 while independent uniform seeds over two equal
    clusters cover both with probability 1/2. The formula is kept as the
    design's stated risk model; tests document the gap.
    """
    if M < 1 or N < 1:
        raise ValueError(f"need N >= 1 and M >= 1, got N={N} M={M}")
    if N < M:
        return 0.0
    return math.comb(N - 1, M - 1) / math.comb(N + M - 1, M - 1)


def min_seed_bound(M: int) -> int:
    """Smallest accepted seed count for M observed modes: L*M."""
    if M < 1:
        raise ValueError(f"need M >= 1, got M={M}")
    return SEED_LOW_L * M


def next_seed_count(state: ControllerState, M_observed: int,
                    n: int) -> tuple[str, int]:
    """Steering decision after a run that found ``M_observed`` modes.

    Returns one of:
      ("retry_now", 2N clamped to n)  - under the L*M floor, redo at once
      ("accept", N)                   - inside the band, or floor unreachable
                                        because N already equals n
      ("decay", N - M_observed)       - above the H*M ceiling; the current
                                        result stands, the reduced N applies
                                        to the next dataset in sequence
    """
    if M_observed < 1:
        raise ValueError(f"M_observed must be >= 1, got {M_observed}")
    N = min(state.N, n)
    if N < min_seed_bound(M_observed):
        if N >= n:
            return "accept", N
        return "retry_now", min(2 * N, n)
    if N > SEED_HIGH_H * M_observed:
        return "decay", N - M_observed
    return "accept", N


def _attempt_seed(cfg: ShiftConfig, stream: int) -> int:
    # one child stream per attempt: deterministic, and a retry draws the
    # seeds it adds to the kept ones from a stream no attempt has used
    return int(np.random.SeedSequence([cfg.rng_seed, stream])
               .generate_state(1, np.uint64)[0])


def run_adaptive(points: VectorSet, cfg: ShiftConfig,
                 state: ControllerState | None = None
                 ) -> tuple[ClusterResult, ControllerState]:
    """Seeded run with seed-count steering; returns the result and state.

    A fresh call starts at ``cfg.n_initial`` seeds. Pass the returned state
    back in to process the next dataset of a sequence: a decayed N carries
    over, shrinking toward the H*M band frame by frame.

    A retry continues the previous attempt instead of redoing it: it keeps
    that attempt's walkers, converged or not, adds seeds up to the new N
    from points not used yet, and stops once a gamma fraction of all N have
    converged. Every attempt is one ``run_faster`` call over one cell index
    built here; only the accepted attempt is labelled.

    The returned result's ``wall_time_s`` covers the whole call and its
    ``distance_evals`` every attempt; ``iterations_run`` counts the
    accepted attempt's own sweeps, and the other telemetry fields describe
    the accepted attempt too.
    """
    t0 = time.perf_counter()
    if state is None:
        state = ControllerState(N=cfg.n_initial)
    state.N = max(1, min(state.N, points.n))

    walkers = Walkers.seeded(points, cfg.bandwidth_h)
    evals_total = 0
    while True:
        attempt = replace(cfg, n_initial=state.N,
                          rng_seed=_attempt_seed(cfg, len(state.history)))
        result = run_faster(points, attempt, walkers=walkers)
        evals_total += result.distance_evals
        M = result.mode_set.m
        action, n_next = next_seed_count(state, M, points.n)
        state.history.append((state.N, M, action != "retry_now"))
        state.N = n_next
        if action != "retry_now":
            break
    # the walkers and the index are dead now; free them before labelling
    del walkers
    labels = assign_labels(points, result.mode_set)
    return (replace(result, labels=labels, distance_evals=evals_total,
                    wall_time_s=time.perf_counter() - t0), state)
