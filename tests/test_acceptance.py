"""Release gate: the nine guarantees the package is shipped against.

Each test prints one ``[criterion N] PASS/FAIL`` verdict line (through the
capture bypass, so the line shows up in a plain pytest run) before it
asserts. Thresholds are stated inline; none of them may be loosened
without revisiting the claims in the README.

The whole file is deterministic: datasets, clustering seeds, and trial
seeds are pinned, so a verdict never flips between runs on one machine.
"""

import itertools
import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from conftest import run_cli

from fastshift import kernels
from fastshift.baseline import run_baseline, shift_once
from fastshift.controller import coverage_probability, run_adaptive
from fastshift.core import ShiftConfig, estimate_bandwidth, kde_value
from fastshift.datagen import GenSpec, generate
from fastshift.faster import run_faster
from fastshift.metrics import mode_match, rand_index

# ten 0.1-sigma blobs with h pinned at 3 sigma: the protocol every
# size-scaling criterion runs under
TABLE_CFG = ShiftConfig(bandwidth_h=0.3, rng_seed=0)

AGREEMENT_KINDS = ("blobs", "large_var_blobs", "varied_var_blobs",
                   "anisotropic", "uniform_square")


@pytest.fixture
def verdict(capsys):
    def emit(num, ok, detail):
        with capsys.disabled():
            print(f"[criterion {num}] {'PASS' if ok else 'FAIL'} - {detail}")
        return ok
    return emit


def blob_protocol(n, clusters=10, gen_seed=42):
    spec = GenSpec(kind="blobs", n_points=n, n_clusters=clusters,
                   noise_sigma=0.1, rng_seed=gen_seed)
    return generate(spec)


def test_criterion_1_engines_agree_across_distributions(verdict):
    # seeded engine vs exhaustive engine on five data shapes, automatic
    # bandwidth: labelings agree pairwise and every exhaustive mode has a
    # seeded counterpart within h
    worst_rand = 1.0
    missing_modes = 0
    for kind in AGREEMENT_KINDS:
        spec = GenSpec(kind=kind, n_points=1500, n_clusters=10,
                       noise_sigma=0.1, rng_seed=1)
        points, _, _ = generate(spec)
        h = estimate_bandwidth(points)
        cfg = ShiftConfig(bandwidth_h=h, rng_seed=0)
        base = run_baseline(points, cfg)
        fast, _ = run_adaptive(points, cfg)
        worst_rand = min(worst_rand, rand_index(fast.labels, base.labels))
        _, _, missed = mode_match(fast.mode_set, base.mode_set.modes, tol=h)
        missing_modes += missed
    ok = worst_rand >= 0.95 and missing_modes == 0
    verdict(1, ok, f"five-distribution agreement: min Rand {worst_rand:.4f} "
                   f"(need >= 0.95), unmatched exhaustive modes "
                   f"{missing_modes} (need 0)")
    assert ok


def test_criterion_2_ten_mode_recovery_at_10k(verdict):
    points, _, centers = blob_protocol(10_000)
    hits = 0
    for s in range(100):
        result, _ = run_adaptive(points, replace(TABLE_CFG, rng_seed=s))
        matched, _, _ = mode_match(result.mode_set, centers,
                                   tol=TABLE_CFG.bandwidth_h)
        hits += int(result.mode_set.m == 10 and matched == 10)
    ok = hits >= 95
    verdict(2, ok, f"exactly 10 modes within h of true centers for "
                   f"{hits}/100 clustering seeds (need >= 95)")
    assert ok


def test_criterion_3_uniform_square_is_one_cluster(verdict):
    spec = GenSpec(kind="uniform_square", n_points=1500, n_clusters=10,
                   noise_sigma=0.1, rng_seed=1)
    points, _, _ = generate(spec)
    h = estimate_bandwidth(points)
    cfg = ShiftConfig(bandwidth_h=h, rng_seed=0)
    m_base = run_baseline(points, cfg).mode_set.m
    m_fast = run_adaptive(points, cfg)[0].mode_set.m
    ok = m_base == 1 and m_fast == 1
    verdict(3, ok, f"uniform square collapses to a single mode: "
                   f"exhaustive {m_base}, seeded {m_fast} (need 1 and 1)")
    assert ok


def test_criterion_4_speedup_at_50k(verdict):
    points, _, _ = blob_protocol(50_000)
    base = run_baseline(points, TABLE_CFG)
    fast, _ = run_adaptive(points, TABLE_CFG)
    wall_ratio = fast.wall_time_s / base.wall_time_s
    eval_ratio = fast.distance_evals / base.distance_evals
    ok = wall_ratio <= 1 / 5 and eval_ratio <= 1 / 10
    verdict(4, ok, f"50K speedup: wall ratio {wall_ratio:.4f} (need <= 0.2),"
                   f" distance-eval ratio {eval_ratio:.5f} (need <= 0.1)")
    assert ok


def test_criterion_5_batch_memory_bound_at_200k(verdict):
    points, _, _ = blob_protocol(200_000)
    result, _ = run_adaptive(points, TABLE_CFG)
    n = points.n
    seeds = result.seeds_used
    peak = seeds * min(kernels.CHUNK_POINTS, n) * 8
    full_mask = seeds * n * 8
    ok = peak * 5 <= full_mask
    verdict(5, ok, f"200K transient buffer {peak:,} bytes vs full-mask "
                   f"{full_mask:,} (need <= 1/5, ratio "
                   f"{peak / full_mask:.4f})")
    assert ok


def test_criterion_5_measured_peak_at_200k(verdict):
    # criterion 5's nominal buffer, checked against what a run allocates:
    # the traced peak from after the points exist, which holds the cell
    # index, the walkers, the kernel scratch and the labels
    points, _, _ = blob_protocol(200_000)
    tracemalloc.start()
    try:
        result, _ = run_adaptive(points, TABLE_CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    nominal = result.seeds_used * min(kernels.CHUNK_POINTS, points.n) * 8
    ok = peak <= nominal
    verdict(5, ok, f"200K measured peak {peak:,} bytes vs nominal transient "
                   f"buffer {nominal:,} (need <=)")
    assert ok


def test_criterion_6_seed_coverage(verdict):
    # floor-sized seed count (L*M = 80) on 10 equal blobs: virtually every
    # trial must still cover all blobs
    points, _, centers = blob_protocol(2000, gen_seed=7)
    cfg = replace(TABLE_CFG)
    all_found = 0
    for trial in range(200):
        result = run_faster(points, replace(cfg, n_initial=80, rng_seed=trial))
        matched, _, _ = mode_match(result.mode_set, centers,
                                   tol=cfg.bandwidth_h)
        all_found += int(matched == 10)

    # Monte Carlo under the closed form's own model: every size-2 multiset
    # over 2 clusters equally likely. (Independent uniform sampling would
    # cover both clusters half the time instead; the formula deliberately
    # prices the multiset model, and this check holds it to that.)
    multisets = list(itertools.combinations_with_replacement(range(2), 2))
    covered = np.array([len(set(ms)) == 2 for ms in multisets], dtype=float)
    draws = np.random.default_rng(0).integers(0, len(multisets), size=20_000)
    mc = float(covered[draws].mean())
    formula = coverage_probability(2, 2)
    ok = (all_found >= 198 and math.isclose(formula, 1 / 3)
          and abs(mc - formula) < 0.02)
    verdict(6, ok, f"all 10 modes found in {all_found}/200 floor-seeded "
                   f"trials (need >= 198); (2,2) multiset Monte Carlo "
                   f"{mc:.4f} vs closed form {formula:.4f}")
    assert ok


def test_criterion_7_byte_identical_output(verdict, tmp_path):
    data = tmp_path / "d.csv"
    res = run_cli("generate", "--kind", "blobs", "--n", "1500",
                  "--clusters", "10", "--sigma", "0.1", "--seed", "1",
                  "--out", str(data))
    assert res.returncode == 0, res.stderr
    payloads = []
    for name, extra in (("r1", ()), ("r2", ()), ("r3", ()),
                        ("t1", ("--threads", "1")),
                        ("t4", ("--threads", "4"))):
        out = tmp_path / f"{name}.json"
        res = run_cli("cluster", "--input", str(data), "--method",
                      "adaptive", "--bandwidth", "0.3", "--seed", "0",
                      "--no-timing", "--out", str(out), *extra)
        assert res.returncode == 0, res.stderr
        payloads.append(out.read_bytes())
    ok = all(p == payloads[0] for p in payloads)
    verdict(7, ok, "result JSON byte-identical across 3 repeat runs and "
                   "thread counts {1, 4}" if ok else
                   "result JSON differs between runs that share a seed")
    assert ok
    json.loads(payloads[0])   # and it is well-formed


def test_criterion_8_controller_sequences(verdict):
    # under-seeded: 128 seeds against 20 blobs doubles once, then accepts
    points, _, _ = blob_protocol(2000, clusters=20, gen_seed=11)
    _, state = run_adaptive(points, TABLE_CFG)
    double_ok = (state.history == [(128, 20, False), (256, 20, True)]
                 and state.retries == 1)

    # over-seeded: 512 seeds against 10 blobs sheds M per frame
    points2, _, _ = blob_protocol(5000, gen_seed=3)
    cfg = replace(TABLE_CFG, n_initial=512)
    state2 = None
    used = []
    for _ in range(5):
        _, state2 = run_adaptive(points2, cfg, state2)
        used.append(state2.history[-1][0])
    decay_ok = used == [512, 502, 492, 482, 472] and state2.N == 462

    ok = double_ok and decay_ok
    verdict(8, ok, f"seed-count steering: doubling trace "
                   f"{[h[0] for h in state.history]} (need [128, 256]), "
                   f"decay trace {used} -> next {state2.N} "
                   f"(need [512, 502, 492, 482, 472] -> 462)")
    assert ok


def test_criterion_9_density_never_decreases(verdict):
    points, _, _ = blob_protocol(2000)
    h = TABLE_CFG.bandwidth_h
    thresh = TABLE_CFG.conv_tol * h
    starts = np.random.default_rng(0).choice(points.n, 1000, replace=False)
    worst = np.inf
    steps = 0
    for i in starts:
        x = points.data[i]
        density = kde_value(x, points, h)
        for _ in range(TABLE_CFG.max_iter):
            moved, _ = shift_once(x, points, h)
            next_density = kde_value(moved, points, h)
            worst = min(worst, next_density - density)
            steps += 1
            shift = math.sqrt(float(np.sum((moved - x) ** 2)))
            x, density = moved, next_density
            if shift <= thresh:
                break
    ok = worst >= -1e-12
    verdict(9, ok, f"estimated density non-decreasing along 1000 "
                   f"trajectories ({steps} steps): worst step delta "
                   f"{worst:.3e} (need >= -1e-12)")
    assert ok
