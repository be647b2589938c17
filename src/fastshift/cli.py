"""Command-line interface: generate, cluster, bench, compare.

Exit codes: 0 success, 1 output I/O failure, 2 usage or configuration
error (bad flags, unreadable/unparseable input, degenerate bandwidth),
3 algorithmic failure (no converged seeds, no surviving modes).

All randomness flows from ``--seed``; identical invocations write
identical bytes. ``--no-timing`` zeroes the one non-repeatable field
(wall time) so result files can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import kernels
from .baseline import run_baseline
from .controller import run_adaptive
from .core import (
    ConfigError,
    NoConvergedSeedsError,
    NoModesError,
    ShiftConfig,
    VectorSet,
    estimate_bandwidth,
)
from .datagen import KINDS, GenSpec, generate
from .faster import run_faster
from .metrics import BENCH_METHODS, bench_run, rand_index

BENCH_CSV_HEADER = ("method,n_points,wall_time_s,distance_evals,"
                    "peak_batch_bytes,modes_found,rand_index_vs_baseline,status")

_FLOAT_FMT = "%.17g"


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _load_points(path: str) -> VectorSet:
    try:
        data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    return VectorSet(data)


def _apply_threads(args) -> None:
    threads = getattr(args, "threads", None)
    if threads is None:
        env = os.environ.get("FASTSHIFT_THREADS", "").strip()
        if not env:
            return
        try:
            threads = int(env)
        except ValueError as exc:
            raise ConfigError(f"FASTSHIFT_THREADS must be an integer, "
                              f"got {env!r}") from exc
    if threads < 1:
        raise ConfigError(f"thread count must be >= 1, got {threads}")
    kernels.set_threads(threads)


def _resolve_bandwidth(args, points: VectorSet) -> float:
    if args.bandwidth is not None:
        if not (np.isfinite(args.bandwidth) and args.bandwidth > 0):
            raise ConfigError(f"bandwidth must be positive and finite, "
                              f"got {args.bandwidth}")
        return float(args.bandwidth)
    h = estimate_bandwidth(points, quantile=args.quantile,
                           sample_cap=args.sample_cap, rng_seed=args.seed)
    if h <= 0:
        raise ConfigError("estimated bandwidth is 0 (all points identical); "
                          "pass --bandwidth explicitly")
    return h


def _resolve_seeds(value: str | None, n: int, default: int) -> int:
    if value is None:
        return default
    if value == "all":
        return n
    try:
        count = int(value)
    except ValueError as exc:
        raise ConfigError(f"--seeds must be an integer or 'all', "
                          f"got {value!r}") from exc
    if count < 1:
        raise ConfigError(f"--seeds must be >= 1, got {count}")
    return count


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    Path(path).write_text(text)


def cmd_generate(args) -> int:
    spec = GenSpec(kind=args.kind, n_points=args.n, n_clusters=args.clusters,
                   noise_sigma=args.sigma, rng_seed=args.seed,
                   box_extent=args.box)
    points, labels, centers = generate(spec)
    out = Path(args.out)
    np.savetxt(out, points.data, fmt=_FLOAT_FMT, delimiter=",")
    truth = {
        "kind": spec.kind,
        "n_points": spec.n_points,
        "n_clusters": spec.n_clusters,
        "noise_sigma": spec.noise_sigma,
        "rng_seed": spec.rng_seed,
        "box_extent": spec.box_extent,
        "labels": labels.tolist(),
        "centers": None if centers is None else centers.tolist(),
    }
    out.with_suffix(".truth.json").write_text(
        json.dumps(truth, sort_keys=True, separators=(",", ":")) + "\n")
    return 0


def cmd_cluster(args) -> int:
    _apply_threads(args)
    points = _load_points(args.input)
    h = _resolve_bandwidth(args, points)
    cfg = ShiftConfig(
        bandwidth_h=h,
        conv_tol=args.tol,
        max_iter=args.max_iter,
        early_stop_gamma=args.gamma,
        n_initial=_resolve_seeds(args.seeds, points.n, 128),
        rng_seed=args.seed,
        min_mode_support=args.min_support,
        chunk_size=args.chunk_size,
    )
    if args.method == "baseline":
        result = run_baseline(points, cfg)
    elif args.method == "faster":
        result = run_faster(points, cfg.n_initial, cfg)
    else:
        result, _ = run_adaptive(points, cfg)

    payload = {
        "method": args.method,
        "n_points": points.n,
        "modes": result.mode_set.modes.tolist(),
        "support": result.mode_set.support.tolist(),
        "labels": result.labels.tolist(),
        "seeds_used": result.seeds_used,
        "seeds_discarded": result.seeds_discarded,
        "iterations_run": result.iterations_run,
        "distance_evals": result.distance_evals,
        "wall_time_s": 0.0 if args.no_timing else result.wall_time_s,
        "config": {"backend": kernels.active_backend(),
                   **dataclasses.asdict(cfg)},
    }
    _write_text(args.out, json.dumps(payload, sort_keys=True,
                                     separators=(",", ":")) + "\n")
    return 0


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return _FLOAT_FMT % value
    return str(value)


def cmd_bench(args) -> int:
    _apply_threads(args)
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError as exc:
        raise ConfigError(f"bad --sizes list {args.sizes!r}") from exc
    if not sizes:
        raise ConfigError("--sizes must name at least one size")
    methods = []
    for m in args.methods.split(","):
        m = m.strip()
        if not m:
            continue
        m = "faster_adaptive" if m == "adaptive" else m
        if m not in BENCH_METHODS:
            raise ConfigError(f"unknown method {m!r}, "
                              f"expected one of {BENCH_METHODS}")
        methods.append(m)
    if not methods:
        raise ConfigError("--methods must name at least one method")

    # default bandwidth pins the generation-protocol scale (3 * sigma)
    # rather than re-estimating per size, so rows are comparable
    h = args.bandwidth if args.bandwidth is not None else 3.0 * args.sigma
    if h <= 0:
        raise ConfigError(f"bandwidth must be positive, got {h}")
    cfg = ShiftConfig(bandwidth_h=h, rng_seed=args.seed,
                      chunk_size=args.chunk_size)
    series = [GenSpec(kind=args.kind, n_points=n, n_clusters=args.clusters,
                      noise_sigma=args.sigma, rng_seed=args.seed)
              for n in sizes]
    records = bench_run(series, methods, cfg, repeats=args.repeats)

    lines = [BENCH_CSV_HEADER]
    for r in records:
        lines.append(",".join([
            r.method,
            str(r.n_points),
            _csv_cell(r.wall_time_s),
            str(r.distance_evals),
            str(r.peak_batch_bytes),
            str(r.modes_found),
            _csv_cell(r.rand_index_vs_baseline),
            r.status,
        ]))
    _write_text(args.out, "\n".join(lines) + "\n")
    return 0 if any(r.status == "ok" for r in records) else 3


def cmd_compare(args) -> int:
    labels = []
    for path in (args.a, args.b):
        try:
            payload = json.loads(Path(path).read_text())
            labels.append(payload["labels"])
        except (OSError, ValueError, KeyError) as exc:
            raise ConfigError(f"cannot read result file {path}: {exc}") from exc
    if len(labels[0]) != len(labels[1]):
        raise ConfigError(f"label lengths differ: {len(labels[0])} "
                          f"vs {len(labels[1])}")
    print(f"rand_index={rand_index(labels[0], labels[1]):.12f}")
    return 0


def _add_common_cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bandwidth", type=float, default=None,
                   help="window radius h; omit to estimate from the data")
    p.add_argument("--quantile", type=float, default=0.3,
                   help="neighbor quantile for bandwidth estimation")
    p.add_argument("--sample-cap", type=int, default=500,
                   help="max points sampled by the bandwidth estimator")
    p.add_argument("--tol", type=float, default=1e-3,
                   help="convergence tolerance as a fraction of h")
    p.add_argument("--max-iter", type=int, default=300)
    p.add_argument("--gamma", type=float, default=0.95,
                   help="converged fraction that stops the seed batch")
    p.add_argument("--min-support", type=int, default=1,
                   help="drop modes with accumulated support below this")
    p.add_argument("--chunk-size", type=int, default=4096,
                   help="points per distance-buffer chunk")
    p.add_argument("--threads", type=int, default=None,
                   help="worker thread cap (default: FASTSHIFT_THREADS or all)")
    p.add_argument("--seed", type=int, default=0, help="master RNG seed")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fastshift",
        description="Mean-shift clustering: classical, seeded-batch, "
                    "and adaptive-seed variants, plus dataset and "
                    "benchmark tooling.")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic dataset CSV")
    g.add_argument("--kind", choices=KINDS, default="blobs")
    g.add_argument("--n", type=int, required=True, help="number of points")
    g.add_argument("--clusters", type=int, default=10)
    g.add_argument("--sigma", type=float, default=0.1)
    g.add_argument("--seed", type=int, default=0)
    g.add_argument("--box", type=float, default=10.0,
                   help="half-width of the center placement box")
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_generate)

    c = sub.add_parser("cluster", help="cluster a CSV dataset")
    c.add_argument("--input", required=True)
    c.add_argument("--method", choices=("baseline", "faster", "adaptive"),
                   default="adaptive")
    c.add_argument("--seeds", default=None,
                   help="seed count for faster/adaptive: an integer or 'all'")
    c.add_argument("--out", default=None,
                   help="result JSON path (default: stdout)")
    c.add_argument("--no-timing", action="store_true",
                   help="report wall_time_s as 0 for byte-stable output")
    _add_common_cluster_flags(c)
    c.set_defaults(func=cmd_cluster)

    b = sub.add_parser("bench", help="run the scaling benchmark table")
    b.add_argument("--sizes", required=True,
                   help="comma-separated dataset sizes")
    b.add_argument("--methods", default="baseline,faster",
                   help=f"comma-separated subset of {BENCH_METHODS}")
    b.add_argument("--repeats", type=int, default=3)
    b.add_argument("--kind", choices=KINDS, default="blobs")
    b.add_argument("--clusters", type=int, default=10)
    b.add_argument("--sigma", type=float, default=0.1)
    b.add_argument("--bandwidth", type=float, default=None,
                   help="window radius h (default: 3 * sigma)")
    b.add_argument("--chunk-size", type=int, default=4096)
    b.add_argument("--threads", type=int, default=None)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="Rand index between two result files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (NoModesError, NoConvergedSeedsError) as exc:
        _fail(str(exc))
        return 3
    except ValueError as exc:  # includes ConfigError
        _fail(str(exc))
        return 2
    except OSError as exc:
        _fail(str(exc))
        return 1
    except RuntimeError as exc:  # e.g. center placement exhausted
        _fail(str(exc))
        return 3


if __name__ == "__main__":
    sys.exit(main())
