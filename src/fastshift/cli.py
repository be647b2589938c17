"""Command-line interface: generate, cluster, bench, compare.

Exit codes: 0 success, 1 output I/O failure, 2 usage or configuration
error (bad flags, unreadable/unparseable input, degenerate bandwidth),
3 algorithmic or resource failure (no converged seeds, no surviving
modes, out of memory) or internal error.

All randomness flows from ``--seed``; identical invocations write
identical bytes. ``--no-timing`` zeroes the one non-repeatable field
(wall time) so result files can be compared byte for byte.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import secrets
import stat
import sys
import warnings
from pathlib import Path

import numpy as np

from . import controller, kernels
from .baseline import run_baseline
from .controller import run_adaptive
from .core import (
    MAX_SAMPLE_CAP,
    QUANTILE,
    SAMPLE_CAP,
    ConfigError,
    ShiftConfig,
    VectorSet,
    estimate_bandwidth,
)
from .datagen import KINDS, GenSpec, generate
from .faster import run_faster
from .metrics import BENCH_METHODS, BenchRecord, bench_run, rand_index

BENCH_CSV_HEADER = ",".join(f.name for f in dataclasses.fields(BenchRecord))

_FLOAT_FMT = "%.17g"

# points (CSV rows or labels) per text piece of a streamed output
_PIECE_POINTS = 4096


def _fail(msg: str) -> None:
    print(f"error: {msg}", file=sys.stderr)


def _load_points(path: str) -> VectorSet:
    try:
        # an empty file is rejected below with one error line, so numpy's
        # warning about it would only repeat that on stderr
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                    UserWarning)
            data = np.loadtxt(path, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read dataset {path}: {exc}") from exc
    return VectorSet(data)


def _apply_threads(args) -> None:
    if args.threads is not None:
        kernels.set_threads(args.threads)


def _resolve_bandwidth(args, points: VectorSet) -> float:
    # ShiftConfig owns the bandwidth rule; only a zero estimate needs a
    # message of its own
    if args.bandwidth is not None:
        return args.bandwidth
    h = estimate_bandwidth(points, quantile=args.quantile,
                           sample_cap=args.sample_cap, rng_seed=args.seed)
    if h == 0.0:
        raise ConfigError("estimated bandwidth is 0: each sampled point's "
                          "quantile neighbour coincides with it; pass "
                          "--bandwidth or a larger --quantile")
    return h


def _resolve_seeds(value: str | None, n: int) -> int:
    if value is None:
        return ShiftConfig.n_initial
    if value == "all":
        return n
    try:
        return int(value)
    except ValueError as exc:
        raise ConfigError(f"--seeds must be an integer or 'all', "
                          f"got {value!r}") from exc


def _write_text(path: str | None, pieces) -> None:
    """Write the text ``pieces`` to stdout, or replace the file at ``path``
    atomically.

    A regular or missing target (after following symlinks) gets the
    pieces, in order, through a new temporary file beside it, which then
    replaces it in one rename: a failed write, or an exception from the
    pieces' iterator, leaves any earlier file untouched and no partial
    file behind, and an earlier file's mode is kept (its owner too, where
    the user may set it). Any other target, such as ``/dev/null`` or
    ``/dev/stdout``, is written through, since a rename would replace the
    device or pipe itself.
    """
    if path is None:
        sys.stdout.writelines(pieces)
        return
    target = Path(os.path.realpath(path))
    try:
        old = target.stat()
    except FileNotFoundError:
        old = None
    if old is not None and not stat.S_ISREG(old.st_mode):
        with open(target, "w") as fh:
            fh.writelines(pieces)
        return
    tmp = target.with_name(f".{target.name}.{secrets.token_hex(8)}.tmp")
    try:
        fh = open(tmp, "x")
    except OSError as exc:  # name the file the user asked for
        raise OSError(exc.errno, exc.strerror, path) from None
    try:
        with fh:
            if old is not None:
                with contextlib.suppress(PermissionError):
                    os.fchown(fh.fileno(), old.st_uid, old.st_gid)
                os.fchmod(fh.fileno(), stat.S_IMODE(old.st_mode))
            fh.writelines(pieces)
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def cmd_generate(args) -> int:
    spec = GenSpec(kind=args.kind, n_points=args.n, n_clusters=args.clusters,
                   noise_sigma=args.sigma, rng_seed=args.seed,
                   box_extent=args.box)
    points, labels, centers = generate(spec)
    _write_text(args.out, _csv_pieces(points.data))
    truth = {**dataclasses.asdict(spec),
             "centers": None if centers is None else centers.tolist()}
    _write_text(str(Path(args.out).with_suffix(".truth.json")),
                _result_pieces(truth, labels))
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
        n_initial=_resolve_seeds(args.seeds, points.n),
        rng_seed=args.seed,
        min_mode_support=args.min_support,
    )
    if args.method == "baseline":
        result = run_baseline(points, cfg)
    elif args.method == "faster":
        result = run_faster(points, cfg)
    else:
        result, _ = run_adaptive(points, cfg)

    labels = result.labels
    payload = {
        "method": args.method,
        "n_points": points.n,
        "modes": result.mode_set.modes.tolist(),
        "support": result.mode_set.support.tolist(),
        "seeds_used": result.seeds_used,
        "seeds_discarded": result.seeds_discarded,
        "iterations_run": result.iterations_run,
        "distance_evals": result.distance_evals,
        "wall_time_s": 0.0 if args.no_timing else result.wall_time_s,
        # the library constants a run used are part of the result format
        "config": {"backend": kernels.active_backend(),
                   "chunk_size": kernels.CHUNK_POINTS,
                   "seed_low_L": controller.SEED_LOW_L,
                   "seed_high_H": controller.SEED_HIGH_H,
                   **dataclasses.asdict(cfg)},
    }
    # only the labels are still needed: free the points before writing
    del points, result
    _write_text(args.out, _result_pieces(payload, labels))
    return 0


def _result_pieces(payload: dict, labels: np.ndarray):
    """Text pieces of ``payload`` with ``labels`` as its ``"labels"`` list,
    for the result JSON and the ``.truth.json`` sidecar alike.

    They join to the ``json.dumps(..., sort_keys=True, separators=(",",
    ":"))`` of the whole payload plus a newline, but the labels are
    encoded straight from the array, ``_PIECE_POINTS`` at a time, so neither
    a list of n Python ints nor the whole text is ever held.
    """
    head, tail = json.dumps({**payload, "labels": []}, sort_keys=True,
                            separators=(",", ":")).split('"labels":[]')
    yield head + '"labels":['
    for lo in range(0, labels.size, _PIECE_POINTS):
        chunk = json.dumps(labels[lo:lo + _PIECE_POINTS].tolist(),
                           separators=(",", ":"))
        yield ("," if lo else "") + chunk[1:-1]
    yield "]" + tail + "\n"


def _csv_pieces(data: np.ndarray):
    """Text pieces of the headerless CSV of ``data``, one row per point.

    They join to ``np.savetxt(..., fmt=_FLOAT_FMT, delimiter=",")``'s
    text, but each piece of ``_PIECE_POINTS`` rows is one ``%`` format of
    the rows' Python floats: no loop runs per row, and the whole text is
    never held.
    """
    row = ",".join([_FLOAT_FMT] * data.shape[1]) + "\n"
    for lo in range(0, len(data), _PIECE_POINTS):
        block = data[lo:lo + _PIECE_POINTS]
        yield (row * len(block)) % tuple(block.ravel().tolist())


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
    # bench_run rejects a method outside BENCH_METHODS
    methods = ["faster_adaptive" if m == "adaptive" else m
               for m in map(str.strip, args.methods.split(",")) if m]
    if not methods:
        raise ConfigError("--methods must name at least one method")

    # default bandwidth pins the generation-protocol scale (3 * sigma)
    # rather than re-estimating per size, so rows are comparable
    h = args.bandwidth if args.bandwidth is not None else 3.0 * args.sigma
    cfg = ShiftConfig(bandwidth_h=h, rng_seed=args.seed)
    series = [GenSpec(kind=args.kind, n_points=n, n_clusters=args.clusters,
                      noise_sigma=args.sigma, rng_seed=args.seed)
              for n in sizes]
    records = bench_run(series, methods, cfg, repeats=args.repeats)

    lines = [BENCH_CSV_HEADER]
    lines += [",".join(map(_csv_cell, dataclasses.astuple(r))) for r in records]
    _write_text(args.out, ["\n".join(lines) + "\n"])
    return 0 if any(r.status == "ok" for r in records) else 3


def cmd_compare(args) -> int:
    labels = []
    for path in (args.a, args.b):
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot read result file {path}: {exc}") from exc
        found = payload.get("labels") if isinstance(payload, dict) else None
        # JSON true and false load as bool, a subclass of int
        if not (isinstance(found, list)
                and all(type(x) is int for x in found)):
            raise ConfigError(f"result file {path} has no 'labels' list "
                              f"of integers")
        labels.append(found)
    if len(labels[0]) != len(labels[1]):
        raise ConfigError(f"label lengths differ: {len(labels[0])} "
                          f"vs {len(labels[1])}")
    print(f"rand_index={rand_index(labels[0], labels[1]):.12f}")
    return 0


def _add_common_cluster_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bandwidth", type=float, default=None,
                   help="window radius h; omit to estimate from the data")
    p.add_argument("--quantile", type=float, default=QUANTILE,
                   help="neighbor quantile for bandwidth estimation")
    p.add_argument("--sample-cap", type=int, default=SAMPLE_CAP,
                   help="max points sampled by the bandwidth estimator, "
                        f"at most {MAX_SAMPLE_CAP} (its time is quadratic)")
    p.add_argument("--tol", type=float, default=ShiftConfig.conv_tol,
                   help="convergence tolerance as a fraction of h")
    p.add_argument("--max-iter", type=int, default=ShiftConfig.max_iter)
    p.add_argument("--gamma", type=float,
                   default=ShiftConfig.early_stop_gamma,
                   help="converged fraction that stops the seed batch")
    p.add_argument("--min-support", type=int,
                   default=ShiftConfig.min_mode_support,
                   help="drop modes with accumulated support below this")
    p.add_argument("--threads", type=int, default=None,
                   help="worker thread cap (default: all)")
    p.add_argument("--seed", type=int, default=ShiftConfig.rng_seed,
                   help="master RNG seed")


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
    g.add_argument("--clusters", type=int, default=GenSpec.n_clusters)
    g.add_argument("--sigma", type=float, default=GenSpec.noise_sigma)
    g.add_argument("--seed", type=int, default=GenSpec.rng_seed)
    g.add_argument("--box", type=float, default=GenSpec.box_extent,
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
    b.add_argument("--clusters", type=int, default=GenSpec.n_clusters)
    b.add_argument("--sigma", type=float, default=GenSpec.noise_sigma)
    b.add_argument("--bandwidth", type=float, default=None,
                   help="window radius h (default: 3 * sigma)")
    b.add_argument("--threads", type=int, default=None)
    b.add_argument("--seed", type=int, default=ShiftConfig.rng_seed)
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_bench)

    p = sub.add_parser("compare", help="Rand index between two result files")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(func=cmd_compare)

    return parser


# built once per process: building the tree costs about twenty parses,
# and parse_args leaves the parser as it found it
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except MemoryError as exc:
        _fail(str(exc) or "out of memory")
        return 3
    except ValueError as exc:  # includes ConfigError
        _fail(str(exc))
        return 2
    except OSError as exc:
        _fail(str(exc))
        return 1
    except RuntimeError as exc:  # no modes, no converged seeds, no centers
        _fail(str(exc))
        return 3
    except Exception as exc:  # noqa: BLE001 - one line, never a traceback
        _fail(f"internal error: {type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
