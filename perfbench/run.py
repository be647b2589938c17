"""End-to-end and per-layer benchmark of ``fastshift cluster``.

Each workload is a generated CSV that goes through the real user path: an
in-process ``fastshift.cli.main(["cluster", ...])`` call that parses the
CSV, picks the bandwidth, runs the engine and writes the result JSON. The
caller is a closed loop: one invocation after another, from one client.

    python3 perfbench/run.py --workload blobs200k_adaptive --seed 42 \\
        --seconds 18 --trace 0
    python3 perfbench/run.py --workload all      # every workload in turn

``--seed`` seeds the data; clustering always runs with ``--seed 0``. A run
sets up each of its workload's ``datasets``: the first is generated from
``--seed`` itself, the others from seeds derived from it, so that how much
work one draw of the data happens to need averages out across a run.

With ``--trace 0`` untraced invocations give the end-to-end metrics; with
``--trace 1`` traced and untraced invocations alternate and the spans
recorded by ``spans.py`` give the per-layer metrics. Every invocation's
output is checked: exit code 0, result bytes identical to the dataset's
first result (the determinism contract), the truth's cluster count, and a
Rand-index floor. A failed check counts in ``failed`` and does not stop the
run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The line before it
(``detail:``) records the environment, the seeds, the result digests and
every sample. Working files go under ``.perfbench/`` in the checkout; the
spans of a traced run are written there when it ends.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import spans

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench"

CLUSTER_SEED = 0    # clustering --seed; this script's --seed seeds the data
RAND_FLOOR = 0.99   # minimum Rand index against the generator's labels


@dataclass(frozen=True)
class Workload:
    name: str
    generate: tuple
    cluster: tuple
    # datasets per run, each set up once (setup_s is their median); more
    # where the work one draw needs varies more from draw to draw
    datasets: int = 3


# Protocol blobs have sigma 0.1 and h = 0.3 = 3 sigma. Why each workload is
# here is recorded in BENCHMARK.json; in short:
WORKLOADS = {w.name: w for w in (
    # headline path: seeded sweeps over 200K points; CSV parsing shows
    Workload("blobs200k_adaptive",
             ("--kind", "blobs", "--n", "200000", "--clusters", "10"),
             ("--method", "adaptive", "--bandwidth", "0.3")),
    # every point walks: row-blocked kernel, 5K-candidate prune, peak memory
    Workload("blobs5k_baseline",
             ("--kind", "blobs", "--n", "5000", "--clusters", "10"),
             ("--method", "baseline", "--bandwidth", "0.3")),
    # controller retries twice; windows hold ~2.5% of n
    Workload("blobs25k40_adaptive",
             ("--kind", "blobs", "--n", "25000", "--clusters", "40"),
             ("--method", "adaptive", "--bandwidth", "0.3")),
    # estimated h: a window holds about half the points (index bypass case),
    # and the controller decays; sweeps vary 15-20 between draws
    Workload("blob20k_auto",
             ("--kind", "blobs", "--n", "20000", "--clusters", "1"),
             ("--method", "adaptive"), datasets=6),
)}


def dataset_seeds(seed: int, count: int) -> list[int]:
    """``seed`` itself, then ``count - 1`` seeds derived from it."""
    import numpy as np
    derived = np.random.SeedSequence(seed).generate_state(count - 1)
    return [seed, *(int(s) for s in derived)]


def import_fastshift():
    """Import the checkout's own ``src/fastshift``; return modules and secs.

    The time includes importing numpy, which is why this module imports
    numpy only inside functions that run after this one.
    """
    src = ROOT / "src"
    if not (src / "fastshift" / "__init__.py").is_file():
        raise SystemExit(f"error: no fastshift sources under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import fastshift
    from fastshift import cli, kernels, metrics
    elapsed = time.perf_counter() - t0
    if Path(fastshift.__file__).resolve().parent != src / "fastshift":
        raise SystemExit(f"error: imported fastshift from {fastshift.__file__}")
    return cli, kernels, metrics, elapsed


def environment(kernels, seed: int) -> dict:
    import numpy
    return {
        "workload_seed": seed,
        "cluster_seed": CLUSTER_SEED,
        "backend": kernels.active_backend(),
        "has_numba": kernels.HAS_NUMBA,
        "FASTSHIFT_BACKEND": os.environ.get("FASTSHIFT_BACKEND"),
        "FASTSHIFT_THREADS": os.environ.get("FASTSHIFT_THREADS"),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        # the model name lives outside the checkout (/proc), which the
        # benchmark does not read; record what the platform module knows
        "cpu": platform.processor() or platform.machine(),
        "platform": platform.platform(),
    }


@dataclass
class Dataset:
    seed: int
    csv: Path
    truth: object                   # generator labels, numpy array
    reference: str | None = None    # digest of the first result
    rand: float = 0.0               # Rand index of the reference result
    verdict: str | None = None      # why the reference result fails, if so
    walls: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    layers: list = field(default_factory=list)


class Session:
    """One workload at one seed: set-up, invocations and their checks."""

    def __init__(self, workload: Workload, workdir: Path, mods):
        """``mods`` is the ``(fastshift.cli, fastshift.metrics)`` pair."""
        self.w = workload
        self.workdir = workdir
        self.cli, self.metrics = mods
        self.datasets: list[Dataset] = []
        self.attempted = 0
        self.failed = 0
        self.last_rc = None         # exit code of the latest invocation

    def setup(self, seed: int) -> tuple[float, float]:
        """Generate and write one dataset's CSV, then one warm-up invocation.

        Returns (set-up seconds, seconds inside ``datagen.generate``).
        """
        import numpy as np
        csv = self.workdir / f"{self.w.name}-{seed}.csv"
        tracer = spans.Tracer()
        gen_point = (("cli", "generate", "datagen.generate", None),)
        t0 = time.perf_counter()
        with spans.traced(tracer, gen_point):
            rc = self.cli.main(["generate", *self.w.generate, "--sigma", "0.1",
                                "--seed", str(seed), "--out", str(csv)])
        if rc != 0:
            raise RuntimeError(f"generate exited {rc}")
        truth = json.loads(csv.with_suffix(".truth.json").read_text())
        ds = Dataset(seed, csv, np.asarray(truth["labels"]))
        self.datasets.append(ds)
        self.invoke(ds)
        return time.perf_counter() - t0, tracer.spans[0].duration

    def invoke(self, ds: Dataset, tracer=None, peak=False) -> float:
        """One checked ``cluster`` invocation; returns its wall seconds.

        With ``tracer`` the invocation runs under the span wrappers, which
        are put in place and removed outside the timed interval. With
        ``peak`` it runs under tracemalloc and returns the peak traced
        bytes instead.
        """
        out = self.workdir / "result.json"
        out.unlink(missing_ok=True)
        argv = ["cluster", "--input", str(ds.csv), *self.w.cluster,
                "--seed", str(CLUSTER_SEED), "--no-timing", "--out", str(out)]
        gc.collect()
        rc = None
        with spans.traced(tracer) if tracer else contextlib.nullcontext():
            if peak:
                tracemalloc.start()
            t0 = time.perf_counter()
            try:
                with tracer.span("cli.main") if tracer else \
                        contextlib.nullcontext():
                    rc = self.cli.main(argv)
            except Exception:  # a crash is a failed invocation, not the end
                traceback.print_exc()
            wall = time.perf_counter() - t0
            if peak:
                wall = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
        self.last_rc = rc
        self._check(ds, rc, out)
        return wall

    def _check(self, ds: Dataset, rc, out: Path) -> None:
        self.attempted += 1
        reason = self._verdict(ds, rc, out)
        if reason is not None:
            self.failed += 1
            print(f"check failed [{self.w.name} seed {ds.seed}]: {reason}",
                  file=sys.stderr)

    def _verdict(self, ds: Dataset, rc, out: Path) -> str | None:
        if rc != 0:
            return f"exit code {rc}"
        try:
            data = out.read_bytes()
        except OSError as exc:
            return f"no result file: {exc}"
        digest = hashlib.sha256(data).hexdigest()
        if ds.reference is None:
            try:
                payload = json.loads(data)
                ds.rand = self.metrics.rand_index(payload["labels"], ds.truth)
                found = len(payload["modes"])
            except (ValueError, KeyError, TypeError) as exc:
                return f"unreadable result: {exc!r}"
            ds.reference = digest
            want = len(set(ds.truth.tolist()))
            if found != want:
                ds.verdict = f"{found} modes, truth has {want}"
            elif ds.rand < RAND_FLOOR:
                ds.verdict = f"rand index {ds.rand} under {RAND_FLOOR}"
        if digest != ds.reference:
            return "result bytes differ from the dataset's first result"
        return ds.verdict


def round_robin(seconds: float, datasets, step) -> None:
    """Call ``step(ds)`` over the datasets in turn, in whole rounds, and
    stop at the round boundary nearest to ``seconds``; at least one round."""
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for ds in datasets:
            step(ds)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / rounds / 2 >= seconds:
            return


def mean_of_medians(per_dataset) -> float:
    return statistics.fmean(statistics.median(v) for v in per_dataset)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 mods, import_s: float, env: dict) -> dict:
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        workload = WORKLOADS[name]
        s = Session(workload, workdir, mods)
        setups, gens = [], []
        for ds_seed in dataset_seeds(seed, workload.datasets):
            t, g = s.setup(ds_seed)
            setups.append(import_s + t)
            gens.append(g)
        dss = s.datasets
        peak = s.invoke(dss[0], peak=True)

        if not trace:
            round_robin(seconds, dss, lambda ds: ds.walls.append(s.invoke(ds)))
            metrics = {
                "run_s": (mean_of_medians(ds.walls for ds in dss), "s"),
                "peak_mb": (peak / 1e6, "MB"),
                "rand_vs_truth": (min(ds.rand for ds in dss), "ratio"),
                "setup_s": (statistics.median(setups), "s"),
            }
        else:
            tracers, sums = [], []

            def pair(ds):
                ds.walls.append(s.invoke(ds))
                tracer = spans.Tracer()
                ds.traced.append(s.invoke(ds, tracer=tracer))
                if s.last_rc == 0:      # spans of a crashed run are partial
                    ds.layers.append(spans.layer_metrics(tracer))
                    tracers.append(tracer)
                    sums.append(spans.self_sum_frac(tracer))

            round_robin(seconds, dss, pair)
            layered = [ds.layers for ds in dss if ds.layers]
            if not layered:
                raise RuntimeError("no traced invocation completed")
            metrics = {k: (mean_of_medians([m[k] for m in layers]
                                           for layers in layered), UNITS[k])
                       for k in layered[0][0]}
            metrics["datagen.generate_s"] = (statistics.median(gens), "s")
            metrics["bench.trace_overhead_frac"] = (
                mean_of_medians(ds.traced for ds in dss)
                / mean_of_medians(ds.walls for ds in dss) - 1.0, "ratio")
            metrics = {k: metrics[k] for k in UNITS}
            trace_file = OUT_DIR / f"trace-{name}-seed{seed}.json"
            trace_file.write_text(json.dumps(
                {"workload": name, "env": env,
                 "invocations": [t.to_json() for t in tracers]}))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    detail = {
        "workload": name, "env": env,
        "attempted": s.attempted, "failed_frac": s.failed / s.attempted,
        "run_s_samples": sum(len(ds.walls) for ds in dss),
        "setup_s_samples": setups,
        "peak_mb": peak / 1e6,
        "datasets": [{"seed": ds.seed, "digest": ds.reference,
                      "rand_vs_truth": ds.rand, "run_s": ds.walls,
                      "traced_run_s": ds.traced} for ds in dss],
    }
    if trace:
        detail["trace_file"] = str(trace_file.relative_to(ROOT))
        detail["self_sum_frac"] = [min(sums), max(sums)]
    correct = s.failed == 0 and all(ds.reference for ds in dss)
    return {"correct": correct, "attempted": s.attempted, "failed": s.failed,
            "metrics": metrics, "detail": detail}


# Unit of every per-layer metric, in the order they are reported.
UNITS = {
    "cli.run_s": "s",
    "cli.self_s": "s",
    "controller.self_s": "s",
    "controller.attempts": "count",
    "controller.retries": "count",
    "controller.final_N": "count",
    "controller.wasted_evals_frac": "ratio",
    "faster.run_s": "s",
    "faster.self_s": "s",
    "faster.sweeps": "count",
    "faster.seeds_used": "count",
    "faster.converged_frac": "ratio",
    "faster.distance_evals": "count",
    "baseline.run_s": "s",
    "baseline.self_s": "s",
    "baseline.sweeps": "count",
    "core.self_s": "s",
    "core.estimate_bandwidth_s": "s",
    "core.prune_modes_s": "s",
    "core.assign_labels_s": "s",
    "kernels.self_s": "s",
    "kernels.batch_step_s": "s",
    "kernels.batch_step_calls": "count",
    "kernels.pairs_tested": "count",
    "kernels.ns_per_pair": "ns",
    "kernels.batch_bytes_analytic": "bytes",
    "kernels.greedy_prune_s": "s",
    "kernels.greedy_prune_cands": "count",
    "kernels.nearest_labels_s": "s",
    "kernels.nearest_labels_pairs": "count",
    "datagen.generate_s": "s",
    "bench.trace_overhead_frac": "ratio",
}


def print_report(name: str, res: dict) -> None:
    d = res["detail"]
    print(f"== {name}: attempted {res['attempted']}, failed {res['failed']}, "
          f"failed_frac {d['failed_frac']:.4g}, correct {res['correct']}, "
          f"untraced run_s samples {d['run_s_samples']}")
    for key, (value, unit) in res["metrics"].items():
        note = (f"  (computed; measured peak_mb {d['peak_mb']:.6g})"
                if key.endswith("_analytic") else "")
        print(f"  {key:30s} {value:>16.6g} {unit}{note}")
    print("detail: " + json.dumps(d, sort_keys=True))


def result_line(res: dict) -> str:
    return json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in res["metrics"].items()},
    })


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, default=42,
                   help="data-generation seed (clustering always uses 0)")
    p.add_argument("--seconds", type=float, default=18.0,
                   help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")

    cli, kernels, metrics, import_s = import_fastshift()
    env = environment(kernels, args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     bool(args.trace), (cli, metrics),
                                     import_s, env)
        print_report(name, results[name])
    if len(names) == 1:
        print(result_line(results[names[0]]))
    else:
        print(result_line({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{n}.{k}": v for n, r in results.items()
                        for k, v in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
