"""Self-test of the benchmark harness.

    python3 -m pytest -q perfbench/test_harness.py

Checks that tracing does not change output bytes, that the exact counts of
each workload reproduce at the default data seed, that every wrapped name
is restored, that the result line carries exactly the metrics
BENCHMARK.json names, and that the benchmark fails without the sources.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run as bench
import spans

CLI, _, METRICS, _ = bench.import_fastshift()
MODS = (CLI, METRICS)
SEED = 42

# Exact counts of one invocation at data seed 42 (clustering seed 0).
EXPECTED = {
    "blobs200k_adaptive": {"kernels.pairs_tested": 96_400_000,
                           "controller.attempts": 1, "modes": 10},
    "blobs5k_baseline": {"kernels.pairs_tested": 95_300_000,
                         "baseline.sweeps": 6, "modes": 10},
    "blobs25k40_adaptive": {"controller.attempts": 3,
                            "controller.final_N": 512, "modes": 40},
    "blob20k_auto": {"faster.sweeps": 17, "kernels.pairs_tested": 36_920_000,
                     "modes": 1},
}


@pytest.mark.parametrize("name", EXPECTED)
def test_traced_invocation_writes_same_bytes_and_counts(name, tmp_path):
    session = bench.Session(bench.WORKLOADS[name], tmp_path, MODS)
    session.setup(SEED)                      # includes an untraced invocation
    ds = session.datasets[0]
    untraced = (tmp_path / "result.json").read_bytes()

    tracer = spans.Tracer()
    session.invoke(ds, tracer=tracer)
    traced = (tmp_path / "result.json").read_bytes()

    assert traced == untraced
    assert session.failed == 0 and session.attempted == 2
    m = spans.layer_metrics(tracer)
    m["modes"] = len(json.loads(traced)["modes"])
    want = EXPECTED[name]
    assert {k: m[k] for k in want} == want
    assert m["faster.distance_evals"] == (
        m["kernels.pairs_tested"] if name != "blobs5k_baseline" else 0)
    # self times partition the root span: cli -> ... -> kernels
    assert spans.self_sum_frac(tracer) == pytest.approx(1.0, abs=1e-9)
    assert sum(m[f"{layer}.self_s"] for layer in spans.LAYERS) == \
        pytest.approx(m["cli.run_s"], rel=1e-9)


def test_traced_restores_every_wrapped_name():
    import importlib
    before = {(mod, attr): getattr(importlib.import_module(f"fastshift.{mod}"),
                                   attr)
              for mod, attr, _, _ in spans.WRAP_POINTS}
    with pytest.raises(RuntimeError):
        with spans.traced(spans.Tracer()):
            raise RuntimeError("boom")
    for (mod, attr), fn in before.items():
        assert getattr(importlib.import_module(f"fastshift.{mod}"), attr) is fn


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"),
                                           (1, "per_layer")])
def test_result_line_names_every_declared_metric(trace, section, capsys):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    assert bench.main(["--workload", "blob20k_auto", "--seed", str(SEED),
                       "--seconds", "0", "--trace", str(trace)]) == 0
    line = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in declared[section]}
    assert {k: v["unit"] for k, v in line["metrics"].items()} == units


def test_fails_without_the_sources(tmp_path):
    declared = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    for p in declared["paths"]:
        shutil.copytree(bench.ROOT / p, tmp_path / p,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *declared["command"][1:], "--workload",
         "blob20k_auto", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
