"""End-to-end tests of the command-line interface.

Tests shell out through ``python -m fastshift.cli`` so argument parsing,
exit codes, and output bytes are exercised exactly as a user sees them;
the few that inject a fault, measure memory or check warnings call
``cli.main`` in-process. A subprocess's stderr is never asserted empty:
the accelerator import may print environment warnings that are not ours
to silence.
"""

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import resource
import stat
import subprocess
import sys
import tempfile
import tracemalloc
import warnings

import numpy as np
import pytest
from conftest import cli_env, error_lines, run_cli
from hypothesis import given, settings
from hypothesis import strategies as st

from fastshift import cli, kernels
from fastshift.cli import BENCH_CSV_HEADER
from fastshift.datagen import KINDS, GenSpec, generate


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One generated dataset plus the cluster runs several tests share."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data.csv"
    res = run_cli("generate", "--kind", "blobs", "--n", "1500",
                  "--clusters", "10", "--sigma", "0.1", "--seed", "1",
                  "--out", str(data))
    assert res.returncode == 0, res.stderr

    def cluster(out, *extra):
        r = run_cli("cluster", "--input", str(data), "--bandwidth", "0.3",
                    "--no-timing", "--out", str(out), *extra)
        assert r.returncode == 0, r.stderr
        return out

    base = cluster(root / "base.json", "--method", "baseline")
    fast = [cluster(root / f"fast{i}.json", "--method", "faster",
                    "--seeds", "all", "--gamma", "1.0") for i in range(3)]
    return {"root": root, "data": data, "base": base, "fast": fast}


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for out in (a, b):
        res = run_cli("generate", "--kind", "blobs", "--n", "400",
                      "--clusters", "4", "--seed", "9", "--out", str(out))
        assert res.returncode == 0, res.stderr
    assert a.read_bytes() == b.read_bytes()
    assert (a.with_suffix(".truth.json").read_bytes()
            == b.with_suffix(".truth.json").read_bytes())

    c = tmp_path / "c.csv"
    res = run_cli("generate", "--kind", "blobs", "--n", "400",
                  "--clusters", "4", "--seed", "10", "--out", str(c))
    assert res.returncode == 0
    assert a.read_bytes() != c.read_bytes()


def test_generate_truth_sidecar(tmp_path):
    out = tmp_path / "d.csv"
    res = run_cli("generate", "--kind", "blobs", "--n", "200",
                  "--clusters", "5", "--seed", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    truth = json.loads(out.with_suffix(".truth.json").read_text())
    assert set(truth) == {"kind", "n_points", "n_clusters", "noise_sigma",
                          "rng_seed", "box_extent", "labels", "centers"}
    assert truth["kind"] == "blobs"
    assert truth["n_points"] == 200
    assert truth["rng_seed"] == 3
    assert len(truth["labels"]) == 200
    centers = np.asarray(truth["centers"])
    assert centers.shape == (5, 2)

    res = run_cli("generate", "--kind", "uniform_square", "--n", "50",
                  "--seed", "3", "--out", str(tmp_path / "u.csv"))
    assert res.returncode == 0, res.stderr
    truth = json.loads((tmp_path / "u.truth.json").read_text())
    assert truth["centers"] is None


def test_generate_csv_roundtrips_exactly(workspace):
    loaded = np.loadtxt(workspace["data"], delimiter=",", ndmin=2)
    spec = GenSpec(kind="blobs", n_points=1500, n_clusters=10,
                   noise_sigma=0.1, rng_seed=1)
    points, _, _ = generate(spec)
    # %.17g prints enough digits that the text file is a lossless store
    assert loaded.tobytes() == points.data.tobytes()


def test_generate_unwritable_target_exits_1(tmp_path):
    out = tmp_path / "missing_dir" / "x.csv"
    res = run_cli("generate", "--kind", "blobs", "--n", "10",
                  "--clusters", "2", "--seed", "0", "--out", str(out))
    assert res.returncode == 1
    assert "error:" in res.stderr


@pytest.mark.parametrize("flag,value", [("--box", "1e308"), ("--box", "inf"),
                                        ("--box", "nan"), ("--sigma", "inf"),
                                        ("--sigma", "nan")])
def test_generate_non_finite_spec_exits_2(tmp_path, flag, value):
    out = tmp_path / "g.csv"
    res = run_cli("generate", "--n", "100", flag, value, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert len(error_lines(res.stderr)) == 1, res.stderr
    assert not out.exists()


# ---------------------------------------------------------------------------
# cluster


def test_cluster_stdout_payload_schema(workspace):
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--method", "adaptive", "--bandwidth", "0.3")
    assert res.returncode == 0, res.stderr
    payload = json.loads(res.stdout)
    assert set(payload) == {
        "method", "n_points", "modes", "support", "labels", "seeds_used",
        "seeds_discarded", "iterations_run", "distance_evals",
        "wall_time_s", "config",
    }
    assert payload["method"] == "adaptive"
    assert payload["n_points"] == 1500
    assert len(payload["labels"]) == 1500
    assert len(payload["support"]) == len(payload["modes"])
    config = payload["config"]
    assert set(config) == {
        "backend", "bandwidth_h", "conv_tol", "max_iter", "early_stop_gamma",
        "n_initial", "rng_seed", "min_mode_support", "chunk_size",
        "seed_low_L", "seed_high_H",
    }
    assert config["backend"] in ("numba", "numpy")
    assert config["bandwidth_h"] == 0.3
    # the library constants, reported beside the settings
    assert config["chunk_size"] == kernels.CHUNK_POINTS == 4096
    assert (config["seed_low_L"], config["seed_high_H"]) == (8, 32)
    # thread count deliberately absent: it cannot change any reported
    # number, so it must not perturb output bytes either
    assert "threads" not in payload["config"]


def test_cluster_rejects_zero_bandwidth(workspace):
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--bandwidth", "0")
    assert res.returncode == 2
    assert "error:" in res.stderr


@pytest.mark.parametrize("method", ["baseline", "faster", "adaptive"])
@pytest.mark.parametrize("flags", [("--bandwidth", "1e200"),
                                   ("--bandwidth", "1", "--tol", "1e300")])
def test_cluster_overflowing_threshold_exits_2(workspace, tmp_path, method,
                                               flags):
    # the squared convergence threshold would overflow
    out = tmp_path / "r.json"
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--method", method, *flags, "--out", str(out))
    assert res.returncode == 2, res.stderr
    assert len(error_lines(res.stderr)) == 1, res.stderr
    assert not out.exists()


@pytest.fixture
def huge_csv(tmp_path):
    # squared distances between these points overflow the float range
    data = tmp_path / "huge.csv"
    pts = np.random.default_rng(3).uniform(-1e307, 1e307, size=(500, 2))
    np.savetxt(data, pts, fmt="%.17g", delimiter=",")
    return data


def test_cluster_overflowing_estimate_is_one_error_line(huge_csv, tmp_path,
                                                        capsys):
    # numpy's overflow warnings used to come first, then the inf estimate
    # was rejected as a bandwidth; a warning now fails the run as internal
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["cluster", "--input", str(huge_csv),
                         "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 2, err
    assert err.splitlines() == error_lines(err) == [
        "error: bandwidth estimate overflows: squared distances between "
        "sampled points exceed the float range; pass --bandwidth"]
    assert not out.exists()


@pytest.mark.parametrize("method", ["baseline", "faster", "adaptive"])
def test_cluster_overflowing_distances_run_quietly(huge_csv, tmp_path,
                                                   capsys, method):
    # an overflowed window, merge or label distance is simply far: every
    # walker stays on its own point, a mode of its own, and nothing is
    # printed; the seeded run keeps its 128 seeds, the others walk all 500
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["cluster", "--input", str(huge_csv), "--method",
                         method, "--bandwidth", "1e150", "--no-timing",
                         "--out", str(out)])
    assert (code, capsys.readouterr().err) == (0, "")
    result = json.loads(out.read_text())
    assert len(result["modes"]) == (128 if method == "faster" else 500)


@pytest.mark.parametrize("method", ["baseline", "faster", "adaptive"])
def test_cluster_overflowing_window_sum_exits_3(tmp_path, capsys, method):
    # 100 copies of (1e307, 0) share one window whose sum overflows: the
    # mean is wrong, so the run ends with one error line and no result,
    # never with an inf mode written as Infinity
    data = tmp_path / "crowd.csv"
    pts = np.array([[1e307, 0.0]] * 100 + [[0.0, 1.0]] * 3)
    np.savetxt(data, pts, fmt="%.17g", delimiter=",")
    out = tmp_path / "r.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code = cli.main(["cluster", "--input", str(data), "--method", method,
                         "--bandwidth", "1", "--no-timing", "--out",
                         str(out)])
    err = capsys.readouterr().err
    assert code == 3, err
    assert err.splitlines() == error_lines(err) == [
        "error: overflow encountered in a window sum: a window mean of "
        "finite points exceeds the float range"]
    assert not out.exists()


def test_cluster_empty_input_is_one_error_line(tmp_path):
    # numpy's two-line warning about the empty file used to come first;
    # now stderr is what a missing file gives: whatever the accelerator
    # import prints, then one error line
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    res = run_cli("cluster", "--input", str(empty), "--bandwidth", "0.3")
    missing = run_cli("cluster", "--input", str(tmp_path / "nope.csv"),
                      "--bandwidth", "0.3")
    assert res.returncode == missing.returncode == 2
    lines = res.stderr.splitlines()
    assert lines[:-1] == missing.stderr.splitlines()[:-1], res.stderr
    assert error_lines(res.stderr) == lines[-1:]


def test_cluster_missing_input_exits_2(tmp_path):
    res = run_cli("cluster", "--input", str(tmp_path / "nope.csv"),
                  "--bandwidth", "0.3")
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_cluster_sample_cap_over_limit_exits_2(workspace):
    # the bandwidth estimate is quadratic in its sample: a cap over the
    # limit is refused at once instead of running for minutes
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--sample-cap", "200000")
    assert res.returncode == 2
    assert res.stderr.strip().splitlines()[-1] == (
        "error: sample_cap must be in [2, 20000], got 200000")
    assert "Traceback" not in res.stderr


def test_out_of_memory_exits_3(tmp_path, monkeypatch, capsys):
    # stands in for `generate --n 1000000000000`, without allocating
    for raised, message in ((MemoryError("Unable to allocate 14.6 TiB"),
                             "Unable to allocate 14.6 TiB"),
                            (MemoryError(), "out of memory")):
        def generate(spec):
            raise raised

        monkeypatch.setattr(cli, "generate", generate)
        out = tmp_path / "x.csv"
        assert cli.main(["generate", "--n", "1000000000000",
                         "--out", str(out)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()


def test_internal_error_exits_3_with_one_line(workspace, monkeypatch, capsys):
    def run_adaptive(points, cfg):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(cli, "run_adaptive", run_adaptive)
    argv = ["cluster", "--input", str(workspace["data"]), "--bandwidth", "0.3"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert error_lines(err) == [
        "error: internal error: TypeError: unsupported operand"]

    def interrupted(points, cfg):
        raise KeyboardInterrupt

    monkeypatch.setattr(cli, "run_adaptive", interrupted)
    with pytest.raises(KeyboardInterrupt):
        cli.main(argv)


def test_threads_below_one_exits_2(workspace, capsys):
    assert cli.main(["cluster", "--input", str(workspace["data"]),
                     "--threads", "0"]) == 2
    assert capsys.readouterr().err == (
        "error: thread count must be >= 1, got 0\n")


def test_cluster_no_converged_seeds_exits_3(workspace):
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--method", "faster", "--seeds", "1", "--max-iter", "1",
                  "--tol", "1e-12", "--bandwidth", "0.3")
    assert res.returncode == 3
    assert "no seeds converged" in res.stderr


def test_cluster_output_is_byte_stable(workspace):
    first = workspace["fast"][0].read_bytes()
    for path in workspace["fast"][1:]:
        assert path.read_bytes() == first


def test_cluster_backends_agree_byte_for_byte(workspace):
    def cluster(backend):
        out = workspace["root"] / f"fast_{backend}.json"
        res = run_cli("cluster", "--input", str(workspace["data"]),
                      "--method", "faster", "--seeds", "all", "--gamma", "1.0",
                      "--bandwidth", "0.3", "--no-timing", "--out", str(out),
                      env_extra={"FASTSHIFT_BACKEND": backend})
        assert res.returncode == 0, res.stderr
        return json.loads(out.read_text()), res.stderr

    numpy_payload, _ = cluster("numpy")
    numba_payload, numba_stderr = cluster("numba")
    default_payload = json.loads(workspace["fast"][0].read_text())
    # documented contract: numba when it imports, else a warned fallback
    expected = "numba" if kernels.HAS_NUMBA else "numpy"
    if not kernels.HAS_NUMBA:
        assert "numba is not installed; falling back to numpy" in numba_stderr
    assert numpy_payload["config"]["backend"] == "numpy"
    assert numba_payload["config"]["backend"] == expected
    assert default_payload["config"]["backend"] == expected
    for key in ("modes", "support", "labels", "distance_evals",
                "iterations_run", "seeds_used", "seeds_discarded"):
        assert numpy_payload[key] == numba_payload[key], key
        assert numpy_payload[key] == default_payload[key], key


def test_main_calls_do_not_share_flags(workspace, tmp_path):
    # cli.main parses with one parser per process: the flags of one call
    # leave no trace on the next, which takes every default again
    out = tmp_path / "result.json"
    argv = ["cluster", "--input", str(workspace["data"]), "--out", str(out)]
    assert cli.main([*argv, "--method", "baseline", "--bandwidth", "0.3",
                     "--gamma", "1.0", "--seed", "5", "--no-timing"]) == 0
    first = json.loads(out.read_text())
    assert cli.main(argv) == 0
    second = json.loads(out.read_text())
    assert first["wall_time_s"] == 0.0 and second["wall_time_s"] > 0.0
    assert (first["method"], second["method"]) == ("baseline", "adaptive")
    assert first["config"]["bandwidth_h"] == 0.3
    assert second["config"]["bandwidth_h"] != 0.3
    defaults = cli.ShiftConfig(bandwidth_h=1.0)
    for key, value in (("early_stop_gamma", 1.0), ("rng_seed", 5)):
        assert first["config"][key] == value != getattr(defaults, key)
        assert second["config"][key] == getattr(defaults, key)


def test_cluster_thread_flag_does_not_change_bytes(workspace):
    out = workspace["root"] / "fast_t1.json"
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--method", "faster", "--seeds", "all", "--gamma", "1.0",
                  "--bandwidth", "0.3", "--no-timing", "--threads", "1",
                  "--out", str(out))
    assert res.returncode == 0, res.stderr
    assert out.read_bytes() == workspace["fast"][0].read_bytes()


# ---------------------------------------------------------------------------
# compare


def test_compare_exhaustive_faster_matches_baseline(workspace):
    res = run_cli("compare", "--a", str(workspace["base"]),
                  "--b", str(workspace["fast"][0]))
    assert res.returncode == 0, res.stderr
    line = res.stdout.strip()
    assert line.startswith("rand_index=")
    assert float(line.split("=")[1]) >= 0.99


def test_compare_missing_file_exits_2(tmp_path, workspace):
    res = run_cli("compare", "--a", str(workspace["base"]),
                  "--b", str(tmp_path / "absent.json"))
    assert res.returncode == 2


@pytest.mark.parametrize(
    "text", ["[1, 2]\n", '{"labels": 5}\n', '{"labels": [null, 1, 2]}\n'],
    ids=["top_level_list", "labels_not_list", "labels_not_integers"])
def test_compare_malformed_result_exits_2(tmp_path, workspace, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    res = run_cli("compare", "--a", str(workspace["base"]), "--b", str(bad))
    assert res.returncode == 2
    assert res.stderr.startswith("error:")
    assert "Traceback" not in res.stderr


def test_compare_boolean_labels_exit_2(tmp_path):
    # JSON true and false load as Python bools, which are ints to isinstance
    ints, bools = tmp_path / "ints.json", tmp_path / "bools.json"
    ints.write_text('{"labels": [1, 0, 1]}\n')
    bools.write_text('{"labels": [true, false, true]}\n')
    res = run_cli("compare", "--a", str(ints), "--b", str(bools))
    assert res.returncode == 2
    assert error_lines(res.stderr) == [
        f"error: result file {bools} has no 'labels' list of integers"]


# ---------------------------------------------------------------------------
# bench


def test_bench_writes_expected_table(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli("bench", "--sizes", "300,600",
                  "--methods", "baseline,faster", "--repeats", "1",
                  "--clusters", "3", "--seed", "0", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == BENCH_CSV_HEADER == (
        "method,n_points,wall_time_s,distance_evals,peak_batch_bytes,"
        "modes_found,rand_index_vs_baseline,status")
    assert len(lines) == 5
    rows = [line.split(",") for line in lines[1:]]
    assert [r[0] for r in rows] == ["baseline", "faster"] * 2
    assert [r[1] for r in rows] == ["300", "300", "600", "600"]
    for r in rows:
        assert r[-1] == "ok"
        assert int(r[3]) > 0          # distance_evals
        assert int(r[5]) > 0          # modes_found
    # baseline rows score agreement 1 against themselves
    assert rows[0][6] == "1"


def test_bench_adaptive_alias(tmp_path):
    out = tmp_path / "bench.csv"
    res = run_cli("bench", "--sizes", "300", "--methods", "adaptive",
                  "--repeats", "1", "--clusters", "3", "--out", str(out))
    assert res.returncode == 0, res.stderr
    lines = out.read_text().splitlines()
    assert lines[1].startswith("faster_adaptive,300,")


def test_bench_empty_sizes_exits_2(tmp_path):
    res = run_cli("bench", "--sizes", ",", "--out",
                  str(tmp_path / "b.csv"))
    assert res.returncode == 2
    assert "error:" in res.stderr


def test_bench_unknown_method_exits_2(tmp_path):
    res = run_cli("bench", "--sizes", "100", "--methods", "warp",
                  "--out", str(tmp_path / "b.csv"))
    assert res.returncode == 2
    assert "error:" in res.stderr


# ---------------------------------------------------------------------------
# error exits: one error line each, no traceback and no output file


@pytest.mark.parametrize("argv,code,message", [
    (("cluster", "--input", "{data}", "--bandwidth", "0.3", "--seeds", "x"),
     2, "--seeds must be an integer or 'all', got 'x'"),
    (("cluster", "--input", "{data}", "--bandwidth", "0.3", "--seeds", "0"),
     2, "n_initial must be >= 1, got 0"),
    (("bench", "--sizes", "10,x"), 2, "bad --sizes list '10,x'"),
    (("bench", "--sizes", "10", "--methods", " , "),
     2, "--methods must name at least one method"),
    (("bench", "--sizes", "10", "--sigma", "0"),
     2, "bandwidth_h must be a positive finite real, got 0.0"),
    (("bench", "--sizes", "10", "--repeats", "0"),
     2, "repeats must be >= 1, got 0"),
    (("compare", "--a", "{tmp}/two.json", "--b", "{tmp}/one.json"),
     2, "label lengths differ: 2 vs 1"),
    (("generate", "--n", "100", "--clusters", "50", "--sigma", "1",
      "--box", "1"), 3, "cannot place separated centers"),
    # two distinct points, yet each one's quantile neighbour is a copy
    (("cluster", "--input", "{tmp}/pairs.csv"), 2,
     "estimated bandwidth is 0: each sampled point's quantile neighbour "
     "coincides with it; pass --bandwidth or a larger --quantile"),
], ids=["cluster-seeds-word", "cluster-seeds-zero", "bench-sizes",
        "bench-methods", "bench-sigma-zero", "bench-repeats-zero",
        "compare-lengths", "generate-crowded", "cluster-zero-estimate"])
def test_error_exit_is_one_line(tmp_path, workspace, argv, code, message):
    inputs = {"two.json": '{"labels": [0, 1]}\n',
              "one.json": '{"labels": [0]}\n',
              "pairs.csv": "0,0\n" * 50 + "1,1\n" * 50}
    for name, text in inputs.items():
        (tmp_path / name).write_text(text)
    argv = [a.format(tmp=tmp_path, data=workspace["data"]) for a in argv]
    if argv[0] != "compare":
        argv += ["--out", str(tmp_path / "out.csv")]
    res = run_cli(*argv)
    assert res.returncode == code, res.stderr
    assert error_lines(res.stderr) == [f"error: {message}"]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(inputs)


@pytest.mark.parametrize("command", [
    ("cluster", "--input", "{data}", "--bandwidth", "0.3"),
    ("bench", "--sizes", "10", "--out", "{tmp}/b.csv"),
], ids=["cluster", "bench"])
def test_chunk_size_is_not_a_flag(tmp_path, workspace, command):
    # the window step's chunk size is ShiftConfig's: it changes no byte
    argv = [a.format(tmp=tmp_path, data=workspace["data"]) for a in command]
    res = run_cli(*argv, "--chunk-size", "8")
    assert res.returncode == 2
    assert "unrecognized arguments: --chunk-size 8" in res.stderr
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# degenerate input and d != 2, in-process on CSVs written here


def _write_csv(path, x):
    np.savetxt(path, x, fmt="%.17g", delimiter=",")
    return str(path)


def _blobs(d, offset=0.0):
    """Three blobs of 40 points, sigma 0.05, their centers 5 apart."""
    gen = np.random.default_rng(d)
    centers = offset + 5.0 * np.arange(3.0)[:, None] * np.ones(d)
    return np.concatenate([c + gen.normal(0.0, 0.05, size=(40, d))
                           for c in centers])


def _cluster(tmp_path, data, *extra):
    """Exit code of ``cluster`` on ``data`` and its result JSON, or None."""
    out = tmp_path / "result.json"
    out.unlink(missing_ok=True)
    code = cli.main(["cluster", "--input", data, "--no-timing",
                     "--out", str(out), *extra])
    return code, json.loads(out.read_text()) if out.exists() else None


@pytest.mark.parametrize("d", [1, 3, 8])
def test_cluster_any_dimension_finds_each_blob(tmp_path, d):
    data = _write_csv(tmp_path / "blobs.csv", _blobs(d))
    for method in ("baseline", "faster", "adaptive"):
        runs = [_cluster(tmp_path, data, "--method", method,
                         "--bandwidth", "0.5") for _ in range(2)]
        assert runs[0][0] == 0, method
        assert runs[0] == runs[1], method
        modes = np.array(runs[0][1]["modes"])
        assert modes.shape == (3, d), method
        assert np.allclose(np.sort(modes[:, 0]), [0.0, 5.0, 10.0],
                           atol=0.05), method


def test_degenerate_input_exit_codes(tmp_path, capsys):
    same = _write_csv(tmp_path / "same.csv", np.full((50, 2), 1.5))
    # the bandwidth estimate needs two distinct points
    assert _cluster(tmp_path, same) == (2, None)
    assert len(error_lines(capsys.readouterr().err)) == 1
    code, result = _cluster(tmp_path, same, "--bandwidth", "1")
    assert code == 0 and result["modes"] == [[1.5, 1.5]]
    one = _write_csv(tmp_path / "one.csv", [[0.25, -1.0]])
    assert _cluster(tmp_path, one) == (2, None)
    assert len(error_lines(capsys.readouterr().err)) == 1
    # h * h underflows to 0, so no exact grid exists and every walker
    # tests every point
    spread = _write_csv(tmp_path / "spread.csv", _blobs(2)[::4])
    assert _cluster(tmp_path, spread, "--bandwidth", "1e-320")[0] == 0
    # coordinates beyond 2**28 * h also leave the grid aside
    far = _write_csv(tmp_path / "far.csv", _blobs(2, offset=1e9))
    assert 1e9 > 2.0 ** 28 * 0.5
    code, result = _cluster(tmp_path, far, "--bandwidth", "0.5")
    assert code == 0 and len(result["modes"]) == 3


# hostile coordinates: signed zeros, subnormals, values whose squares
# underflow or overflow, near the float range's end, and small integers
_HOSTILE = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                            1e-300, -1e-300, 1e154, -1e154, 1e307, -1e307,
                            -2.0, -1.0, 1.0, 2.0, 3.0])


@settings(max_examples=400)
@given(data=st.data())
def test_cluster_hostile_csv_ends_cleanly_and_repeats(data):
    # every run ends with a documented exit code and no warning: an empty
    # stderr on success, else exactly one error line, never an internal
    # error; the same input gives the same bytes twice
    d = data.draw(st.integers(1, 4), label="d")
    k = data.draw(st.integers(1, 6), label="distinct")
    pool = np.array(data.draw(st.lists(_HOSTILE, min_size=k * d,
                                       max_size=k * d), label="pool"),
                    dtype=np.float64).reshape(k, d)
    picks = data.draw(st.lists(st.integers(0, k - 1), min_size=1,
                               max_size=40), label="rows")
    method = data.draw(st.sampled_from(["baseline", "faster", "adaptive"]),
                       label="method")
    bandwidth = data.draw(st.sampled_from([None, "1e-300", "0.5", "1",
                                           "1e154", "1e300"]),
                          label="bandwidth")
    extra = [] if bandwidth is None else ["--bandwidth", bandwidth]
    with tempfile.TemporaryDirectory() as tmp:
        csv = _write_csv(os.path.join(tmp, "in.csv"), pool[picks])
        out = os.path.join(tmp, "r.json")
        runs = []
        for _ in range(2):
            if os.path.exists(out):
                os.unlink(out)
            err = io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    contextlib.redirect_stderr(err):
                warnings.simplefilter("always")
                code = cli.main(["cluster", "--input", csv, "--method",
                                 method, *extra, "--no-timing", "--out",
                                 out])
            assert not caught, [str(w.message) for w in caught]
            result = open(out, "rb").read() if os.path.exists(out) else None
            runs.append((code, err.getvalue(), result))
    code, err, result = runs[0]
    assert code in (0, 2, 3), err
    if code == 0:
        assert err == "" and result is not None
    else:
        assert len(err.splitlines()) == len(error_lines(err)) == 1, err
        assert not err.startswith("error: internal error"), err
        assert result is None
    assert runs[1] == runs[0]


def test_unknown_backend_warns_and_runs_the_default(workspace):
    # the environment picks from the backends this machine can run; any
    # other name warns and keeps the default, for every command
    env = {"FASTSHIFT_BACKEND": "gpu"}
    fallback = (f"FASTSHIFT_BACKEND=gpu but gpu is not installed; "
                f"falling back to {kernels.BACKENDS[0]}")
    res = run_cli("--help", env_extra=env)
    assert res.returncode == 0
    out = workspace["root"] / "fast_gpu.json"
    ran = run_cli("cluster", "--input", str(workspace["data"]),
                  "--method", "faster", "--seeds", "all", "--gamma", "1.0",
                  "--bandwidth", "0.3", "--no-timing", "--out", str(out),
                  env_extra=env)
    assert ran.returncode == 0
    for stderr in (res.stderr, ran.stderr):
        assert fallback in stderr and "Traceback" not in stderr
    assert out.read_bytes() == workspace["fast"][0].read_bytes()


# ---------------------------------------------------------------------------
# output files


@pytest.mark.parametrize("command", ["cluster", "bench", "generate"])
def test_failed_write_keeps_previous_output(tmp_path, workspace, command):
    out = tmp_path / "out.txt"
    earlier = [out]
    if command == "cluster":
        args = ["cluster", "--input", str(workspace["data"]),
                "--bandwidth", "0.3", "--no-timing"]
    elif command == "bench":
        args = ["bench", "--sizes", "300", "--methods", "faster",
                "--repeats", "1"]
    else:
        args = ["generate", "--n", "2000"]
        earlier.append(out.with_suffix(".truth.json"))
    for path in earlier:
        path.write_text("previous\n")

    def small_files():
        # writes past 64 bytes fail with EFBIG, as they would on a full disk
        resource.setrlimit(resource.RLIMIT_FSIZE, (64, 64))

    res = subprocess.run(
        [sys.executable, "-m", "fastshift.cli", *args, "--out", str(out)],
        capture_output=True, text=True,
        env=cli_env(PYTHONDONTWRITEBYTECODE="1"), preexec_fn=small_files)
    assert res.returncode == 1, res.stderr
    # a child that cannot import fastshift also exits 1 and writes nothing
    assert len(error_lines(res.stderr)) == 1, res.stderr
    for path in earlier:
        assert path.read_text() == "previous\n"
    assert (sorted(p.name for p in tmp_path.iterdir())
            == sorted(p.name for p in earlier))


CHUNK = cli._PIECE_POINTS


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
def test_streamed_result_is_the_json_dumps_bytes(tmp_path, capsys, n):
    labels = np.random.default_rng(n).integers(0, 40, n)
    labels[-1] = np.iinfo(np.int64).max
    payload = {"method": "adaptive", "n_points": n, "modes": [[0.1, -2.5]],
               "support": [n], "seeds_used": 128, "seeds_discarded": 0,
               "iterations_run": 7, "distance_evals": 128 * n,
               "wall_time_s": 0.0,
               "config": {"backend": "numpy", "bandwidth_h": 0.3}}
    want = json.dumps({**payload, "labels": labels.tolist()}, sort_keys=True,
                      separators=(",", ":")) + "\n"
    out = tmp_path / "result.json"
    cli._write_text(str(out), cli._result_pieces(payload, labels))
    assert out.read_text() == want
    cli._write_text(None, cli._result_pieces(payload, labels))
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
def test_truth_sidecar_is_the_json_dumps_bytes(tmp_path, n):
    out = tmp_path / "g.csv"
    k = min(n, 3)
    assert cli.main(["generate", "--n", str(n), "--clusters", str(k),
                     "--seed", "5", "--out", str(out)]) == 0
    spec = GenSpec(kind="blobs", n_points=n, n_clusters=k, rng_seed=5)
    _, labels, centers = generate(spec)
    want = json.dumps({**dataclasses.asdict(spec), "labels": labels.tolist(),
                       "centers": centers.tolist()}, sort_keys=True,
                      separators=(",", ":")) + "\n"
    assert out.with_suffix(".truth.json").read_text() == want


# -0.0, the smallest subnormal, the largest finite and the smallest normal
_EDGE_FLOATS = (-0.0, 5e-324, 1e308, -1e308, 2.2250738585072014e-308,
                -2.2250738585072014e-308)


def _savetxt_text(x):
    buf = io.StringIO()
    np.savetxt(buf, x, fmt="%.17g", delimiter=",")
    return buf.getvalue()


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 1])
@pytest.mark.parametrize("d", [1, 2, 3, 8])
def test_csv_pieces_are_the_savetxt_text(n, d):
    gen = np.random.default_rng(n * 10 + d)
    # exponents across the whole double range, so every %.17g form shows
    x = gen.standard_normal((n, d)) * 10.0 ** gen.integers(-320, 307, (n, d))
    flat = x.ravel()
    k = min(flat.size, len(_EDGE_FLOATS))
    flat[:k] = _EDGE_FLOATS[:k]
    flat[-k:] = _EDGE_FLOATS[-k:]
    assert "".join(cli._csv_pieces(x)) == _savetxt_text(x)


@pytest.mark.parametrize("n", [1, CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("kind", KINDS)
def test_generate_csv_is_the_savetxt_text(tmp_path, kind, n):
    out = tmp_path / "g.csv"
    k = min(n, 3)
    assert cli.main(["generate", "--kind", kind, "--n", str(n), "--clusters",
                     str(k), "--seed", "5", "--out", str(out)]) == 0
    spec = GenSpec(kind=kind, n_points=n, n_clusters=k, rng_seed=5)
    assert out.read_text() == _savetxt_text(generate(spec)[0].data)


def test_generate_failing_mid_stream_keeps_previous_output(tmp_path):
    out = tmp_path / "g.csv"
    earlier = [out, out.with_suffix(".truth.json")]
    for path in earlier:
        path.write_text("previous\n")

    def small_files():
        # over one CSV piece of about 160 KB reaches the disk before a write
        # fails with EFBIG
        resource.setrlimit(resource.RLIMIT_FSIZE, (300_000, 300_000))

    res = subprocess.run(
        [sys.executable, "-m", "fastshift.cli", "generate", "--n", "20000",
         "--out", str(out)],
        capture_output=True, text=True,
        env=cli_env(PYTHONDONTWRITEBYTECODE="1"), preexec_fn=small_files)
    assert res.returncode == 1, res.stderr
    assert len(error_lines(res.stderr)) == 1, res.stderr
    for path in earlier:
        assert path.read_text() == "previous\n"
    assert sorted(tmp_path.iterdir()) == sorted(earlier)


def test_failing_stream_keeps_previous_output(tmp_path):
    out = tmp_path / "result.json"
    out.write_text("previous\n")

    def pieces():
        # more than a write buffer, so part of it reaches the disk first
        yield "x" * 100_000
        partial = [p for p in tmp_path.iterdir() if p != out]
        assert len(partial) == 1 and partial[0].stat().st_size > 0
        raise RuntimeError("labels unavailable")

    with pytest.raises(RuntimeError):
        cli._write_text(str(out), pieces())
    assert out.read_text() == "previous\n"
    assert [p.name for p in tmp_path.iterdir()] == ["result.json"]


def test_cluster_200k_peak_stays_near_the_points(tmp_path):
    # the run holds the points, the cell index's int32 point order, then
    # the int32 labels, and fixed-size scratch, never an n-sized temporary
    # beside them, a group's candidate points copied whole, nor the points
    # and the whole result text together (1.47 times the points measured,
    # 1.79 with an argsort cell order and whole candidate copies); the
    # warm-up call makes the lazy one-time allocations of a first call
    spec = GenSpec(kind="blobs", n_points=200_000, n_clusters=10,
                   noise_sigma=0.1, rng_seed=42)
    points, _, _ = generate(spec)
    data = tmp_path / "blobs.csv"
    np.savetxt(data, points.data, fmt="%.17g", delimiter=",")
    small = tmp_path / "small.csv"
    np.savetxt(small, points.data[:2000], fmt="%.17g", delimiter=",")
    argv = ["cluster", "--method", "adaptive", "--bandwidth", "0.3",
            "--no-timing", "--out", str(tmp_path / "result.json")]
    assert cli.main([*argv, "--input", str(small)]) == 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--input", str(data)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * points.data.nbytes, peak / points.data.nbytes


def test_cluster_5k_baseline_peak_is_one_scratch_budget(tmp_path):
    # every point walks, so the window step's row blocks are full: the peak
    # is one BLOCK_FLOATS budget of block scratch (0.52 MB) on top of the
    # points, the walkers and the parsed input, 1.34 MB measured, plus 5%;
    # two budgets would read 1.86 MB. The warm-up call makes the lazy
    # one-time allocations of a first call
    spec = GenSpec(kind="blobs", n_points=5000, n_clusters=10,
                   noise_sigma=0.1, rng_seed=42)
    points, _, _ = generate(spec)
    data = tmp_path / "blobs.csv"
    np.savetxt(data, points.data, fmt="%.17g", delimiter=",")
    small = tmp_path / "small.csv"
    np.savetxt(small, points.data[:2000], fmt="%.17g", delimiter=",")
    argv = ["cluster", "--method", "baseline", "--bandwidth", "0.3",
            "--no-timing", "--out", str(tmp_path / "result.json")]
    assert cli.main([*argv, "--input", str(small)]) == 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--input", str(data)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.40e6, peak


def test_generate_200k_peak_stays_near_the_points(tmp_path):
    # the command holds the points and their labels, but no per-point
    # gather of the blobs' sigmas or centers and never the CSV text; the
    # warm-up call makes the lazy one-time allocations of a first call
    spec = GenSpec(kind="blobs", n_points=200_000, rng_seed=42)
    nbytes = generate(spec)[0].data.nbytes
    argv = ["generate", "--seed", "42", "--out", str(tmp_path / "g.csv")]
    assert cli.main([*argv, "--n", "2000"]) == 0
    tracemalloc.start()
    try:
        assert cli.main([*argv, "--n", "200000"]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.0 * nbytes, peak / nbytes


def test_out_through_symlink_updates_the_linked_file(tmp_path, workspace):
    real = tmp_path / "real.json"
    real.write_text("previous\n")
    real.chmod(0o640)
    link = tmp_path / "link.json"
    link.symlink_to(real)
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--bandwidth", "0.3", "--method", "baseline",
                  "--no-timing", "--out", str(link))
    assert res.returncode == 0, res.stderr
    assert link.is_symlink()
    assert real.read_bytes() == workspace["base"].read_bytes()
    assert real.stat().st_mode & 0o777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json",
                                                          "real.json"]


def test_out_to_devnull_writes_through(workspace):
    # a rename over the device would swap it for a regular file
    res = run_cli("cluster", "--input", str(workspace["data"]),
                  "--bandwidth", "0.3", "--no-timing", "--out", os.devnull)
    assert res.returncode == 0, res.stderr
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


# ---------------------------------------------------------------------------
# parser plumbing


def test_help_exits_0():
    res = run_cli("--help")
    assert res.returncode == 0
    assert "generate" in res.stdout and "bench" in res.stdout


def test_no_command_exits_2():
    res = run_cli()
    assert res.returncode == 2


# ---------------------------------------------------------------------------
# one seed rule, and pinned result bytes


@pytest.mark.parametrize("seed", [-1, 2 ** 64])
@pytest.mark.parametrize("command", [
    ("generate", "--n", "100", "--out", "{tmp}/g.csv"),
    ("cluster", "--input", "{data}"),
    ("cluster", "--input", "{data}", "--bandwidth", "0.3"),
    ("bench", "--sizes", "100", "--out", "{tmp}/b.csv"),
], ids=["generate", "cluster-estimated", "cluster", "bench"])
def test_every_command_has_one_seed_rule(tmp_path, workspace, capsys,
                                         command, seed):
    argv = [a.format(tmp=tmp_path, data=workspace["data"]) for a in command]
    assert cli.main([*argv, "--seed", str(seed)]) == 2
    assert error_lines(capsys.readouterr().err) == [
        f"error: rng_seed must fit in 64 unsigned bits, got {seed}"]
    assert list(tmp_path.iterdir()) == []


@pytest.fixture(scope="module")
def pinned_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("pinned") / "blobs.csv"
    assert cli.main(["generate", "--n", "600", "--clusters", "4",
                     "--seed", "11", "--out", str(data)]) == 0
    return data


# sha256 of the ``cluster --no-timing`` bytes with the backend's name left
# out: a changed bit in any distance, window mean, mode or label shows
@pytest.mark.parametrize("method,extra,digest", [
    ("baseline", ("--bandwidth", "0.3"),
     "615e64599d095c0375361f43866d6fa9919e757abd7946a35226c98101f202db"),
    ("faster", ("--bandwidth", "0.3"),
     "eaa12f95e3ac4ecea84fc1c6f4fb98ac3863a7a66ff70d8df549eb078066939a"),
    ("adaptive", ("--bandwidth", "0.3"),
     "86742cf903b461fdbb367dad876faa8ade3705d4658ced1aca673667182af878"),
    ("adaptive", (),
     "f1e8c85f61302d38cd2f0271affa014ab8a336111d1b61f4915a2325f423166b"),
], ids=["baseline", "faster", "adaptive", "adaptive-estimated"])
def test_cluster_bytes_are_pinned(pinned_data, tmp_path, method, extra,
                                  digest):
    out = tmp_path / "result.json"
    assert cli.main(["cluster", "--input", str(pinned_data), "--method",
                     method, "--no-timing", "--out", str(out), *extra]) == 0
    raw = re.sub(rb'"backend":"\w+",', b"", out.read_bytes())
    assert hashlib.sha256(raw).hexdigest() == digest
