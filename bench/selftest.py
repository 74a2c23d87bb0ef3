"""Tests of the benchmark itself.

    python3 -m pytest -q bench/selftest.py

The file name keeps these out of the library's own test collection, since
they launch the benchmark itself in subprocesses.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import child  # noqa: E402
import workloads as wl  # noqa: E402
from bellcheck import cli  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

# The per-layer metrics the benchmark promises, as layer.function.stat.
LAYER_TABLE = {
    "realworld.run_experiments": ("calls", "self_s", "alloc_peak_mb"),
    "realworld.stream_uniforms": ("self_s", "draws"),
    "realworld.tensor_joint_pmf": ("calls", "self_s"),
    "quasiprob.find_negativity": ("self_s", "witnesses"),
    "quasiprob.f_jkl": ("calls", "self_s"),
    "cli.main": ("self_s",),
    "cli.canonical_json": ("self_s", "out_bytes"),
    "cli.canonical_csv": ("self_s",),
    "chsh_operator.chsh_spectrum": ("calls", "self_s"),
    "chsh_operator.chsh_operator": ("calls", "self_s"),
    "chsh_operator.sample_outcomes": ("self_s",),
    "linalg.eig_hermitian": ("calls", "self_s"),
    "linalg.kron": ("calls", "self_s"),
    "linalg.hermiticity_defect": ("calls", "self_s"),
    "counterfactual.fine_feasibility": ("calls", "self_s", "feasible"),
    "counterfactual.quantum_pair_marginals": ("self_s",),
    "born.joint_pmf": ("calls", "self_s"),
    "born.correlation": ("calls", "self_s"),
    "polarization.basis_matrix": ("calls", "self_s"),
    "polarization.x_operator": ("calls",),
    "polarization.y_operator": ("calls",),
}


def cli_output(*argv: str) -> str:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(list(argv)) == 0
    return buf.getvalue()


def test_simulate_check_rejects_corruption():
    seed, n = 5, 100_000
    text = cli_output("simulate", *wl.MC_ANGLES_DEG, "--n", str(n), "--seed", str(seed))
    assert checks.check_simulate(text, wl.MC_ANGLES_DEG, n, seed) == []
    out = json.loads(text)
    out["e_rw"]["mean"] = -out["e_rw"]["mean"]
    assert checks.check_simulate(json.dumps(out), wl.MC_ANGLES_DEG, n, seed)
    out = json.loads(text)
    out["c3"]["mean"] += 0.05
    assert checks.check_simulate(json.dumps(out), wl.MC_ANGLES_DEG, n, seed)
    assert checks.check_simulate(text[:-20], wl.MC_ANGLES_DEG, n, seed)
    assert checks.check_simulate(text, wl.MC_ANGLES_DEG, n, seed + 1)


def test_scan_check_rejects_corruption():
    step = 30.0
    text = cli_output("quasiprob", "--scan", "30")
    expected = checks.scan_oracle(step)
    assert expected.size > 0
    assert checks.check_scan(text, step, expected) == []
    out = json.loads(text)
    dropped = dict(out, witnesses=out["witnesses"][1:])
    assert checks.check_scan(json.dumps(dropped), step, expected)
    out["witnesses"][0]["value"] *= 0.9
    assert checks.check_scan(json.dumps(out), step, expected)


def test_sweep_check_rejects_corruption():
    angles = ("10.5", "50.25", "20.125", "30")
    text = cli_output("chsh", *angles, "--sweep", "15")
    assert checks.check_sweep(text, angles, 15.0) == []
    header, first, *rest = text.splitlines()
    cells = first.split(",")
    cells[5] = repr(float(cells[5]) + 1e-3)  # t0
    assert checks.check_sweep("\n".join([header, ",".join(cells), *rest]) + "\n", angles, 15.0)
    assert checks.check_sweep("\n".join([header, *rest]) + "\n", angles, 15.0)


def test_config_check_rejects_corruption():
    records = [child.config_op(*config) for config in wl.batch_configs(11, 20)]
    assert all(checks.check_config(r) == [] for r in records)
    assert {r["feasible"] for r in records} == {True, False}
    for key, corrupt in (
        ("feasible", lambda v: not v),
        ("t0", lambda v: v + 1e-6),
        ("tensor_e", lambda v: -v),
        ("outcome_mean", lambda v: v + 0.5),
        ("q", lambda v: v + 1e-6),
    ):
        bad = dict(records[0], **{key: corrupt(records[0][key])})
        assert checks.check_config(bad), key
    assert checks.check_config({"angles": records[0]["angles"], "error": "RuntimeError()"})


def test_benchmark_json_lists_every_table_metric():
    names = [m["name"] for m in BENCHMARK["per_layer"]]
    assert len(names) == len(set(names))
    listed = {name.split(".", 1)[1] for name in names}
    for target, stats in LAYER_TABLE.items():
        for stat in stats:
            assert f"{target}.{stat}" in listed
    for workload in wl.WORKLOADS:
        assert f"{workload}.trace.overhead_s" in names
    for metric in (*BENCHMARK["end_to_end"], *BENCHMARK["per_layer"]):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", metric["name"])
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(wl.WORKLOADS)


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=175
    )


def traced_run(seed: int) -> tuple[dict, dict]:
    done = run_bench("--workload", "config_batch", "--seed", str(seed), "--seconds", "1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"config_batch-seed{seed}-trace1.json").read_text(encoding="utf-8"))
    return result, record


def test_traced_run_covers_every_layer_and_repeats_counts():
    first, record = traced_run(3)
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == {m["name"] for m in BENCHMARK["per_layer"]}
    for name, metric in first["metrics"].items():
        if name.endswith(".calls"):
            assert metric["value"] > 0, name
    called = {qualname.split(".")[0] for layers in record["layers"].values() for qualname in layers}
    assert set(wl.LAYERS) <= called

    second, _ = traced_run(3)
    for name, metric in first["metrics"].items():
        if name.endswith((".calls", ".feasible", ".draws", ".witnesses", ".out_bytes")):
            assert second["metrics"][name]["value"] == metric["value"], name


def test_fails_without_source_tree():
    (ROOT / ".bench_tmp").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_tmp") as tmp:
        shutil.copytree(BENCH_DIR, Path(tmp) / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        done = run_bench("--workload", "mc_sample", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=Path(tmp))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout

