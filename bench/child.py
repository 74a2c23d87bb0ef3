"""In-process half of the benchmark, run in a child process with the
environment that bench/run.py sets up.

    python bench/child.py timed WORKLOAD SEED SECONDS OUT_JSON
        Repeat passes over the workload's inputs, one operation at a time,
        while the next pass should end within SECONDS.
    python bench/child.py trace SEED OUT_JSON SPANS_NPZ
        Run one pass of every workload untraced, then one under the span
        tracer; write per-function summaries to OUT_JSON, spans to SPANS_NPZ.

Each operation's outputs are reduced to a sha256; the first pass also
keeps the outputs themselves, for the parent's checks.  Library functions
are looked up on the ``bellcheck`` package and modules at call time, so
the tracer's wrappers are the ones called.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import bellcheck as bc
import workloads as wl
from tracer import Tracer

# A timed run makes at least this many passes, so every input has repeats.
MIN_PASSES = 3


def cli_text(argv: list[str]) -> str:
    """stdout of ``bellcheck <argv>`` run in-process; a non-zero exit raises."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = sys.modules["bellcheck.cli"].main(argv)
    if code != 0:
        raise RuntimeError(f"bellcheck {argv[0]} exited with code {code}")
    return buf.getvalue()


def config_op(angles: tuple[float, ...], mc_seed: int) -> dict:
    """One config_batch operation: every library route on one AngleConfig."""
    cfg = bc.AngleConfig(*angles)
    fine = bc.fine_feasibility(bc.quantum_pair_marginals(cfg))
    spectrum = bc.chsh_spectrum(cfg)
    tensor_e = bc.tensor_chsh_expectation(cfg)
    per_experiment, combined = bc.run_experiments(cfg, wl.BATCH_MC_N, mc_seed)
    outcomes = bc.sample_outcomes(cfg, wl.BATCH_MC_N, mc_seed)
    f_jk = bc.f_jk(cfg.alpha1, cfg.alpha2)
    q = bc.q_value(cfg.alpha1, cfg.alpha2, cfg.beta1)
    return {
        "angles": list(angles),
        "feasible": bool(fine.feasible),
        "t0": spectrum.t0,
        "tensor_e": tensor_e,
        "mc_n": wl.BATCH_MC_N,
        "c": [e.mean for e in per_experiment],
        "e_rw": combined.mean,
        "outcome_mean": outcomes.mean,
        "f_jk": f_jk.values.reshape(-1).tolist(),
        "q": q,
    }


OPS = {
    "mc_sample": lambda argv: {"stdout": cli_text(argv)},
    "angle_grid": lambda argv: {"stdout": cli_text(argv)},
    "config_batch": lambda config: {"record": json.dumps(config_op(*config))},
}


def run_pass(workload: str, inputs: list, keep_outputs: bool) -> list[dict]:
    """One operation per input: wall and CPU seconds, output digest, and any error."""
    op = OPS[workload]
    results = []
    for item in inputs:
        c0, t0 = time.process_time(), time.perf_counter()
        # A raised exception is a failed operation; the run goes on.
        try:
            outputs, error = op(item), None
        except Exception as exc:
            outputs, error = {}, repr(exc)
        t1, c1 = time.perf_counter(), time.process_time()
        digest = hashlib.sha256(json.dumps(outputs, sort_keys=True).encode("utf-8")).hexdigest()
        result = {"wall_s": t1 - t0, "cpu_s": c1 - c0, "digest": digest, "error": error}
        if keep_outputs:
            result["outputs"] = outputs
        results.append(result)
    return results


def run_timed(workload: str, seed: int, seconds: float) -> list[list[dict]]:
    """Passes over the inputs, alternating between the CPUs this process may use.

    On the shared host one CPU can stay slowed by co-tenant load for tens of
    seconds while the other runs at full speed; alternating gives every input
    repeats on both.
    """
    inputs = wl.inputs(workload, seed)
    cpus = sorted(os.sched_getaffinity(0))
    start = time.perf_counter()
    passes, pass_s = [], []
    while len(passes) < MIN_PASSES or time.perf_counter() - start + statistics.median(pass_s) <= seconds:
        os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
        t0 = time.perf_counter()
        passes.append(run_pass(workload, inputs, keep_outputs=not passes))
        pass_s.append(time.perf_counter() - t0)
    return passes


def run_trace(seed: int, spans_path: Path) -> dict:
    tracer = Tracer("bellcheck", wl.LAYERS)
    report, spans = {}, {}
    for workload in wl.WORKLOADS:
        inputs = wl.inputs(workload, seed)
        t0 = time.perf_counter()
        untraced = run_pass(workload, inputs, keep_outputs=True)
        untraced_s = time.perf_counter() - t0
        tracer.clear()
        tracer.install()
        try:
            t0 = time.perf_counter()
            with tracer.span(f"bench.{workload}"):
                traced = run_pass(workload, inputs, keep_outputs=False)
            traced_s = time.perf_counter() - t0
        finally:
            tracer.uninstall()
        report[workload] = {
            "untraced_s": untraced_s,
            "traced_s": traced_s,
            "layers": tracer.summary(),
            "counts": tracer.counts,
            "passes": [untraced, traced],
        }
        spans.update({f"{workload}.{key}": value for key, value in tracer.spans().items()})
    np.savez_compressed(spans_path, names=np.array(tracer.names), **spans)
    return report


def main(argv: list[str]) -> int:
    importlib.import_module("bellcheck.cli")
    if argv[0] == "timed":
        workload, seed, seconds, out = argv[1], int(argv[2]), float(argv[3]), Path(argv[4])
        result = run_timed(workload, seed, seconds)
    elif argv[0] == "trace":
        seed, out = int(argv[1]), Path(argv[2])
        result = run_trace(seed, Path(argv[3]))
    else:
        print(f"unknown mode {argv[0]!r}", file=sys.stderr)
        return 2
    out.write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
