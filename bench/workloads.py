"""Workload definitions shared by the benchmark's parent and child processes.

Each workload is a short list of inputs derived from the run seed; a run
repeats the list in passes.  Inputs come from ``random.Random`` seeded with
a string, which hashes the same way in every process regardless of
PYTHONHASHSEED, so the parent (which checks outputs) and the child (which
runs the library) agree on them without passing them around.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("mc_sample", "angle_grid", "config_batch")

# The modules of src/bellcheck that do work; errors and __init__ do none.
LAYERS = ("cli", "realworld", "quasiprob", "chsh_operator", "linalg", "counterfactual", "born", "polarization")

# Operations are kept to tens of milliseconds: the shared host slows or
# pauses this process in bursts, and only short operations have repeats
# that fall between bursts (see run.py on why the fastest repeat counts).

# mc_sample: `bellcheck simulate` at the optimal CHSH angles, where e_rw
# converges on -2 sqrt(2), for MC_SEEDS seeds.  Repeats of a seed must be
# byte-identical.
MC_ANGLES_DEG = ("0", "45", "22.5", "-22.5")
MC_N = 200_000
MC_SEEDS = 8

# angle_grid: a `quasiprob --scan` over the full grid, and `chsh --sweep`s
# of beta2 at SWEEPS seeded angle sets, one operation each.
SCAN_STEP_DEG = "20"
SWEEP_STEP_DEG = "10"
SWEEPS = 8

# config_batch: seeded configs, and pairs drawn per Monte Carlo call.
BATCH_CONFIGS = 100
BATCH_MC_N = 10_000


def mc_argv(mc_seed: int) -> list[str]:
    return ["simulate", *MC_ANGLES_DEG, "--n", str(MC_N), "--seed", str(mc_seed)]


def scan_argv() -> list[str]:
    return ["quasiprob", "--scan", SCAN_STEP_DEG]


def sweep_argv(angles_deg: tuple[str, ...]) -> list[str]:
    return ["chsh", *angles_deg, "--sweep", SWEEP_STEP_DEG]


def sweep_angles(rng: random.Random) -> tuple[str, str, str, str]:
    """Degrees (alpha1, alpha2, beta1, beta2) for one sweep.

    Three decimals, so the CLI echoes them exactly; the two settings on
    each side always differ mod 180.
    """
    while True:
        a1, a2, b1, b2 = (f"{rng.uniform(0.0, 180.0):.3f}" for _ in range(4))
        if float(a1) % 180.0 != float(a2) % 180.0 and float(b1) % 180.0 != float(b2) % 180.0:
            return a1, a2, b1, b2


def batch_configs(seed: int, count: int = BATCH_CONFIGS) -> list[tuple[tuple[float, ...], int]]:
    """(angles in radians, Monte Carlo seed) for each config of the batch."""
    rng = random.Random(f"config_batch/{seed}")
    return [(tuple(rng.uniform(0.0, math.pi) for _ in range(4)), rng.getrandbits(64)) for _ in range(count)]


def inputs(workload: str, seed: int) -> list:
    """The inputs one pass of ``workload`` runs, in order: CLI argv lists or configs."""
    if workload == "mc_sample":
        rng = random.Random(f"mc_sample/{seed}")
        return [mc_argv(rng.getrandbits(64)) for _ in range(MC_SEEDS)]
    if workload == "angle_grid":
        rng = random.Random(f"angle_grid/{seed}")
        return [scan_argv()] + [sweep_argv(sweep_angles(rng)) for _ in range(SWEEPS)]
    if workload == "config_batch":
        return batch_configs(seed)
    raise ValueError(f"unknown workload {workload!r}")
