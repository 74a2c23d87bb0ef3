"""Byte-identity corpora, pinned by digest in the registry under ``tests/pins/``.

All inputs are drawn with ``random.Random``, whose stream, unlike that of
numpy's ``Generator``, does not depend on the numpy version.

The spectrum block: about 1,600 configurations follow a first block of
corners: t0 = t1, settings 1e-9 rad apart, the optimal angles and t0
near 0.  For each block of 200, pinned as ``spectrum/<i>``, the test
hashes the ``chsh_spectrum`` fields of every configuration, the
``chsh_spectra`` fields of the whole block as one stack and a seeded
``sample_outcomes`` draw at n = 100.  The other blocks are pinned as
``kernel/<block>``.

The eigensolver block hashes the eigenvalues and eigenvectors of
``eig_hermitian`` on real and complex Hermitian matrices of order 1 to
12, one lone matrix and one stack of three per case, at the scales
2**-1000, 1 and 2**1000.  The Fine block hashes the verdict,
``chsh_value``, residual and witness cells of ``fine_feasibility`` on
about 2,000 sets of pair tables built on Python floats: pushforwards of
random joints, correlation boxes, and boxes whose largest CHSH variant
is 2 +- 1e-12 or 2 +- 1e-9.  No Fine table goes through matmul.

The sampler block hashes the ``run_experiments`` means and standard
errors at n = 1, 2 and 100 on 400 seeded configurations, the spectrum
corners and equal settings among them, and at n = 65537, one draw past
a block, on four of them.  The ``correlation`` block hashes scalar and
broadcast calls, the ``quasiprob`` block ``f_jkl`` and ``f_jk`` tables,
and the ``find_negativity`` block every record of the 30-degree scan.
The CLI block hashes the stdout of 40 argv lists, among them the sweeps
at steps 180/161 and 180/175, whose ``np.arange`` grids end at 180, the
setting 0 again, a point the sweep grid drops since version 0.4.0.

The spectrum, eigensolver, Fine and sampler blocks run again in two
subprocesses, one under OpenBLAS's Sandybridge kernel and one with
numpy's widest SIMD loops turned off, and must give the same digests.

The last two tests keep every byte independent of the Python version:
builtin ``sum`` adds floats with compensation from CPython 3.12 on, so
the package makes no call to it, and samplers, Fine witnesses and a
``fine`` stdout give the same bits with builtin ``sum`` replaced by an
emulation of 3.12's.  The test inputs add their floats left to right.

A failure names each block that moved; ``pinning`` says how the
registry is versioned and recorded.
"""

import ast
import builtins
import contextlib
import hashlib
import io
import itertools
import math
import os
import pathlib
import random
import subprocess
import sys

import numpy as np
import pytest

import bellcheck
from bellcheck import (
    AngleConfig,
    chsh_spectra,
    chsh_spectrum,
    correlation,
    f_jk,
    f_jkl,
    find_negativity,
    run_experiments,
    sample_outcomes,
)
from bellcheck.born import JointPmf2x2
from bellcheck.cli import main
from bellcheck.counterfactual import PairMarginals, fine_feasibility, quantum_pair_marginals
from bellcheck.linalg import eig_hermitian
from bellcheck.realworld import BLOCK_SIZE
import pinning

BLOCK = 200
SPECTRUM_CONFIGS = 1600

CORNERS = [
    AngleConfig.from_degrees(0, 90, 22.5, -22.5),  # t0 = t1
    AngleConfig.from_degrees(10, 100, 30, 75),  # t0 = t1
    AngleConfig(0.3, 0.3 + 1e-9, 1.1, 0.2),  # settings 1e-9 rad apart
    AngleConfig(0.3, 1.0, 0.7, 0.7 + 1e-9),
    AngleConfig.from_degrees(0, 45, 22.5, -22.5),  # optimal: t0 = 2 sqrt(2)
    AngleConfig.from_degrees(0, 45, 22.5, 112.5),
    AngleConfig.from_degrees(0, 45, 0, 45),  # t0 = 0
    AngleConfig.from_degrees(0, 45, 0, 45.005),  # t0 near 0
    AngleConfig.from_degrees(0, 45, 0, 45.000000001),
]

def block_digest(configs: list, first_seed: int):
    h = hashlib.sha256()
    for seed, cfg in enumerate(configs, first_seed):
        single = chsh_spectrum(cfg)
        for value in (single.t0, single.t1, single.w_plus, single.w_minus):
            h.update(f"{type(value).__name__}:{value.hex()};".encode("ascii"))
        h.update(single.eigenvalues.tobytes())
        draw = sample_outcomes(cfg, 100, seed)
        h.update(f"{draw.mean.hex()},{draw.stderr.hex()},{draw.n};".encode("ascii"))
    stack = chsh_spectra(*(np.array([getattr(c, name) for c in configs]) for name in ("alpha1", "alpha2", "beta1", "beta2")))
    for field in (stack.t0, stack.t1, stack.w_plus, stack.w_minus, stack.eigenvalues):
        h.update(field.tobytes())
    return h


def spectrum_digests() -> dict:
    rng = random.Random(20260)
    configs = CORNERS + [AngleConfig(*(rng.uniform(-4.0, 4.0) for _ in range(4))) for _ in range(SPECTRUM_CONFIGS - len(CORNERS))]
    return {f"spectrum/{i // BLOCK}": block_digest(configs[i : i + BLOCK], i) for i in range(0, len(configs), BLOCK)}


def test_spectrum_path_bytes_match_their_pins():
    pinning.check(PINS, "spectrum")


def _hermitian(rng: random.Random, n: int, is_complex: bool) -> np.ndarray:
    """(m + m^H) / 2 for m with entries uniform in [-1, 1), real or complex; exactly Hermitian."""
    m = np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
    if is_complex:
        m = m + 1j * np.array([[rng.uniform(-1.0, 1.0) for _ in range(n)] for _ in range(n)])
    return (m + m.conj().T) / 2.0


def eig_hermitian_digest():
    rng = random.Random(2701)
    h = hashlib.sha256()
    for scale in (2.0**-1000, 1.0, 2.0**1000):
        for n in range(1, 13):
            for is_complex in (False, True):
                lone, *stack = (_hermitian(rng, n, is_complex) * scale for _ in range(4))
                for a in (lone, np.stack(stack)):
                    values, vectors = eig_hermitian(a)
                    h.update(values.tobytes())
                    h.update(vectors.tobytes())
    return h


def _sum(values) -> float:
    """The floats added left to right from 0.0, the same bits under every Python version, unlike builtin sum."""
    total = 0.0
    for v in values:
        total += v
    return total


def _pushforward(rng: random.Random) -> list:
    """The four pair tables of a random joint over (a1, a2, b1, b2), about a quarter of its cells 0."""
    w = {cell: rng.random() if rng.random() < 0.75 else 0.0 for cell in itertools.product((0, 1), repeat=4)}
    total = _sum(w.values())
    return [
        [[_sum(v for cell, v in w.items() if (cell[i], cell[j]) == (x, y)) / total for y in (0, 1)] for x in (0, 1)]
        for i, j in ((0, 2), (0, 3), (1, 2), (1, 3))
    ]


def _boxes(c: list) -> list:
    """Pair tables with uniform singles and correlations c: cells (1 + c)/4 where x = y, (1 - c)/4 elsewhere."""
    return [[[(1.0 + ci) / 4.0, (1.0 - ci) / 4.0], [(1.0 - ci) / 4.0, (1.0 + ci) / 4.0]] for ci in c]


def _boundary_boxes(rng: random.Random, target: float) -> list:
    """Correlation boxes scaled so that their largest CHSH variant max |sum(c) - 2 c_i| is ``target``."""
    while True:
        c = [rng.uniform(-1.0, 1.0) for _ in range(4)]
        scale = target / max(abs(_sum(c) - 2.0 * ci) for ci in c)
        if all(abs(scale * ci) <= 1.0 for ci in c):
            return _boxes([scale * ci for ci in c])


def fine_feasibility_digest():
    rng = random.Random(2702)
    inputs = [_pushforward(rng) for _ in range(700)]
    inputs += [_boxes([rng.uniform(-1.0, 1.0) for _ in range(4)]) for _ in range(700)]
    inputs += [_boundary_boxes(rng, 2.0 + eps) for eps in (1e-12, -1e-12, 1e-9, -1e-9) for _ in range(150)]
    h = hashlib.sha256()
    for tables in inputs:
        result = fine_feasibility(PairMarginals(*(JointPmf2x2(np.array(t)) for t in tables)))
        residual = "none" if result.marginal_residual is None else result.marginal_residual.hex()
        h.update(f"{result.feasible},{result.chsh_value.hex()},{residual};".encode("ascii"))
        if result.witness is not None:
            h.update(result.witness.probabilities.tobytes())
    return h


def _angles(rng: random.Random, count: int) -> list:
    return [rng.uniform(-4.0, 4.0) for _ in range(count)]


def run_experiments_digest():
    rng = random.Random(2703)
    cases = [(cfg, rng.getrandbits(64)) for cfg in CORNERS + [AngleConfig(0.4, 1.0, 0.4, 1.3)]]
    cases += [(AngleConfig(*_angles(rng, 4)), rng.getrandbits(64)) for _ in range(400 - len(cases))]
    runs = [(cfg, seed, n) for cfg, seed in cases for n in (1, 2, 100)]
    runs += [(cfg, seed, BLOCK_SIZE + 1) for cfg, seed in cases[::100]]
    h = hashlib.sha256()
    for cfg, seed, n in runs:
        per_experiment, combined = run_experiments(cfg, n, seed)
        for e in (*per_experiment, combined):
            h.update(f"{e.mean.hex()},{e.stderr.hex()},{e.n};".encode("ascii"))
    return h


def correlation_digest():
    rng = random.Random(2704)
    corners = [(0.0, 0.0), (0.3, 0.3 + 1e-9), (0.0, math.pi / 4), (0.0, math.pi / 2), (-0.0, math.pi), (1.0, -1.0)]
    pairs = corners + [tuple(_angles(rng, 2)) for _ in range(1000)]
    h = hashlib.sha256()
    for a, b in pairs:
        h.update(f"{correlation(a, b).hex()};".encode("ascii"))
    alpha, beta = (np.array(column) for column in zip(*pairs))
    h.update(correlation(alpha, beta).tobytes())
    h.update(correlation(alpha[:40, None], beta[None, :50]).tobytes())
    return h


def quasiprob_digest():
    rng = random.Random(2705)
    corners = [(0.3, 0.3, 1.0), (0.3, 0.3 + math.pi / 2, 0.0)]  # f_jk cells that are 0 in exact arithmetic
    h = hashlib.sha256()
    for alpha, alpha_prime, beta in corners + [_angles(rng, 3) for _ in range(300)]:
        h.update(f_jkl(alpha, alpha_prime, beta).values.tobytes())
        h.update(f_jk(alpha, alpha_prime).values.tobytes())
    return h


def find_negativity_digest():
    records = find_negativity(math.radians(30.0))
    h = hashlib.sha256(repr(records.dtype.descr).encode("ascii"))
    for name in records.dtype.names:
        h.update(records[name].tobytes())
    return h


def _cli_argvs() -> list:
    rng = random.Random(2706)

    def degrees(count):
        return [repr(rng.uniform(-180.0, 180.0)) for _ in range(count)]

    optimal = ["0", "45", "22.5", "-22.5"]
    argvs = [
        ["chsh", *optimal],
        ["chsh", *optimal, "--format", "csv"],
        ["chsh", "10", "100", "30", "75"],  # t0 = t1
        ["chsh", "0", "45", "0", "45.005"],  # t0 near 0
        ["chsh", *optimal, "--sweep", "1.1180124223602483"],  # 180/161: arange ends at 180
        ["chsh", *optimal, "--sweep", "1.0285714285714285"],  # 180/175: arange ends at 180
        ["chsh", "0", "45", "20", "-22.5", "--sweep", "7", "--format", "json"],
        ["t-spectrum", *degrees(4), "--sweep", "20"],
        ["correlate", "0", "22.5"],
        ["correlate", *degrees(2), "--format", "csv"],
        ["enumerate", "realworld", "--format", "csv"],
        ["enumerate", "counterfactual", "--format", "json"],
        ["fine", *optimal],
        ["fine", "0", "45", "22.5", "112.5"],
        ["fine", "0", "90", "0", "90"],
        ["quasiprob", "10", "20", "30"],
        ["quasiprob", "--scan", "30"],
        ["quasiprob", "--scan", "45"],
        ["simulate", "0", "45", "0.001", "90", "--n", "2", "--seed", "0"],
    ]
    argvs += [["chsh", *degrees(4)] for _ in range(5)]
    argvs += [["fine", *degrees(4)] for _ in range(5)]
    argvs += [["quasiprob", *degrees(3)] for _ in range(4)]
    argvs += [["simulate", *degrees(4), "--n", str(n), "--seed", str(rng.getrandbits(32))] for n in (1, 2, 100, 1000)]
    argvs += [["chsh", *degrees(4), "--sweep", "12.5"] for _ in range(3)]
    return argvs


def cli_stdout_digest():
    h = hashlib.sha256()
    for argv in _cli_argvs():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv) == 0, argv
        h.update(f"{' '.join(argv)}\n{out.getvalue()}".encode("utf-8"))
    return h


# Every pin of this module: name -> producer.
PINS = {
    **pinning.split([f"spectrum/{i}" for i in range(SPECTRUM_CONFIGS // BLOCK)], spectrum_digests),
    "kernel/eig_hermitian": eig_hermitian_digest,
    "kernel/fine_feasibility": fine_feasibility_digest,
    "kernel/run_experiments": run_experiments_digest,
    "kernel/correlation": correlation_digest,
    "kernel/quasiprob": quasiprob_digest,
    "kernel/find_negativity": find_negativity_digest,
    "kernel/cli_stdout": cli_stdout_digest,
}


@pytest.mark.parametrize("block", [name.split("/")[1] for name in PINS if name.startswith("kernel/")])
def test_kernel_bytes_match_their_pin(block):
    pinning.check(PINS, f"kernel/{block}")


# ROADMAP item 13's kernel split.  OpenBLAS's Sandybridge kernel has no fused
# multiply-add, and NPY_DISABLE_CPU_FEATURES turns off numpy's widest SIMD
# loops; the spectrum, eigensolver, Fine and sampler blocks must hold under
# each.  The correlation, quasiprob, find_negativity and CLI blocks wait for
# ROADMAP items 9 and 17.
KERNEL_SPLIT = [
    "test_spectrum_path_bytes_match_their_pins",
    *(f"test_kernel_bytes_match_their_pin[{block}]" for block in ("eig_hermitian", "fine_feasibility", "run_experiments")),
]


def test_four_blocks_hold_under_other_kernels():
    src = str(pathlib.Path(bellcheck.__file__).parents[1])
    here = pathlib.Path(__file__)
    runs = []
    for setting in ({"OPENBLAS_CORETYPE": "Sandybridge"}, {"NPY_DISABLE_CPU_FEATURES": "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"}):
        env = {
            **os.environ,
            **setting,
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        }
        command = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *(f"{here.name}::{test}" for test in KERNEL_SPLIT)]
        runs.append(subprocess.Popen(command, cwd=here.parent, stdout=subprocess.PIPE, text=True, env=env))
    outputs = [run.communicate()[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0], outputs
    assert all("4 passed" in output for output in outputs), outputs


def _sum_312(iterable, /, start=0):
    """Builtin ``sum`` as CPython 3.12 computes it.

    Up to the first float the terms add plainly.  Each later float is
    added with Neumaier's compensation, an int plainly, and the
    compensation joins the total at the end when it is nonzero and
    finite, or before the first term of any other type.
    """
    items = iter(iterable)
    total = start
    if type(total) is int:
        for item in items:
            total = total + item
            if type(total) is not int:
                break
    if type(total) is float:
        c = 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif type(item) in (int, bool) and -(2**63) <= item < 2**63:
                total += float(item)
            else:
                total = (total + c if c and math.isfinite(c) else total) + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        total = total + item
    return total


def test_outputs_do_not_depend_on_how_python_sums_floats(monkeypatch, capsys):
    # Builtin sum adds floats with compensation from CPython 3.12 on, and
    # the package supports 3.10 and later, so no printed byte may go through it.
    assert _sum_312([0.1] * 10) == 1.0 and _sum_312([1e100, 1.0, -1e100]) == 1.0
    rng = random.Random(2707)
    configs = [AngleConfig(*_angles(rng, 4)) for _ in range(60)]

    def outputs():
        got = []
        for seed, cfg in enumerate(configs):
            per_experiment, combined = run_experiments(cfg, 100, seed)
            got += [f"{e.mean.hex()},{e.stderr.hex()}" for e in (*per_experiment, combined)]
            witness = fine_feasibility(quantum_pair_marginals(cfg)).witness
            got.append(None if witness is None else witness.probabilities.tobytes())
        assert main(["fine", "0", "45", "22.5", "112.5"]) == 0
        return got + [capsys.readouterr().out]

    plain = outputs()
    monkeypatch.setattr(builtins, "sum", _sum_312)
    assert outputs() == plain


def test_the_package_makes_no_call_to_builtin_sum():
    package = pathlib.Path(bellcheck.__file__).parent
    calls = [
        f"{path.name}:{node.lineno}"
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "sum"
    ]
    assert calls == []
