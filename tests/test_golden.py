"""Byte-level regression pins of the CLI, the demos and the library.

Every pin is checked against the registry under ``tests/pins/`` by
``pinning.check``, which names each pin that moved; ``pinning`` says how
pins are stored, versioned and recorded.

- The CLI pins hold the stdout of 22 argv lists.  The sweeps and scans
  pin the batched kernels, the witness sort order and the skipped
  degenerate point; ``fine`` an infeasible verdict, a printed witness
  and a degenerate configuration with zero cells; ``simulate`` a run
  over several draw blocks, a run one draw past a block boundary with
  certain (zero-probability) cells, and a single draw.  A ``-0`` echo
  prints as ``0``, and a sweep whose one point is degenerate prints an
  empty JSON table.  The two scans are pinned by digest, the rest as
  text.
- The ``--out`` pins hold the file and the manifest of three runs, and
  the pinned manifest must replay to the pinned file.  Manifests record
  the package version, so they move with each bump.
- The demo pins hold the stdout of every script under ``demos/``.
- The library pins digest the per-configuration outputs of the library
  at 103 configurations, one digest per kind of output.

The batched scan and sweep must also agree bit for bit with the
single-point functions they share code with, and the registry belongs
to one package version (``pinning.PIN_DIGESTS``).
"""

import contextlib
import functools
import hashlib
import io
import math
import pathlib
import random
import runpy
import tempfile

import numpy as np
import pytest

import bellcheck
from bellcheck import AngleConfig, quasiprob
from bellcheck.cli import main, replay
from bellcheck.quasiprob import f_jkl, find_negativity
import pinning

CLI_ARGVS = [
    ("chsh", "0", "45", "22.5", "-22.5", "--sweep", "5"),
    ("chsh", "0", "45", "20", "-22.5", "--sweep", "5", "--format", "json"),
    ("t-spectrum", "105.528", "109.043", "92.049", "177.716", "--sweep", "1"),
    ("quasiprob", "--scan", "15"),
    ("quasiprob", "--scan", "10"),
    ("fine", "0", "45", "22.5", "-22.5"),
    ("fine", "0", "45", "22.5", "112.5"),
    ("fine", "0", "90", "0", "90"),
    ("simulate", "0", "45", "22.5", "-22.5", "--n", "200000", "--seed", "7"),
    ("simulate", "0", "45", "0.001", "90", "--n", "65537", "--seed", "3"),
    ("simulate", "0", "45", "22.5", "-22.5", "--n", "1", "--seed", "7"),
    ("correlate", "0", "22.5"),
    ("correlate", "10", "40", "--format", "csv"),
    ("quasiprob", "10", "20", "30"),
    ("enumerate", "realworld"),
    ("enumerate", "realworld", "--format", "json"),
    ("enumerate", "counterfactual"),
    ("enumerate", "counterfactual", "--format", "json"),
    ("chsh", "0", "45", "22.5", "-22.5"),
    ("chsh", "-0", "45", "22.5", "-22.5", "--format", "csv"),
    ("chsh", "-0", "45", "22.5", "-22.5"),
    ("chsh", "0", "45", "0", "10", "--sweep", "180", "--format", "json"),
]
# 204 KB and 860 KB of stdout: pinned by digest.
DIGEST_ARGVS = {("quasiprob", "--scan", "15"), ("quasiprob", "--scan", "10")}

# The --out runs, each with the name of the file it writes.
OUT_RUNS = {
    ("t-spectrum", "0", "45", "22.5", "-22.5", "--sweep", "30"): "spectrum.csv",
    ("enumerate", "counterfactual", "--format", "csv"): "table.txt",
    ("quasiprob", "--scan", "30"): "table.txt",
}

DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"
DEMO_SCRIPTS = sorted(DEMOS.glob("*.py"))


def _cli_name(argv) -> str:
    return "cli/" + "_".join(argv) + ".txt"


def _out_group(argv) -> str:
    return "out/" + "_".join(argv)


def _cli_output(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0, argv
    text = out.getvalue()
    return hashlib.sha256(text.encode("utf-8")) if argv in DIGEST_ARGVS else text


def _out_outputs(argv) -> dict:
    """The file and manifest that ``argv --out <file>`` writes, and nothing else: pin name -> text."""
    name = OUT_RUNS[argv]
    with tempfile.TemporaryDirectory() as tmp:
        assert main([*argv, "--out", str(pathlib.Path(tmp) / name)]) == 0
        written = {path.name: path.read_bytes().decode("utf-8") for path in pathlib.Path(tmp).iterdir()}
    assert sorted(written) == [name, name + ".manifest.json"]
    return {f"{_out_group(argv)}/{file}": text for file, text in written.items()}


def _demo_output(script: pathlib.Path) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        runpy.run_path(str(script), run_name="__main__")
    return out.getvalue()


@pytest.mark.parametrize("argv", CLI_ARGVS, ids=" ".join)
def test_golden_stdout_bytes(argv):
    pinning.check(PINS, _cli_name(argv))


@pytest.mark.parametrize("argv", list(OUT_RUNS), ids=" ".join)
def test_golden_out_file_manifest_and_replay(tmp_path, argv):
    group = _out_group(argv)
    pinning.check(PINS, group)
    pinned = pinning.PINS / group / OUT_RUNS[argv]
    again = replay(f"{pinned}.manifest.json", str(tmp_path / "again.txt"))
    assert again == hashlib.sha256(pinned.read_bytes()).hexdigest()


@pytest.mark.parametrize("script", DEMO_SCRIPTS, ids=lambda script: script.name)
def test_golden_demo_stdout_bytes(script):
    pinning.check(PINS, f"demos/{script.stem}.txt")


def test_scan_kernel_matches_scalar_f_jkl_bitwise():
    # threshold=inf turns every cell of the 20-degree grid into a witness
    witnesses = find_negativity(math.radians(20.0), threshold=math.inf)
    assert len(witnesses) == 9**3 * 8
    got = np.array([w.value for w in witnesses])
    want = np.array([
        f_jkl(w.alpha, w.alpha_prime, w.beta).values[w.j - 1, w.k - 1, w.l - 1] for w in witnesses
    ])
    assert np.array_equal(got, want)


def _same_records(got, want):
    """Equal field names and dtypes, and every field equal in order under np.array_equal."""
    return got.dtype == want.dtype and all(np.array_equal(got[name], want[name]) for name in got.dtype.names)


def test_scan_matches_per_point_reference():
    step = math.radians(15.0)
    reference = []
    for alpha in np.arange(0.0, math.pi, step).tolist():
        for alpha_prime in np.arange(0.0, math.pi, step).tolist():
            for beta in np.arange(0.0, math.pi, step).tolist():
                table = f_jkl(alpha, alpha_prime, beta).values
                for j, k, l in np.argwhere(table < -1e-12):
                    cell = (float(table[j, k, l]), alpha, alpha_prime, beta, int(j) + 1, int(k) + 1, int(l) + 1)
                    reference.append(cell)
    reference.sort()  # by value, then (alpha, alpha', beta, j, k, l)
    got = find_negativity(step)
    assert got.dtype.names == ("alpha", "alpha_prime", "beta", "j", "k", "l", "value")
    for name, column in zip(("value", "alpha", "alpha_prime", "beta", "j", "k", "l"), zip(*reference)):
        assert np.array_equal(got[name], column), name


def test_scan_blocks_do_not_change_witnesses(monkeypatch):
    whole = find_negativity(math.radians(15.0))
    monkeypatch.setattr(quasiprob, "_CHUNK_CELLS", 8 * 12 * 12 * 5)  # five alphas per block, ragged end
    assert _same_records(find_negativity(math.radians(15.0)), whole)
    monkeypatch.setattr(quasiprob, "_CHUNK_CELLS", 1)  # one alpha per block
    assert _same_records(find_negativity(math.radians(15.0)), whole)


@pytest.mark.parametrize("angles", [("10.5", "50.25", "20.125", "30"), ("0", "45", "20", "-22.5")])
def test_sweep_rows_match_single_config_rows(angles):
    header, *rows = _cli_output(("chsh", *angles, "--sweep", "7.5")).splitlines()
    assert len(rows) >= 23
    for row in rows:
        beta2 = row.split(",")[3]
        single = _cli_output(("chsh", *angles[:3], beta2, "--format", "csv")).splitlines()
        assert single == [header, row]


# The library pins: one sha256 per kind of per-configuration output, over
# the bytes of every output at LIBRARY_CONFIGS.
_CONFIG_RNG = random.Random("golden/library")
LIBRARY_CONFIGS = [
    (AngleConfig(*(_CONFIG_RNG.uniform(0.0, math.pi) for _ in range(4))), _CONFIG_RNG.getrandbits(32))
    for _ in range(100)
] + [
    (AngleConfig.from_degrees(0.0, 45.0, 22.5, -22.5), 7),  # optimal: deterministic outcome
    (AngleConfig.from_degrees(0.0, 45.0, 22.5, 112.5), 11),  # Fine-feasible, with a witness
    (AngleConfig(0.4, 1.0, 0.4, 1.3), 3),  # E1 measures both photons at 0.4
]
SAMPLER_COUNTS = (1, 65535, 65536, 65537, 10_000)
LIBRARY_KINDS = (
    "correlation", "spectrum", "spectra stack", "chsh_operator", "pair tables", "fine", "tensor_joint_pmf", "samplers", "quasiprob"
)


def _feed(digest, *values):
    """Add each value's dtype, shape and raw bytes to ``digest``; None and bools get a tag."""
    for value in values:
        if value is None or isinstance(value, bool):
            digest.update(repr(value).encode())
        else:
            array = np.ascontiguousarray(value)
            digest.update(f"{array.dtype.str}{array.shape}".encode())
            digest.update(array.tobytes())


def _library_digests():
    digests = {kind: hashlib.sha256() for kind in LIBRARY_KINDS}
    feed = {kind: functools.partial(_feed, digest) for kind, digest in digests.items()}
    for cfg, seed in LIBRARY_CONFIGS:
        feed["correlation"](*(bellcheck.correlation(a, b) for a, b in cfg.experiment_angles()))
        s = bellcheck.chsh_spectrum(cfg)
        feed["spectrum"](s.t0, s.t1, s.w_plus, s.w_minus, s.eigenvalues)
        feed["chsh_operator"](bellcheck.chsh_operator(cfg))
        feed["pair tables"](*(table.p for table in bellcheck.quantum_pair_marginals(cfg).tables()))
        fine = bellcheck.fine_feasibility(bellcheck.quantum_pair_marginals(cfg))
        witness = None if fine.witness is None else fine.witness.probabilities
        feed["fine"](fine.feasible, fine.chsh_value, fine.marginal_residual, witness)
        feed["tensor_joint_pmf"](bellcheck.tensor_joint_pmf(cfg))
        for n in SAMPLER_COUNTS:
            per_experiment, combined = bellcheck.run_experiments(cfg, n, seed)
            outcomes = bellcheck.sample_outcomes(cfg, n, seed)
            for e in (*per_experiment, combined, outcomes):
                feed["samplers"](e.mean, e.stderr, e.n)
        feed["quasiprob"](
            bellcheck.f_jk(cfg.alpha1, cfg.alpha2).values, bellcheck.q_value(cfg.alpha1, cfg.alpha2, cfg.beta1)
        )
    angles = np.array([[cfg.alpha1, cfg.alpha2, cfg.beta1, cfg.beta2] for cfg, _ in LIBRARY_CONFIGS]).T
    stack = bellcheck.chsh_spectra(*angles)
    feed["correlation"](bellcheck.correlation(angles[0], angles[2]), bellcheck.chsh_expectations(*angles[[0, 1, 2, 3]]))
    feed["spectra stack"](stack.t0, stack.t1, stack.w_plus, stack.w_minus, stack.eigenvalues)
    return {f"library/{kind}": digest for kind, digest in digests.items()}


def test_golden_library_output_bytes():
    pinning.check(PINS, "library")


# Every pin of this module: name -> producer.
PINS = {
    **{_cli_name(argv): functools.partial(_cli_output, argv) for argv in CLI_ARGVS},
    **{f"demos/{script.stem}.txt": functools.partial(_demo_output, script) for script in DEMO_SCRIPTS},
    **pinning.split([f"library/{kind}" for kind in LIBRARY_KINDS], _library_digests),
}
for _argv, _file in OUT_RUNS.items():
    _names = [f"{_out_group(_argv)}/{_file}", f"{_out_group(_argv)}/{_file}.manifest.json"]
    PINS.update(pinning.split(_names, functools.partial(_out_outputs, _argv)))


def test_every_pin_is_checked_and_every_demo_pinned():
    # The registry holds exactly the pins that the test modules declare,
    # and each module's tests check every pin it declares.
    declared = pinning.declared()
    assert sorted(pinning.entries()) == sorted(declared)
    assert {f"demos/{script.stem}.txt" for script in DEMOS.glob("*.py")} <= set(declared)


def test_pins_change_only_with_the_package_version():
    digest = pinning.ledger_digest()
    assert list(pinning.PIN_DIGESTS)[-1] == bellcheck.__version__
    assert pinning.PIN_DIGESTS[bellcheck.__version__] == digest, f"pins changed: bump __version__ and record {digest}"


def test_pyproject_takes_the_version_from_the_package():
    # So a bump is one edit, to bellcheck.__version__.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((DEMOS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"] and project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "bellcheck.__version__"}
