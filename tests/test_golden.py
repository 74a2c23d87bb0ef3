"""Byte-level regression pins for the angle-grid, Fine and simulate commands.

Each hash is the sha256 of the stdout of one CLI invocation.  The sweep
and scan hashes were recorded from the per-point implementation that
preceded the batched kernels; the batched sweep and scan must reproduce
those bytes exactly, including the witness sort order and the skipped
degenerate point.  The batched kernels must also agree bit for bit with
the single-point functions they share code with.  The ``fine`` hashes
cover an infeasible verdict, a printed witness and a degenerate
configuration with zero cells.  The first was recorded from the simplex
that rebuilt its constraint system on every call; the other two, and the
library ``fine`` hash, were re-recorded at version 0.2.0, when the
witness moved from a simplex vertex to the glued interior point of
Fine's two triangles.  The ``simulate`` hashes were recorded
from the sampler that built n-long uniform and cell-index arrays per
experiment: a run over several draw blocks, a run one draw past a block
boundary with certain (zero-probability) cells, and a single draw.  The
``correlate``, point-mode ``quasiprob``, ``enumerate`` and single
``chsh`` hashes, and the ``--out`` file and manifest of a
``t-spectrum`` sweep, were recorded before the cross-checks moved into
one shared helper.  The ``-0`` echoes, the empty JSON sweep and the
``--out`` files, manifests and replays of ``enumerate counterfactual`` and
a ``quasiprob`` scan were recorded before every table went through one
columnar writer.  The stdout of each script under ``demos/`` was
recorded before the lone-matrix and stacked Jacobi sweeps became one loop.
The library pin hashes the per-configuration outputs of the library
itself, at 103 configurations.  The ``spectrum`` and ``spectra stack``
library hashes and the single ``chsh`` and ``--sweep 5 --format json``
stdout hashes were re-recorded when the Jacobi solver moved from
row-cyclic to round-robin pair order, which moves only rounding noise
(t1 below 1e-15, eigenvalues by at most 4e-15), and again, with the two
single ``chsh`` ``-0`` hashes, when the sweep moved to the round-parallel
order with no BLAS product: t1 moved by at most 1.8e-15 and eigenvalues
by at most 2.3e-15 on 20,046 configurations, and no printed 9-digit
value of magnitude 1e-12 or more moved.  Since then these hashes are the
same under every OpenBLAS kernel.  At version 0.3.0, t1 became its closed
form, which the eigensolver only checks: the four ``chsh`` hashes whose
t1 was solver noise below 1e-15 moved (single ``chsh`` 4.4408921e-16 ->
1.2246468e-16, the ``--sweep 5 --format json`` row beta2 = 155
5.18145379e-16 -> 2.73839349e-16), with the ``spectrum`` and ``spectra
stack`` library hashes; the three ``simulate`` hashes moved because the
``shards`` key left the output, every mean and stderr unchanged.  At
version 0.4.0, t0 became a sum of two squares that does not cancel: the
``--sweep 5 --format json`` row beta2 = 65 moved (t0 0 -> 1.2246468e-16),
with the ``spectrum``, ``spectra stack`` and ``samplers`` library hashes,
where t0, w_plus and the ``sample_outcomes`` means moved by at most
4.5e-16 and no 9-digit value moved.
Every pin belongs to one package version: ``PIN_DIGESTS`` records a
digest of all of them under the version they were recorded at, so a
re-pin needs a new ``__version__``.
Manifests record the version, so their hashes move with each bump.
"""

import functools
import hashlib
import math
import pathlib
import random
import re
import runpy

import numpy as np
import pytest

import bellcheck
from bellcheck import AngleConfig, quasiprob
from bellcheck.cli import main, replay
from bellcheck.quasiprob import f_jkl, find_negativity

GOLDEN = {
    ("chsh", "0", "45", "22.5", "-22.5", "--sweep", "5"):
        "81a1a738003d3c42d8dbd16b71de30af180938fd31fa2ffc37b5cd06e5ae1742",
    ("chsh", "0", "45", "20", "-22.5", "--sweep", "5", "--format", "json"):
        "27f944a1f012dd31a0a43e57411117221de6fdd0cad844087bff0a760a3b6f5d",
    ("t-spectrum", "105.528", "109.043", "92.049", "177.716", "--sweep", "1"):
        "e5fa0e470b4c63c2a0979a42b5cc1c3a1cffd2c5051590066040fb75e440a421",
    ("quasiprob", "--scan", "15"):
        "552d6bad3d9c84474e97f1377e80ffe427b707e1747742e10dfcd11e224a69f8",
    ("quasiprob", "--scan", "10"):
        "b3aea6c16249f67e0ad95556428c1b3fd27f893858e2e3725e21675b7bbcfebe",
    ("fine", "0", "45", "22.5", "-22.5"):
        "d9cc5ca0fb52c016f51ff620da3833546c221e45fd29053538086b10e4e0bb0e",
    ("fine", "0", "45", "22.5", "112.5"):
        "cef6f97c05a30f877ff2c96397422220037687a978d4711102fca046aa061732",
    ("fine", "0", "90", "0", "90"):
        "486f010c50fd6ab590ed10798eca6f7f8d5cd99fa0abab03c8a97f33b9ac570a",
    ("simulate", "0", "45", "22.5", "-22.5", "--n", "200000", "--seed", "7"):
        "3f759eac0a6cf900080d4d0b7bf441cdfc3f3d40be93ad55e6d6c4d516a825f1",
    ("simulate", "0", "45", "0.001", "90", "--n", "65537", "--seed", "3"):
        "5e04cecdb616d1a097698a6e23eef98833976f56ac72b8d118d0422e274c6449",
    ("simulate", "0", "45", "22.5", "-22.5", "--n", "1", "--seed", "7"):
        "70d6daae870a263dc5cedaf738f0cdf8fecd68dbdffa9211f62ff5a676deb96e",
    ("correlate", "0", "22.5"):
        "4f42f8681cb982723690fae31dbf17a2833e5730275b52322e07a2f46abc9583",
    ("correlate", "10", "40", "--format", "csv"):
        "20cd04a1500641949ac9313da6ea7759959f703b31f44473f1e6dc40f47552bc",
    ("quasiprob", "10", "20", "30"):
        "53ae8a536eec59bd90cec4880b72ad34915639a520693e1d5b90fc23acaebaba",
    ("enumerate", "realworld"):
        "16b1fc3c6da078d28cca07e33c3e3863a472e88a7c9ba429f0e975ace3e5aa39",
    ("enumerate", "realworld", "--format", "json"):
        "7100be9d2aa1c32535f61a0511548b210e96855b4650321d999f3c364002c99e",
    ("enumerate", "counterfactual"):
        "e6cedfc6bbe683c1ae08820c7810bab2d91238c0ebcaf5ea6a01fcf1289bb5e7",
    ("enumerate", "counterfactual", "--format", "json"):
        "8d56b95a305444e8d7da7a4885ffeb1791368abaa09adbf86b45b9047dd4ee99",
    ("chsh", "0", "45", "22.5", "-22.5"):
        "d9d9cab0289353624c77abc0b11eb5ce9d453444f3493ae0eb07932a2ff49f4f",
    ("chsh", "-0", "45", "22.5", "-22.5", "--format", "csv"):
        "1fe6e489dcfe3506c564b307379fd1306f32b81e0abab493aea921fab7c0237c",
    ("chsh", "-0", "45", "22.5", "-22.5"):
        "d9d9cab0289353624c77abc0b11eb5ce9d453444f3493ae0eb07932a2ff49f4f",
    ("chsh", "0", "45", "0", "10", "--sweep", "180", "--format", "json"):
        "31851727f99a25b3937454c6cf95bd6ec9f602351ca1572375f7f1bdd3baef64",
}


@pytest.mark.parametrize("argv", list(GOLDEN), ids=" ".join)
def test_golden_stdout_bytes(capsys, argv):
    assert main(list(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == GOLDEN[argv]


def test_golden_out_file_and_manifest_bytes(tmp_path):
    out = tmp_path / "spectrum.csv"
    assert main(["t-spectrum", "0", "45", "22.5", "-22.5", "--sweep", "30", "--out", str(out)]) == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in sorted(tmp_path.iterdir())}
    assert digests == {
        "spectrum.csv": "91151131db35bdd58041296f7b755e488ff430ce85811aa8c326fecba35933fd",
        "spectrum.csv.manifest.json": "97819e090cea9f6917433b26c080f507e6f6c51d997edec9a20e6309b36ac36e",
    }


@pytest.mark.parametrize("argv, digests", [
    (
        ("enumerate", "counterfactual", "--format", "csv"),
        {
            "table.txt": "e6cedfc6bbe683c1ae08820c7810bab2d91238c0ebcaf5ea6a01fcf1289bb5e7",
            "table.txt.manifest.json": "125fd5bd3ffd70ddac2f9a76c04e2c6b943fb7fa008704ae91332eca92625e99",
        },
    ),
    (
        ("quasiprob", "--scan", "30"),
        {
            "table.txt": "c8af22a688505adf13041bb02df4da50be88cd315e1438c67b0700638c79a51c",
            "table.txt.manifest.json": "8cae9b889954ebbac8825b99489553ff831172411e329ef8d705092da60f2eec",
        },
    ),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_golden_out_file_manifest_and_replay(tmp_path, argv, digests):
    out = tmp_path / "table.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()} == digests
    assert replay(str(tmp_path / "table.txt.manifest.json"), str(tmp_path / "again.txt")) == digests["table.txt"]


DEMOS = pathlib.Path(__file__).resolve().parent.parent / "demos"

DEMO_GOLDEN = {
    "born_rule_and_correlations.py": "e328053f2e5cd3c0cc3dba1f5ea48a051fdca0090df6a835bf4ecc919e41aba2",
    "chsh_operator_spectrum.py": "ddd9a7dc40a598006b9f6c22538495557708cf799892847c2ab45dc0f94e4398",
    "counterfactual_device.py": "e93ef9b349992d2e8275ffa142eb0ea84369a29c1f6347faa30ba06bdbfceb2b",
    "quasiprobability_negativity.py": "e3dc7b3a5eb32c8d92208f6396fe8e8bafa8e1d689e19c9a9b0787d609f20d10",
    "real_world_experiments.py": "62e5a12595190ac8c2de194182af750386fe8c6a9c510ba60c8db4f21db46ab4",
}


def test_demo_scripts_are_all_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DEMO_GOLDEN)


@pytest.mark.parametrize("name", sorted(DEMO_GOLDEN))
def test_golden_demo_stdout_bytes(capsys, name):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == DEMO_GOLDEN[name]


def _cli_stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


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
def test_sweep_rows_match_single_config_rows(capsys, angles):
    header, *rows = _cli_stdout(capsys, "chsh", *angles, "--sweep", "7.5").splitlines()
    assert len(rows) >= 23
    for row in rows:
        beta2 = row.split(",")[3]
        single = _cli_stdout(capsys, "chsh", *angles[:3], beta2, "--format", "csv").splitlines()
        assert single == [header, row]


# The library pin: one sha256 per kind of per-configuration output, over
# the bytes of every output at LIBRARY_CONFIGS.  Recorded before the pair
# tables and the CHSH operator were rebuilt from stacked kernels; every
# byte must survive such a rebuild.  The ``fine`` hash was re-recorded for
# the glued witness at 0.2.0.
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

LIBRARY_GOLDEN = {
    "correlation": "720d7144ed0fcb28c004eaf3232719d6d51b963be0577f20464b3743aa51b5ff",
    "spectrum": "128349362d25f79561487f403e500e3b569a7b42b13db9588e8ad2ad52efb832",
    "spectra stack": "2bbfd4d50254abc053ec1ea5241ee7354263e5626cd6bdc5e63809c6b0602532",
    "chsh_operator": "a87cfe23beb8eb2d30752fc3980fd2a0c324da4f7335a4ab9fc9f3085c9fd6f6",
    "pair tables": "cc3fc57f8913e30cd9f5350822aff3596750215875c058d3cdebb78feeccf1bb",
    "fine": "044126f2d4a0771292d949e6e6c5e66dcb993da0da8bbba492c73f558ba6a731",
    "tensor_joint_pmf": "3d9768b7457b6a5445f75f83c06368b4dbcf66d4c6a14848db46e66ad5741989",
    "samplers": "937f4300793b5ff1a87167bd1b09aadf0c785406c092e7c2ee612d7d57278ea8",
    "quasiprob": "069ce792b6cdb843fe7c12fa2bbeb54a197df5c82ef32c1c88c7f89607c8ebcd",
}


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
    digests = {kind: hashlib.sha256() for kind in LIBRARY_GOLDEN}
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
    return {kind: digest.hexdigest() for kind, digest in digests.items()}


def test_golden_library_output_bytes():
    assert _library_digests() == LIBRARY_GOLDEN


# The sha256 of every pin in this file, in file order, under the package
# version it belongs to.  A changed pin fails here until __version__ is
# bumped and the new digest recorded under it, so replay refuses the
# manifests whose bytes the change could move.
PIN_DIGESTS = {
    "0.1.0": "ade27149da1b6b87cac147a1f5514a9018e9f5566f82fa043562b51bf4f45123",
    "0.2.0": "a31e8d9607de957fb8c81869120cdd0854cb270bc3aca2c71bf8cc217b0f60c7",
    "0.3.0": "8e583ae3c036c0da13091c4cd61760bf9577da8ce787555b39b1316e072785e8",
    "0.4.0": "2ddeff5f5791ce51d44d009337dbe77058f5e79fb716d83151a3775cd3565dbe",
}


def test_pins_change_only_with_the_package_version():
    text = pathlib.Path(__file__).read_text(encoding="utf-8")
    pins = [pin for pin in re.findall(r'"([0-9a-f]{64})"', text) if pin not in PIN_DIGESTS.values()]
    digest = hashlib.sha256("".join(pins).encode("ascii")).hexdigest()
    assert list(PIN_DIGESTS)[-1] == bellcheck.__version__
    assert PIN_DIGESTS[bellcheck.__version__] == digest, f"pins changed: bump __version__ and record {digest}"


def test_pyproject_takes_the_version_from_the_package():
    # So a bump is one edit, to bellcheck.__version__.
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((DEMOS.parent / "pyproject.toml").read_text(encoding="utf-8"))
    assert "version" not in project["project"] and project["project"]["dynamic"] == ["version"]
    assert project["tool"]["setuptools"]["dynamic"]["version"] == {"attr": "bellcheck.__version__"}
