"""Byte-level regression pins for the angle-grid, Fine and simulate commands.

Each hash is the sha256 of the stdout of one CLI invocation.  The sweep
and scan hashes were recorded from the per-point implementation that
preceded the batched kernels; the batched sweep and scan must reproduce
those bytes exactly, including the witness sort order and the skipped
degenerate point.  The batched kernels must also agree bit for bit with
the single-point functions they share code with.  The ``fine`` hashes
were recorded from the simplex that rebuilt its constraint system and
re-selected independent rows on every call: an infeasible verdict, a
printed witness (including its rounding-noise digits) and a degenerate
configuration with zero cells.  The ``simulate`` hashes were recorded
from the sampler that built n-long uniform and cell-index arrays per
experiment: a run over several draw blocks, a run one draw past a block
boundary with certain (zero-probability) cells, and a single draw.  The
``correlate``, point-mode ``quasiprob``, ``enumerate`` and single
``chsh`` hashes, and the ``--out`` file and manifest of a
``t-spectrum`` sweep, were recorded before the cross-checks moved into
one shared helper.  The ``-0`` echoes, the empty JSON sweep and the
``--out`` files, manifests and replays of ``enumerate counterfactual`` and
a ``quasiprob`` scan were recorded before every table went through one
columnar writer.
"""

import hashlib
import math

import numpy as np
import pytest

from bellcheck import quasiprob
from bellcheck.cli import main, replay
from bellcheck.quasiprob import f_jkl, find_negativity

GOLDEN = {
    ("chsh", "0", "45", "22.5", "-22.5", "--sweep", "5"):
        "81a1a738003d3c42d8dbd16b71de30af180938fd31fa2ffc37b5cd06e5ae1742",
    ("chsh", "0", "45", "20", "-22.5", "--sweep", "5", "--format", "json"):
        "505efe6d0669077fdb475e066bfbc69573ba9549536ef5d8c698909c3b02e2bb",
    ("t-spectrum", "105.528", "109.043", "92.049", "177.716", "--sweep", "1"):
        "e5fa0e470b4c63c2a0979a42b5cc1c3a1cffd2c5051590066040fb75e440a421",
    ("quasiprob", "--scan", "15"):
        "552d6bad3d9c84474e97f1377e80ffe427b707e1747742e10dfcd11e224a69f8",
    ("quasiprob", "--scan", "10"):
        "b3aea6c16249f67e0ad95556428c1b3fd27f893858e2e3725e21675b7bbcfebe",
    ("fine", "0", "45", "22.5", "-22.5"):
        "d9cc5ca0fb52c016f51ff620da3833546c221e45fd29053538086b10e4e0bb0e",
    ("fine", "0", "45", "22.5", "112.5"):
        "ad4d01f550da38f6351df13bb3acb05a6b414956d5a495789becb59d65d81b89",
    ("fine", "0", "90", "0", "90"):
        "b6a5f47ee064cfb5e813049d0609b76108ac8814a3dfa6c5de19afccd5ca21c7",
    ("simulate", "0", "45", "22.5", "-22.5", "--n", "200000", "--seed", "7"):
        "64fe1ab23c61db2a7bc98e7506a2488219e4419d30b8d7cb99ac68637e7ddc9d",
    ("simulate", "0", "45", "0.001", "90", "--n", "65537", "--seed", "3"):
        "fcadd6da66b15d8f7ab1cc1160615f66425452a1e4f3989315f20305414a1cf4",
    ("simulate", "0", "45", "22.5", "-22.5", "--n", "1", "--seed", "7"):
        "7d51da9972e1d3a2e08fc662c62dc7a27da237ec67785f57ae3cd125a4605a98",
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
        "9c3d0de9cc84290068fa7781262b1ed93165bf6945f2edc12818cc0c7555687d",
    ("chsh", "-0", "45", "22.5", "-22.5", "--format", "csv"):
        "1c562e36a46fbcd5abb57a6356093a1da8e9b540795f757adf9f5f37c0a804a7",
    ("chsh", "-0", "45", "22.5", "-22.5"):
        "9c3d0de9cc84290068fa7781262b1ed93165bf6945f2edc12818cc0c7555687d",
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
        "spectrum.csv.manifest.json": "82acb8604bfeb8695479221c5325a24efde3e3d01a9162413823bfea7a645b1e",
    }


@pytest.mark.parametrize("argv, digests", [
    (
        ("enumerate", "counterfactual", "--format", "csv"),
        {
            "table.txt": "e6cedfc6bbe683c1ae08820c7810bab2d91238c0ebcaf5ea6a01fcf1289bb5e7",
            "table.txt.manifest.json": "fe48156057c087bfa8094e50e8b1b076b5d77e9aea4a8108715ee0168b247e93",
        },
    ),
    (
        ("quasiprob", "--scan", "30"),
        {
            "table.txt": "c8af22a688505adf13041bb02df4da50be88cd315e1438c67b0700638c79a51c",
            "table.txt.manifest.json": "60b0a4545cda8abb63562f0166efc4e7bf2c74c28007a176d189f6bd1dcc5ec6",
        },
    ),
], ids=lambda value: " ".join(value) if isinstance(value, tuple) else "")
def test_golden_out_file_manifest_and_replay(tmp_path, argv, digests):
    out = tmp_path / "table.txt"
    assert main([*argv, "--out", str(out)]) == 0
    assert {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in tmp_path.iterdir()} == digests
    assert replay(str(tmp_path / "table.txt.manifest.json"), str(tmp_path / "again.txt")) == digests["table.txt"]


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
