import hashlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import bellcheck
from bellcheck.cli import _parser, canonical_json, main, replay

# The directory that holds the package under test, and an environment that puts it on a subprocess's path.
SRC = str(pathlib.Path(bellcheck.__file__).parents[1])
SRC_ENV = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))}


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.endswith("\n")
    return json.loads(out)


def test_correlate_values(capsys):
    payload = run_json(capsys, "correlate", "0", "22.5")
    assert payload["correlation"] == pytest.approx(-0.7071068, abs=1e-7)
    assert payload["pmf"][0][1] == pytest.approx((1 + math.sqrt(2) / 2) / 4, abs=1e-9)
    payload = run_json(capsys, "correlate", "0", "0")
    assert payload["correlation"] == -1.0
    payload = run_json(capsys, "correlate", "0", "45")
    assert payload["correlation"] == pytest.approx(0.0, abs=1e-12)
    assert all(cell == 0.25 for row in payload["pmf"] for cell in row)


def test_json_output_is_canonical(capsys):
    _, out = run_cli(capsys, "correlate", "10", "40")
    keys = list(json.loads(out))
    assert keys == sorted(keys)
    # floats carry at most 9 significant digits
    assert "-0.50000000000" not in out
    assert json.loads(out)["correlation"] == pytest.approx(-0.5, abs=1e-9)


def test_chsh_command(capsys):
    payload = run_json(capsys, "chsh", "0", "45", "22.5", "-22.5")
    assert payload["e_qm"] == pytest.approx(-2.8284271, abs=1e-7)
    assert payload["t0"] == pytest.approx(2.8284271, abs=1e-7)
    assert payload["w_plus"] == 0.0
    assert payload["w_minus"] == 1.0
    null = run_json(capsys, "chsh", "0", "45", "22.5", "67.5")
    assert null["e_qm"] == pytest.approx(0.0, abs=1e-9)


def test_t_spectrum_alias_matches_chsh(capsys):
    _, chsh_out = run_cli(capsys, "chsh", "0", "30", "15", "75")
    _, alias_out = run_cli(capsys, "t-spectrum", "0", "30", "15", "75")
    assert chsh_out == alias_out


def test_chsh_sweep_csv(capsys):
    code, out = run_cli(capsys, "chsh", "0", "45", "22.5", "-22.5", "--sweep", "5")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha1,alpha2,beta1,beta2,e_qm,t0,t1,w_plus,w_minus"
    rows = [line.split(",") for line in lines[1:]]
    assert len(rows) == 36  # beta1 = 22.5 is off the 5-degree grid, nothing skipped
    e_col = [float(r[4]) for r in rows]
    assert max(abs(e) for e in e_col) <= 2.8284272


def test_chsh_sweep_skips_degenerate_grid_point(capsys):
    code, out = run_cli(capsys, "chsh", "0", "45", "20", "-22.5", "--sweep", "5")
    assert code == 0
    rows = [line.split(",") for line in out.strip().split("\n")[1:]]
    assert len(rows) == 35  # the beta2 = beta1 = 20 point is degenerate
    assert 20.0 not in [float(r[3]) for r in rows]


# np.arange(0, 180, step) can round its last point up to 180 (step 180/227)
# or to 179.99999999999997, which prints as 180 (step 180/161); either would
# repeat the beta2 = 0 row.  The grid drops that point, leaving 180/step rows.
@pytest.mark.parametrize("step", ["10", "0.7929515418502202", "1.1180124223602483"])
def test_chsh_sweep_stays_below_180(capsys, step):
    code, out = run_cli(capsys, "chsh", "0", "45", "22.5", "-22.5", "--sweep", step)
    assert code == 0
    beta2 = [float(line.split(",")[3]) for line in out.strip().split("\n")[1:]]
    assert len(beta2) == round(180 / float(step)) and max(beta2) < 180.0


def test_chsh_rejects_degenerate_settings(capsys):
    code, _ = run_cli(capsys, "chsh", "0", "45", "10", "190")
    assert code == 2
    code, _ = run_cli(capsys, "chsh", "0", "180", "10", "55")
    assert code == 2


@pytest.fixture
def no_draws(monkeypatch):
    def refuse(seed, stream, n):
        raise AssertionError("the count must be rejected before any draw")

    monkeypatch.setattr("bellcheck.realworld._uniform_blocks", refuse)


def test_simulate_rejects_n_beyond_exact_counting(capsys, no_draws, tmp_path):
    out = tmp_path / "sim.json"
    argv = ["simulate", "0", "45", "22.5", "-22.5", "--n", "9007199254740993", "--seed", "1", "--out", str(out)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: n must be at most 2**53")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_simulate_requires_seed_and_positive_n(capsys, no_draws):
    code, _ = run_cli(capsys, "simulate", "0", "45", "22.5", "-22.5", "--n", "100")
    assert code == 2
    assert main(["simulate", "0", "45", "22.5", "-22.5", "--n", "0", "--seed", "1"]) == 2
    assert capsys.readouterr().err.startswith("error: n must be at least 1")


def test_enumerate_realworld(capsys):
    code, out = run_cli(capsys, "enumerate", "realworld")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "x1,y1,x2,y2,x3,y3,x4,y4,statistic"
    assert lines[-1].startswith("# statistic histogram: ")
    assert lines[-1].endswith("-4:16,-2:64,0:96,2:64,4:16")
    assert len(lines) == 1 + 256 + 1
    stats = [int(line.split(",")[-1]) for line in lines[1:-1]]
    assert max(stats) == 4 and min(stats) == -4


def test_enumerate_counterfactual(capsys):
    code, out = run_cli(capsys, "enumerate", "counterfactual")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 17
    stats = {int(line.split(",")[-1]) for line in lines[1:]}
    assert stats == {-2, 2}


def test_fine_command(capsys):
    infeasible = run_json(capsys, "fine", "0", "45", "22.5", "-22.5")
    assert infeasible["feasible"] is False
    assert infeasible["chsh_variants"] == pytest.approx(2.8284271, abs=1e-7)
    assert infeasible["witness"] is None
    feasible = run_json(capsys, "fine", "0", "45", "22.5", "112.5")
    assert feasible["feasible"] is True
    assert feasible["marginal_residual"] < 1e-9
    witness = np.array(feasible["witness"])
    assert witness.shape == (16,)
    assert witness.sum() == pytest.approx(1.0, abs=1e-9)
    code, _ = run_cli(capsys, "fine", "0", "0", "10", "55")
    assert code == 2


def test_quasiprob_point(capsys):
    payload = run_json(capsys, "quasiprob", "0", "60", "30")
    f = np.array(payload["f"])
    assert f[0, 0, 0] == pytest.approx(-0.0625, abs=1e-9)
    assert any(
        cell["j"] == 1 and cell["k"] == 1 and cell["l"] == 1 for cell in payload["negative_cells"]
    )
    assert all(abs(v) < 1e-12 for v in payload["residuals"].values())
    clean = run_json(capsys, "quasiprob", "0", "0", "17")
    assert clean["negative_cells"] == []
    assert all(abs(v) < 1e-12 for v in clean["residuals"].values())


def test_quasiprob_scan(capsys):
    payload = run_json(capsys, "quasiprob", "--scan", "15")
    assert payload["witnesses"]
    values = [w["value"] for w in payload["witnesses"]]
    assert values == sorted(values)
    assert min(values) <= -0.06


def test_quasiprob_argument_validation(capsys):
    code, _ = run_cli(capsys, "quasiprob", "0", "60")
    assert code == 2
    code, _ = run_cli(capsys, "quasiprob")
    assert code == 2
    code, _ = run_cli(capsys, "quasiprob", "0", "60", "30", "--scan", "15")
    assert code == 2
    code, _ = run_cli(capsys, "quasiprob", "--scan", "-3")
    assert code == 2


def test_usage_errors_exit_2(capsys):
    assert main(["correlate", "abc", "0"]) == 2
    assert main(["enumerate", "nonsense"]) == 2
    assert main(["no-such-command"]) == 2
    for seed in ("18446744073709551616", "-1"):
        assert main(["simulate", "0", "45", "22.5", "-22.5", "--n", "10", "--seed", seed]) == 2
        assert "seed must fit in an unsigned 64-bit integer" in capsys.readouterr().err


def test_internal_check_failures_exit_3(capsys, monkeypatch):
    from bellcheck.errors import InternalCheckError
    import bellcheck.cli as cli_module

    def broken(marginals):
        raise InternalCheckError("routes disagree")

    monkeypatch.setattr(cli_module, "fine_feasibility", broken)
    assert main(["fine", "0", "45", "22.5", "-22.5"]) == 3


@pytest.mark.parametrize("sweep", [[], ["--sweep", "30"]], ids=["lone", "stacked"])
def test_a_solve_that_does_not_converge_exits_3(capsys, monkeypatch, sweep):
    # The lone and the stacked eigensolve, each stopped before its first sweep.
    monkeypatch.setattr("bellcheck.linalg._MAX_SWEEPS", 0)
    assert main(["chsh", "0", "45", "22.5", "-22.5", *sweep]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("internal check failed: Jacobi iteration did not converge within 0 sweeps: gap ")


def test_simulate_near_degenerate_settings(capsys):
    # beta1 sits 0.001 deg from alpha1; the configuration is still valid
    from bellcheck.chsh_operator import closed_form_expectation
    from bellcheck.polarization import AngleConfig

    payload = run_json(
        capsys, "simulate", "0", "45", "0.001", "90", "--n", "20000", "--seed", "3",
    )
    target = closed_form_expectation(AngleConfig.from_degrees(0, 45, 0.001, 90))
    assert abs(payload["e_rw"]["mean"] - target) < 5 * payload["e_rw"]["stderr"]


def test_correlate_csv_format(capsys):
    code, out = run_cli(capsys, "correlate", "0", "45", "--format", "csv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "alpha_deg,beta_deg,correlation,p_pp,p_pm,p_mp,p_mm"
    assert len(lines) == 2


def test_enumerate_json_format(capsys):
    payload = run_json(capsys, "enumerate", "realworld", "--format", "json")
    assert len(payload["rows"]) == 256
    assert payload["histogram"] == {"-4": 16, "-2": 64, "0": 96, "2": 64, "4": 16}


def test_manifest_written_and_replayable(tmp_path, capsys):
    out = tmp_path / "spectrum.csv"
    code, _ = run_cli(
        capsys, "chsh", "0", "45", "22.5", "-22.5", "--sweep", "15", "--out", str(out)
    )
    assert code == 0
    manifest_path = tmp_path / "spectrum.csv.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == "chsh"
    assert manifest["parameters"]["sweep_deg"] == 15.0
    assert manifest["parameters"]["alpha1_deg"] == 0.0
    replayed = replay(str(manifest_path), str(tmp_path / "again.csv"))
    assert replayed == manifest["sha256"]
    assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()


def test_manifest_replay_simulate(tmp_path, capsys):
    out = tmp_path / "run.json"
    code, _ = run_cli(
        capsys, "simulate", "0", "45", "22.5", "-22.5",
        "--n", "5000", "--seed", "99", "--out", str(out),
    )
    assert code == 0
    manifest = json.loads((tmp_path / "run.json.manifest.json").read_text())
    assert manifest["parameters"]["seed"] == 99
    replayed = replay(str(tmp_path / "run.json.manifest.json"), str(tmp_path / "rerun.json"))
    assert replayed == manifest["sha256"]


# One of each command form; some angles and steps have more than 9
# significant digits, and -1e16 must be typed after "--".
_ROUND_TRIPS = {
    "correlate-json": ("correlate", "--", "-1e16", "52.99104926281041"),
    "correlate-csv": ("correlate", "--format", "csv", "45.0", "52.99104926281041"),
    "chsh": ("chsh", "0", "45", "22.5", "-22.5"),
    "t-spectrum": ("t-spectrum", "0.1234567890123", "45", "22.5", "-22.5"),
    "chsh-sweep": ("chsh", "0", "45", "22.5", "-22.5", "--sweep", "7.77777777777"),
    "simulate": ("simulate", "0", "45", "22.5", "-22.5", "--n", "3000", "--seed", "11"),
    "enumerate-realworld": ("enumerate", "realworld", "--format", "json"),
    "enumerate-counterfactual": ("enumerate", "counterfactual", "--format", "csv"),
    "fine": ("fine", "0", "45", "22.5", "-22.5"),
    "quasiprob": ("quasiprob", "0", "60.000000000123", "30"),
    "quasiprob-scan": ("quasiprob", "--scan", "33.3333333333"),
}


@pytest.mark.parametrize("argv", list(_ROUND_TRIPS.values()), ids=list(_ROUND_TRIPS))
def test_every_command_form_replays_its_out_file(tmp_path, argv):
    out = tmp_path / "out.txt"
    assert main([argv[0], "--out", str(out), *argv[1:]]) == 0
    manifest_path = tmp_path / "out.txt.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["command"] == argv[0]
    assert manifest["sha256"] == hashlib.sha256(out.read_bytes()).hexdigest()
    assert replay(str(manifest_path), str(tmp_path / "again.txt")) == manifest["sha256"]
    assert (tmp_path / "again.txt").read_bytes() == out.read_bytes()


def test_manifest_writes_a_float_exactly_only_where_nine_digits_round_it(tmp_path):
    out = tmp_path / "c.json"
    assert main(["correlate", "--out", str(out), "--", "45.0", "52.99104926281041"]) == 0
    manifest = (tmp_path / "c.json.manifest.json").read_text()
    assert '"parameters": {"alpha_deg": 45, "beta_deg": 52.99104926281041}' in manifest


def test_negative_exponent_angle_is_typed_after_double_dash(capsys):
    code, out = run_cli(capsys, "correlate", "--", "-1e15", "0")
    assert code == 0
    assert out == run_cli(capsys, "correlate", "-1000000000000000", "0")[1]


def test_replay_refuses_a_manifest_from_another_version(tmp_path):
    assert main(["correlate", "0", "22.5", "--out", str(tmp_path / "c.json")]) == 0
    manifest_path = tmp_path / "c.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["artifact_version"] = "0.0.1"
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(ValueError, match=rf"0\.0\.1.*{re.escape(bellcheck.__version__)}"):
        replay(str(manifest_path), str(tmp_path / "again.json"))
    assert not (tmp_path / "again.json").exists()


def test_replay_raises_when_the_recorded_command_fails(tmp_path, capsys):
    argv = ["simulate", "0", "45", "22.5", "-22.5", "--n", "10", "--seed", "1", "--out", str(tmp_path / "s.json")]
    assert main(argv) == 0
    manifest_path = tmp_path / "s.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    manifest["parameters"]["n"] = 0
    manifest_path.write_text(json.dumps(manifest))
    with pytest.raises(RuntimeError, match="replay of simulate exited with code 2"):
        replay(str(manifest_path), str(tmp_path / "again.json"))
    assert "error: n must be at least 1" in capsys.readouterr().err
    assert not (tmp_path / "again.json").exists()


# Command -> (number of angles, other flags).
_ANGLE_FORMS = {
    "correlate": (2, ()),
    "chsh": (4, ()),
    "fine": (4, ()),
    "simulate": (4, ("--n", "100", "--seed", "3")),
    "quasiprob": (3, ()),
}


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(_ANGLE_FORMS)),
    st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=4, max_size=4),
)
def test_any_typed_angle_replays_to_its_recorded_sha256(command, angles):
    count, flags = _ANGLE_FORMS[command]
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp) / "out.txt"
        # Invalid settings exit 2, and their own tests cover them; no valid setting fails a check.
        code = main([command, *flags, "--out", str(out), "--", *map(repr, angles[:count])])
        assume(code != 2)
        assert code == 0
        manifest_path = pathlib.Path(tmp) / "out.txt.manifest.json"
        recorded = json.loads(manifest_path.read_text())["sha256"]
        assert replay(str(manifest_path), str(pathlib.Path(tmp) / "again.txt")) == recorded


# ROADMAP item 3's gate: chsh a a+45 b b+45+delta sits near t0 = 0, where the
# +-t0 eigenvectors are ill-conditioned, yet every command exits 0.  The 141
# log-spaced delta in [1e-9, 1e-2] run at each (a, b), and six typed beta2 join
# them at a = b = 0.
@pytest.mark.parametrize("a, b", [(a, b) for a in (0.0, 10.0, 22.5, 33.3) for b in (0.0, 20.0, 22.5, 67.5, 120.0)])
def test_chsh_accepts_settings_near_t0_zero(capsys, a, b):
    beta2s = [repr(b + 45.0 + delta) for delta in np.logspace(-9, -2, 141).tolist()]
    if a == b == 0.0:
        beta2s += ["45.003", "45.001", "45.0001", "45.00001", "45.000001", "45.0000001"]
    for beta2 in beta2s:
        code, _ = run_cli(capsys, "chsh", repr(a), repr(a + 45.0), repr(b), beta2)
        assert code == 0, beta2


def test_canonical_json_formatting():
    text = canonical_json({"b": 0.1234567891234, "a": [1, True, None]})
    assert text == '{"a": [1, true, null], "b": 0.123456789}\n'
    with pytest.raises(TypeError, match="cannot serialize"):
        canonical_json(object())


@pytest.mark.parametrize("step", ["inf", "-inf", "nan", "0", "-3"])
@pytest.mark.parametrize("command", [
    ("quasiprob", "--scan"),
    ("chsh", "0", "45", "22.5", "-22.5", "--sweep"),
    ("t-spectrum", "0", "45", "22.5", "-22.5", "--sweep"),
])
def test_grid_steps_must_be_positive_and_finite(tmp_path, capsys, command, step):
    out = tmp_path / "grid.txt"
    # "--flag=value" so that argparse hands "-inf" to the type check
    code = main([*command[:-1], f"{command[-1]}={step}", "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "positive finite" in captured.err
    assert captured.out == ""
    assert not out.exists() and not (tmp_path / "grid.txt.manifest.json").exists()


def test_sweep_output_does_not_depend_on_the_typed_beta2(capsys):
    # The grid replaces beta2, which is still validated and recorded in manifests (ROADMAP item 11).
    outputs = {run_cli(capsys, "chsh", "--sweep", "30", "0", "45", "22.5", "--", b2) for b2 in ("-22.5", "77", "122.5")}
    assert len(outputs) == 1
    code, out = outputs.pop()
    assert code == 0 and out.count("\n") == 7


def test_sweep_with_every_point_degenerate_prints_header_only(capsys):
    # the one grid point, beta2 = 0, coincides with beta1 = 0
    code, out = run_cli(capsys, "chsh", "0", "45", "0", "10", "--sweep", "180")
    assert code == 0
    assert out == "alpha1,alpha2,beta1,beta2,e_qm,t0,t1,w_plus,w_minus\n"


@pytest.mark.parametrize("argv", [
    ("simulate", "0", "45", "22.5", "-22.5", "--n", "10", "--seed", "1"),
    ("fine", "0", "45", "22.5", "-22.5"),
    ("quasiprob", "0", "60", "30"),
], ids=lambda argv: argv[0])
def test_json_only_commands_reject_csv(tmp_path, capsys, argv):
    # A command that prints no table has no --format, so no value of it is legal.
    out = tmp_path / "out.txt"
    for value in ("csv", "json"):
        assert main([*argv, "--format", value, "--out", str(out)]) == 2
        assert f"unrecognized arguments: --format {value}" in capsys.readouterr().err
    assert not out.exists() and not (tmp_path / "out.txt.manifest.json").exists()


def test_simulate_has_no_shards_option(capsys):
    assert main(["simulate", "0", "45", "22.5", "-22.5", "--n", "10", "--seed", "1", "--shards", "2"]) == 2
    assert "unrecognized arguments: --shards 2" in capsys.readouterr().err


def test_readme_synopsis_parses():
    # Every "bellcheck ..." line of the README's subcommand synopsis, bracketed options included.
    readme = (pathlib.Path(SRC).parent / "README.md").read_text(encoding="utf-8")
    synopsis = readme.split("Subcommands:\n\n```\n", 1)[1].split("```", 1)[0]
    lines = [line.split("#")[0].replace("[", " ").replace("]", " ").split() for line in synopsis.splitlines()]
    assert len(lines) >= 10 and all(argv[0] == "bellcheck" for argv in lines)
    for argv in lines:
        try:
            _parser().parse_args(argv[1:])
        except SystemExit:
            pytest.fail(f"README synopsis does not parse: {' '.join(argv)}")


def test_no_eigensolver_bit_reaches_stdout(capsys, monkeypatch):
    chsh_module = sys.modules["bellcheck.chsh_operator"]  # the package's chsh_operator is the function
    argvs = [
        ("chsh", "0", "45", "22.5", "-22.5"),
        ("chsh", "0", "45", "22.5", "-22.5", "--format", "csv"),
        ("chsh", "10", "55", "20", "0", "--sweep", "5"),
    ]
    want = [run_cli(capsys, *argv) for argv in argvs]
    solve, calls = chsh_module._eig_array, []  # the shared route of every stack, one-point stacks included

    def nudged(*args, **kwargs):
        # Every eigenvalue 1e-12 away from zero, well inside each 1e-9 spectrum check.
        evals, evecs = solve(*args, **kwargs)
        calls.append(evals.shape)
        return evals + np.copysign(1e-12, evals), evecs

    monkeypatch.setattr(chsh_module, "_eig_array", nudged)
    assert [run_cli(capsys, *argv) for argv in argvs] == want
    assert len(calls) == len(argvs)


@pytest.mark.parametrize(
    "argv", [("correlate", "nan", "0"), ("correlate", "0", "inf"), ("quasiprob", "0", "nan", "30")]
)
def test_non_finite_angles_exit_2(tmp_path, capsys, argv):
    out = tmp_path / "out.json"
    assert main([*argv, "--out", str(out)]) == 2
    assert "angle must be finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-directory", "existing-directory"])
def test_unwritable_out_path_exits_2(tmp_path, capsys, target):
    code = main(["correlate", "0", "22.5", "--out", str(tmp_path / target)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


# A 1e-15 degree step asks for 1.8e17 grid points (1.25 EiB), more than the
# address space, so the allocation fails at once whatever the overcommit policy.
@pytest.mark.parametrize("argv", [
    ("chsh", "0", "45", "22.5", "-22.5", "--sweep", "1e-15"),
    ("quasiprob", "--scan", "1e-15"),
], ids=lambda argv: argv[0])
def test_grid_too_fine_to_allocate_exits_2(capsys, argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
    assert captured.out == ""


# The closed forms take angle differences, which lose digits when taken
# of raw radians at these magnitudes (exit 3, "numeric t0 vs closed form");
# degrees are reduced mod 180 before they become radians.
@pytest.mark.parametrize("angles", [
    ("3e8", "45", "22.5", "-22.5"),
    ("1e9", "45", "22.5", "-22.5"),
    ("1e12", "45", "22.5", "-22.5"),
    ("1e300", "45", "22.5", "-22.5"),
    ("0", "45", "22.5", "1e15"),
], ids=lambda angles: "-".join(angles))
def test_chsh_accepts_angles_of_large_magnitude(capsys, angles):
    code, _ = run_cli(capsys, "chsh", *angles)
    assert code == 0


# A polarizer setting has period 180 degrees, so theta and theta + 180k are
# the same settings; k takes theta's sign, which makes math.fmod give theta
# back exactly, and theta + 180k is exact in float64.  The first pair turns
# every angle; the other two are correlate's 1e15 ~ 100 and 1e300 ~ 0.
_TURNS = [
    (("10", "55", "22.5", "-22.5"), ("370", "197912092999735", "562.5", "-1282.5")),  # k = 2, 2**40, 3, -7
    (("100", "0", "22.5", "-22.5"), ("1e15", "0", "22.5", "-22.5")),
    (("0", "22.5", "45", "-22.5"), ("1e300", "22.5", "45", "-22.5")),
]
_FOUR_ECHOED = ("alpha1_deg", "alpha2_deg", "beta1_deg", "beta2_deg")

# name -> (command, number of angles it takes, trailing flags, fields that echo the typed degrees)
_ANGLE_COMMANDS = {
    "correlate": ("correlate", 2, (), ("alpha_deg", "beta_deg")),
    "correlate-csv": ("correlate", 2, ("--format", "csv"), ("alpha_deg", "beta_deg")),
    "quasiprob": ("quasiprob", 3, (), ("alpha_deg", "alpha_prime_deg", "beta_deg")),
    "chsh": ("chsh", 4, (), ("alpha1", "alpha2", "beta1", "beta2")),
    "chsh-csv": ("chsh", 4, ("--format", "csv"), ("alpha1", "alpha2", "beta1", "beta2")),
    "chsh-sweep": ("chsh", 4, ("--sweep", "15"), ("alpha1", "alpha2", "beta1")),
    "chsh-sweep-csv": ("chsh", 4, ("--sweep", "15", "--format", "csv"), ("alpha1", "alpha2", "beta1")),
    "fine": ("fine", 4, (), _FOUR_ECHOED),
    "simulate": ("simulate", 4, ("--n", "2000", "--seed", "7"), _FOUR_ECHOED),
}


def _without_echo(out, echoed):
    """The fields of a JSON or CSV output, with the echoed ones left out."""
    if out.startswith("{"):
        def strip(value):
            if isinstance(value, dict):
                return {k: strip(v) for k, v in value.items() if k not in echoed}
            return [strip(v) for v in value] if isinstance(value, list) else value
        return strip(json.loads(out))
    rows = [line.split(",") for line in out.splitlines()]
    keep = [i for i, name in enumerate(rows[0]) if name not in echoed]
    return [[row[i] for i in keep] for row in rows]


@pytest.mark.parametrize("turn", _TURNS, ids=["mixed-k", "1e15", "1e300"])
@pytest.mark.parametrize("name", list(_ANGLE_COMMANDS))
def test_every_angle_command_reads_settings_mod_180(capsys, name, turn):
    command, count, flags, echoed = _ANGLE_COMMANDS[name]
    outputs = []
    for angles in turn:
        code, out = run_cli(capsys, command, *angles[:count], *flags)
        assert code == 0
        outputs.append(out)
    assert outputs[0] != outputs[1]
    assert _without_echo(outputs[0], echoed) == _without_echo(outputs[1], echoed)


def test_manifest_of_a_large_angle_replays(tmp_path, capsys):
    out = tmp_path / "correlate.json"
    assert main(["correlate", "1e15", "0", "--out", str(out)]) == 0
    manifest_path = tmp_path / "correlate.json.manifest.json"
    manifest = json.loads(manifest_path.read_text())
    assert manifest["parameters"]["alpha_deg"] == 1e15
    assert replay(str(manifest_path), str(tmp_path / "again.json")) == manifest["sha256"]
    assert (tmp_path / "again.json").read_bytes() == out.read_bytes()
    assert json.loads(out.read_text())["correlation"] == run_json(capsys, "correlate", "100", "0")["correlation"]


@pytest.mark.parametrize("argv, code", [(("correlate", "0", "22.5"), 0), (("correlate", "abc", "0"), 2)])
def test_module_entry_point_exits_with_mains_code_and_output(capsys, argv, code):
    result = subprocess.run([sys.executable, "-m", "bellcheck.cli", *argv], capture_output=True, text=True, env=SRC_ENV)
    assert (result.returncode, result.stdout) == run_cli(capsys, *argv)
    assert result.returncode == code


def test_importing_the_cli_does_not_load_numpy_random():
    probe = "import sys, bellcheck.cli; print('numpy.random' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True, env=SRC_ENV, check=True)
    assert result.stdout == "False\n"
