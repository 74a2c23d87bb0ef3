"""Command-line interface.

Angles are degrees at this boundary and radians everywhere inside the
library.  Every setting a command reads goes through one conversion,
``polarization._setting_radians``, which reduces it mod 180 first; the
``--sweep`` and ``--scan`` grid steps are steps, not settings, and are
converted unreduced.  argparse reads a negative angle in exponent
notation as an option, so type it after ``--``: ``correlate -- -1e15 0``.

Every command prints to stdout by default; with ``--out`` it writes the
same bytes to a file and drops a ``<out>.manifest.json`` beside it
recording the command, all parameters (a float that 9 digits would round
as its repr), the package version and a sha256 of the output, so any
published number can be regenerated (see :func:`replay`).  Every
recorded parameter can change the output; solver rounding cannot, since
``chsh`` prints closed forms that the eigensolver only checks.

Serialization is deliberately rigid for reproducibility: JSON objects
have sorted keys, integers are printed exactly and floats with 9
significant digits (-0 as 0), and output is newline-terminated; CSV is
comma-separated with a header row and LF line endings.  Every
header-and-rows output -- the ``correlate`` CSV row, single and swept
``chsh``/``t-spectrum`` rows, both ``enumerate`` targets, and the
negative cells and scan witnesses of ``quasiprob`` -- is one columnar
:class:`Table`, written by one row template: comma-joined for CSV, an
object with sorted keys for JSON.  ``--format`` (``json`` or ``csv``)
exists only where a table prints: ``correlate``, ``chsh``/``t-spectrum``
and ``enumerate``; ``simulate``, ``fine`` and ``quasiprob`` print JSON.

Exit codes: 0 success, 2 usage or validation error (an ``--out`` path
that cannot be written and a grid too fine to allocate included), 3
internal cross-check failure.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import __version__
from .born import SINGLET, chsh_expectations, correlation, joint_pmf
from .chsh_operator import _closed_form_expectations, chsh_spectra
from .counterfactual import fine_feasibility, outcome_statistic, outcome_values, quantum_pair_marginals, sample_space
from .errors import InternalCheckError, check
from .polarization import AngleConfig, _setting_radians, same_setting
from .quasiprob import f_jkl, find_negativity
from .realworld import enumerate_total_sample_space, run_experiments, statistic_histogram

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INTERNAL = 3

TWO_SQRT_TWO = 2.0 * math.sqrt(2.0)


# ---------------------------------------------------------------------------
# canonical serialization

# The one cell format of every output: integers exactly, floats to 9
# significant digits.  Floats get + 0.0 first, which turns -0.0 into 0.0
# (JSON has no -0) and leaves every other float as it is.
_INT_CELL = "%d"
_FLOAT_CELL = "%.9g"


@dataclass(frozen=True)
class Table:
    """Named columns of equal length, written one row per line; a column is integer or float."""

    header: list[str]
    columns: list


def _rows(table: Table, keyed: bool) -> list[str]:
    """The rows of ``table`` as CSV lines, or (keyed) as JSON objects with sorted keys."""
    fields = []
    for name, column in zip(table.header, table.columns):
        column = np.asarray(column)
        if column.dtype.kind in "iu":
            fields.append((name, _INT_CELL, column.tolist()))
        else:
            fields.append((name, _FLOAT_CELL, (column + 0.0).tolist()))
    if keyed:
        fields.sort(key=lambda field: field[0])
        template = "{" + ", ".join(f"{json.dumps(name)}: {cell}" for name, cell, _ in fields) + "}"
    else:
        template = ",".join(cell for _, cell, _ in fields)
    return [template % row for row in zip(*(values for _, _, values in fields))]


def _json_fragment(value, exact: bool = False) -> str:
    """``value`` as canonical JSON; ``exact`` writes a float that 9 digits would round as its repr."""
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return _INT_CELL % value
    if isinstance(value, float):
        text = _FLOAT_CELL % (value + 0.0)
        return repr(value) if exact and float(text) != value else text
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = sorted(value.items())
        inner = ", ".join(f"{json.dumps(str(k))}: {_json_fragment(v, exact)}" for k, v in items)
        return "{" + inner + "}"
    if isinstance(value, Table):
        return "[" + ", ".join(_rows(value, keyed=True)) + "]"
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_json_fragment(v, exact) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(value) -> str:
    """Deterministic JSON text: sorted keys, 9-significant-digit floats; a Table is a list of row objects."""
    return _json_fragment(value) + "\n"


def canonical_csv(table: Table, footer: list[str] | None = None) -> str:
    """CSV text: the header line, one line per row, then any footer lines."""
    return "\n".join([",".join(table.header), *_rows(table, keyed=False), *(footer or [])]) + "\n"


# ---------------------------------------------------------------------------
# manifests

def _echo(args: argparse.Namespace, *flags: str) -> dict:
    """The command's positional arguments, then the named flags, as given: name -> value."""
    positionals = (dest for dest, option in _arguments(args.command) if option is None)
    return {name: getattr(args, name) for name in (*positionals, *flags)}


def _emit(text: str, args: argparse.Namespace) -> None:
    out = getattr(args, "out", None)
    if out is None:
        sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    Path(out).write_bytes(data)
    given = (dest for dest, option in _arguments(args.command) if option and getattr(args, dest) is not None)
    manifest = {
        "artifact_version": __version__,
        "command": args.command,
        "output": os.path.basename(out),
        "parameters": _echo(args, *given),
        "sha256": hashlib.sha256(data).hexdigest(),
    }
    Path(str(out) + ".manifest.json").write_text(_json_fragment(manifest, exact=True) + "\n", encoding="utf-8")


def replay(manifest_path: str, out_path: str) -> str:
    """Re-run the command recorded in a manifest, writing to ``out_path``.

    Returns the sha256 of the regenerated output; equal to the recorded
    checksum whenever the manifest and package version still match.  A
    manifest from another package version raises ValueError and is not run.
    """
    manifest = json.loads(Path(manifest_path).read_text(encoding="utf-8"))
    if manifest["artifact_version"] != __version__:
        raise ValueError(f"manifest is from bellcheck {manifest['artifact_version']}, this is {__version__}")
    command, params = manifest["command"], manifest["parameters"]
    options, positionals = [], []
    for dest, option in _arguments(command):
        if (value := params.get(dest)) is not None:
            if option:
                options.extend([option, str(value)])
            else:
                positionals.append(str(value))
    # Positionals go after "--", where argparse cannot mistake -1e+16 for an option.
    code = main([command, *options, "--out", out_path, "--", *positionals])
    if code != EXIT_OK:
        raise RuntimeError(f"replay of {command} exited with code {code}")
    return hashlib.sha256(Path(out_path).read_bytes()).hexdigest()


# ---------------------------------------------------------------------------
# commands: each returns its output text, and main emits it

def _config_from_args(args: argparse.Namespace) -> AngleConfig:
    return AngleConfig.from_degrees(args.alpha1_deg, args.alpha2_deg, args.beta1_deg, args.beta2_deg)


def cmd_correlate(args: argparse.Namespace) -> str:
    alpha, beta = _setting_radians(args.alpha_deg), _setting_radians(args.beta_deg)
    table = joint_pmf(SINGLET, alpha, beta)
    corr = correlation(alpha, beta)
    check("correlation vs closed form", abs(corr + math.cos(2.0 * (alpha - beta))), 1e-12)
    if (args.format or "json") == "json":
        return canonical_json({**_echo(args), "correlation": corr, "pmf": table.p})
    header = ["alpha_deg", "beta_deg", "correlation", "p_pp", "p_pm", "p_mp", "p_mm"]
    return canonical_csv(Table(header, [[args.alpha_deg], [args.beta_deg], [corr], *table.p.reshape(4, 1)]))


def _spectrum_table(args: argparse.Namespace, cfg: AngleConfig, beta2_deg: np.ndarray, beta2: np.ndarray) -> Table:
    """One row per beta2, in degrees to echo and radians to compute (replacing cfg's): echoed angles, e_qm, spectrum."""
    echoed = [np.full(beta2.shape, angle) for angle in (args.alpha1_deg, args.alpha2_deg, args.beta1_deg)]
    e_qm = chsh_expectations(cfg.alpha1, cfg.alpha2, cfg.beta1, beta2)
    closed_form = _closed_form_expectations(cfg.alpha1, cfg.alpha2, cfg.beta1, beta2)
    check("e_qm vs closed form", np.abs(e_qm - closed_form), 1e-12)
    spectra = chsh_spectra(cfg.alpha1, cfg.alpha2, cfg.beta1, beta2)
    return Table(
        ["alpha1", "alpha2", "beta1", "beta2", "e_qm", "t0", "t1", "w_plus", "w_minus"],
        [*echoed, beta2_deg, e_qm, spectra.t0, spectra.t1, spectra.w_plus, spectra.w_minus],
    )


def cmd_chsh(args: argparse.Namespace) -> str:
    cfg = _config_from_args(args)
    if args.sweep_deg is None:
        table = _spectrum_table(args, cfg, np.array([args.beta2_deg]), np.array([cfg.beta2]))
        # A single configuration prints as the JSON object of its one row.
        return canonical_csv(table) if args.format == "csv" else _rows(table, keyed=True)[0] + "\n"
    # Sweep iterates beta2 over [0, 180); points colliding with beta1
    # (mod 180) are skipped because the configuration is degenerate there.
    grid = np.arange(0.0, 180.0, args.sweep_deg)
    radians = np.radians(grid)
    keep = ~same_setting(radians, cfg.beta1)
    table = _spectrum_table(args, cfg, grid[keep], radians[keep])
    return canonical_json({"rows": table}) if args.format == "json" else canonical_csv(table)


def cmd_simulate(args: argparse.Namespace) -> str:
    cfg = _config_from_args(args)
    per_experiment, combined = run_experiments(cfg, args.n, args.seed)
    payload = {
        **_echo(args, "n", "seed"),
        "e_rw": vars(combined),
        "flags": {
            "exceeds_2": abs(combined.mean) > 2.0,
            "exceeds_2sqrt2": abs(combined.mean) > TWO_SQRT_TWO,
            "exceeds_4": abs(combined.mean) > 4.0,
        },
    }
    for idx, est in enumerate(per_experiment, start=1):
        payload[f"c{idx}"] = vars(est)
    return canonical_json(payload)


def cmd_enumerate(args: argparse.Namespace) -> str:
    if args.target == "realworld":
        records = enumerate_total_sample_space()
        cells = [[v for o in r.outcomes for v in (o.x, o.y)] + [r.statistic] for r in records]
        table = Table(["x1", "y1", "x2", "y2", "x3", "y3", "x4", "y4", "statistic"], np.array(cells).T)
        hist = statistic_histogram(records)
        footer = ["# statistic histogram: " + ",".join(f"{k}:{v}" for k, v in hist.items())]
        payload = {"histogram": {str(k): v for k, v in hist.items()}, "rows": table}
    else:  # "counterfactual", the only other target argparse admits
        cells = [(w.k, w.l, w.m, w.n, *outcome_values(w), outcome_statistic(w)) for w in sample_space()]
        table = Table(["k", "l", "m", "n", "a1", "a2", "b1", "b2", "statistic"], np.array(cells).T)
        footer, payload = None, {"rows": table}
    return canonical_json(payload) if args.format == "json" else canonical_csv(table, footer)


def cmd_fine(args: argparse.Namespace) -> str:
    cfg = _config_from_args(args)
    result = fine_feasibility(quantum_pair_marginals(cfg))
    payload = {
        **_echo(args),
        "chsh_variants": result.chsh_value,
        "feasible": result.feasible,
        "marginal_residual": result.marginal_residual,
        # Witness probabilities flattened over (k, l, m, n), row-major.
        "witness": None if result.witness is None else result.witness.probabilities.reshape(-1),
    }
    return canonical_json(payload)


def cmd_quasiprob(args: argparse.Namespace) -> str:
    given = [a for a in (args.alpha_deg, args.alpha_prime_deg, args.beta_deg) if a is not None]
    if len(given) not in (0, 3):
        raise ValueError("quasiprob needs all three angles: alpha, alpha', beta")
    point_mode = len(given) == 3
    if point_mode == (args.scan_deg is not None):
        raise ValueError("give either three angles or --scan <step_deg>")
    if point_mode:
        alpha, alpha_prime, beta = map(_setting_radians, given)
        values = f_jkl(alpha, alpha_prime, beta).values
        pair = joint_pmf(SINGLET, alpha, beta).p
        pair_prime = joint_pmf(SINGLET, alpha_prime, beta).p
        negative = values < -1e-12
        j, k, l = np.nonzero(negative)
        payload = {
            **_echo(args),
            "f": values,
            "residuals": {
                "marginal_alpha": float(np.max(np.abs(values.sum(axis=1) - pair))),
                "marginal_alpha_prime": float(np.max(np.abs(values.sum(axis=0) - pair_prime))),
                "total": abs(float(values.sum()) - 1.0),
            },
            "negative_cells": Table(["j", "k", "l", "value"], [j + 1, k + 1, l + 1, values[negative]]),
        }
    else:
        w = find_negativity(math.radians(args.scan_deg))
        payload = {
            "scan_step_deg": args.scan_deg,
            "witnesses": Table(
                ["alpha_deg", "alpha_prime_deg", "beta_deg", "j", "k", "l", "value"],
                [np.degrees(w.alpha), np.degrees(w.alpha_prime), np.degrees(w.beta), w.j, w.k, w.l, w.value],
            ),
        }
    return canonical_json(payload)


# ---------------------------------------------------------------------------
# parser

def _grid_step(text: str) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"step must be a positive finite number of degrees, got {text!r}")
    return value


def _seed(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must fit in an unsigned 64-bit integer")
    return value


@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellcheck",
        description="Exact and Monte Carlo checks for CHSH experiment statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output(sp: argparse.ArgumentParser, table: bool = False) -> None:
        """Add --out, and --format for a command that prints a table."""
        sp.add_argument("--out", help="write output to this path, with a .manifest.json beside it")
        if table:
            sp.add_argument("--format", choices=("json", "csv"), default=None)

    def add_angles4(sp: argparse.ArgumentParser) -> None:
        sp.add_argument("alpha1_deg", type=float, help="Alice setting 1, degrees")
        sp.add_argument("alpha2_deg", type=float, help="Alice setting 2, degrees")
        sp.add_argument("beta1_deg", type=float, help="Bob setting 1, degrees")
        sp.add_argument("beta2_deg", type=float, help="Bob setting 2, degrees")

    sp = sub.add_parser("correlate", help="singlet pair correlation and outcome table")
    sp.add_argument("alpha_deg", type=float)
    sp.add_argument("beta_deg", type=float)
    add_output(sp, table=True)
    sp.set_defaults(func=cmd_correlate)

    # argparse sets args.command to the name typed, so manifests record "t-spectrum" as given.
    sp = sub.add_parser("chsh", aliases=["t-spectrum"], help="CHSH expectation and operator spectrum")
    add_angles4(sp)
    sp.add_argument(
        "--sweep", dest="sweep_deg", type=_grid_step, default=None,
        help="sweep beta2 over [0, 180) with this step in degrees",
    )
    add_output(sp, table=True)
    sp.set_defaults(func=cmd_chsh)

    sp = sub.add_parser("simulate", help="Monte Carlo run of the four experiments")
    add_angles4(sp)
    sp.add_argument("--n", type=int, required=True, help="pairs per experiment")
    sp.add_argument("--seed", type=_seed, required=True, help="master seed (required: no wall-clock seeding)")
    add_output(sp)
    sp.set_defaults(func=cmd_simulate)

    sp = sub.add_parser("enumerate", help="exhaustive sample-space tables")
    sp.add_argument("target", choices=("realworld", "counterfactual"))
    add_output(sp, table=True)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("fine", help="joint-distribution feasibility of the four quantum pair tables")
    add_angles4(sp)
    add_output(sp)
    sp.set_defaults(func=cmd_fine)

    sp = sub.add_parser("quasiprob", help="quasi-probability table or negativity scan")
    sp.add_argument("alpha_deg", type=float, nargs="?", default=None)
    sp.add_argument("alpha_prime_deg", type=float, nargs="?", default=None)
    sp.add_argument("beta_deg", type=float, nargs="?", default=None)
    sp.add_argument("--scan", dest="scan_deg", type=_grid_step, default=None, help="grid step in degrees")
    add_output(sp)
    sp.set_defaults(func=cmd_quasiprob)
    return parser


@functools.cache
def _arguments(command: str) -> tuple[tuple[str, str | None], ...]:
    """(dest, option string or None for a positional) of each argument of ``command`` but --help and --out.

    Read from the parser's own actions, aliases included: the one list that _echo, manifests and replay use.
    """
    (sub,) = (action for action in _parser()._actions if isinstance(action, argparse._SubParsersAction))
    actions = [action for action in sub.choices[command]._actions if action.dest not in ("help", "out")]
    return tuple((action.dest, (action.option_strings or [None])[0]) for action in actions)


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        _emit(args.func(args), args)
        return EXIT_OK
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalCheckError as exc:
        print(f"internal check failed: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
