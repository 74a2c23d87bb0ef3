"""Output checks for the benchmark, by routes independent of bellcheck.

Each checker recomputes what the output must be from closed forms in
plain numpy -- never by calling bellcheck -- and returns a list of
problems, empty when the output is correct.  Checks run outside the
timed region; an operation with any problem counts as failed.
"""

from __future__ import annotations

import itertools
import json
import math

import numpy as np

# Monte Carlo means must lie within this many standard errors.
SIGMAS = 6.0
# Closed forms against 9-significant-digit CLI output.
PRINTED_RTOL = 1e-8
# Closed forms against full-precision values from the library.
EXACT_TOL = 1e-9
# Fine verdicts are only checked outside this band around CHSH = 2.
FINE_BAND = 1e-7

# Rotated polarizer ports: +1 along phi, -1 along phi + 90 degrees.
_PORTS = np.array([0.0, math.pi / 2.0])


def _printed_close(got: float, want: float) -> bool:
    return abs(got - want) <= PRINTED_RTOL * max(1.0, abs(want))


def mc_problem(label: str, mean: float, want: float, draw_var: float, draw_step: float, n: int) -> list[str]:
    """Check a Monte Carlo mean against its closed form.

    ``draw_var`` is the closed-form variance of one draw and ``draw_step``
    the change in the sum when one draw flips.  The tolerance is SIGMAS
    standard errors plus SIGMAS flips, so a cell so rare that a handful of
    hits is a many-sigma event cannot fail a correct sampler.
    """
    tol = SIGMAS * math.sqrt(max(draw_var, 0.0) / n) + SIGMAS * draw_step / n
    if not abs(mean - want) <= tol:
        return [f"{label} = {mean!r} is {abs(mean - want):.3g} from {want!r}, over {tol:.3g}"]
    return []


def pair_correlations(a1: float, a2: float, b1: float, b2: float) -> list[float]:
    """Singlet correlations -cos 2(a - b) of E1..E4, angles in radians."""
    return [-math.cos(2.0 * (a - b)) for a, b in ((a1, b1), (a1, b2), (a2, b1), (a2, b2))]


def chsh_closed_form(a1: float, a2: float, b1: float, b2: float) -> float:
    c = pair_correlations(a1, a2, b1, b2)
    return c[0] + c[1] + c[2] - c[3]


def atom_closed_form(a1: float, a2: float, b1: float, b2: float) -> float:
    """t0 = 2 sqrt(1 - sin 2(a1 - a2) sin 2(b1 - b2))."""
    return 2.0 * math.sqrt(max(1.0 - math.sin(2.0 * (a1 - a2)) * math.sin(2.0 * (b1 - b2)), 0.0))


def check_simulate(text: str, angles_deg: tuple[str, ...], n: int, seed: int) -> list[str]:
    """`simulate` JSON: every mean within SIGMAS standard errors of its closed form."""
    try:
        out = json.loads(text)
        if out["n"] != n or out["seed"] != seed:
            return [f"output echoes n={out['n']} seed={out['seed']}, expected n={n} seed={seed}"]
        c = pair_correlations(*(math.radians(float(a)) for a in angles_deg))
        problems = []
        for idx, ci in enumerate(c, start=1):
            problems += mc_problem(f"c{idx}.mean", out[f"c{idx}"]["mean"], ci, 1.0 - ci * ci, 2.0, n)
        e_var = sum(1.0 - ci * ci for ci in c)
        problems += mc_problem("e_rw.mean", out["e_rw"]["mean"], c[0] + c[1] + c[2] - c[3], e_var, 2.0, n)
        return problems
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed simulate output: {exc!r}"]


def quasiprob_cells(step_deg: float) -> np.ndarray:
    """F[alpha, alpha', beta, j, k, l] over the scan grid, from its closed form.

    With the singlet and real rotated bases each bracket is a sine or a
    cosine of an angle difference:
    F = 1/2 sin(b_l - a_j) cos(a'_k - a_j) sin(b_l - a'_k).
    """
    grid = np.arange(0.0, np.pi, math.radians(step_deg))
    g = grid[:, None] + _PORTS[None, :]  # (angle, port)
    a = g[:, None, None, :, None, None]
    ap = g[None, :, None, None, :, None]
    b = g[None, None, :, None, None, :]
    return 0.5 * np.sin(b - a) * np.cos(ap - a) * np.sin(b - ap)


def scan_oracle(step_deg: float, threshold: float = -1e-12) -> np.ndarray:
    """Sorted values of every negative cell on the grid."""
    cells = quasiprob_cells(step_deg)
    return np.sort(cells[cells < threshold])


def check_scan(text: str, step_deg: float, expected: np.ndarray) -> list[str]:
    """`quasiprob --scan` JSON: same witnesses, values and order as the oracle."""
    try:
        out = json.loads(text)
        if float(out["scan_step_deg"]) != step_deg:
            return [f"scan_step_deg {out['scan_step_deg']} != {step_deg}"]
        values = np.array([w["value"] for w in out["witnesses"]], dtype=float)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed scan output: {exc!r}"]
    if values.size != expected.size:
        return [f"{values.size} witnesses, oracle finds {expected.size}"]
    if values.size == 0:
        return []
    problems = []
    if abs(values[0] - expected[0]) > PRINTED_RTOL * abs(expected[0]):
        problems.append(f"minimum witness {values[0]!r}, oracle {expected[0]!r}")
    if np.any(np.diff(values) < 0.0):
        problems.append("witnesses are not sorted by value")
    worst = float(np.max(np.abs(values - expected) / np.maximum(np.abs(expected), 1.0)))
    if worst > PRINTED_RTOL:
        problems.append(f"witness values differ from the oracle by {worst:.3g}")
    return problems


def sweep_grid(beta1_deg: float, step_deg: float) -> np.ndarray:
    """beta2 values of a sweep: [0, 180) in steps, minus beta1's own setting."""
    grid = np.arange(0.0, 180.0, step_deg)
    d = np.abs(np.radians(grid) % np.pi - math.radians(beta1_deg) % np.pi)
    return grid[np.minimum(d, np.pi - d) > 1e-12]


def check_sweep(text: str, angles_deg: tuple[str, ...], step_deg: float) -> list[str]:
    """`chsh --sweep` CSV: each row's e_qm and t0 match closed forms, weights sum to 1."""
    a1, a2, b1, _ = (float(a) for a in angles_deg)
    lines = text.splitlines()
    if not lines or lines[0] != "alpha1,alpha2,beta1,beta2,e_qm,t0,t1,w_plus,w_minus":
        return ["sweep output lacks the expected CSV header"]
    try:
        rows = np.array([[float(x) for x in line.split(",")] for line in lines[1:]], dtype=float)
    except ValueError as exc:
        return [f"malformed sweep row: {exc}"]
    grid = sweep_grid(b1, step_deg)
    if rows.shape != (grid.size, 9):
        return [f"sweep has shape {rows.shape}, expected {(grid.size, 9)}"]
    problems = []
    if np.any(rows[:, :3] != (a1, a2, b1)) or np.any(rows[:, 3] != grid):
        problems.append("sweep rows do not echo the requested angles")
    ra1, ra2, rb1 = (math.radians(v) for v in (a1, a2, b1))
    for row in rows:
        rb2 = math.radians(row[3])
        if not _printed_close(row[4], chsh_closed_form(ra1, ra2, rb1, rb2)):
            problems.append(f"beta2={row[3]}: e_qm {row[4]!r} misses the four-cosine form")
        if not _printed_close(row[5], atom_closed_form(ra1, ra2, rb1, rb2)):
            problems.append(f"beta2={row[3]}: t0 {row[5]!r} misses the closed form")
        if abs(row[7] + row[8] - 1.0) > 2.0 * PRINTED_RTOL:
            problems.append(f"beta2={row[3]}: w_plus + w_minus = {row[7] + row[8]!r}")
    return problems


def max_chsh_variant(c: list[float]) -> float:
    """Largest |sum s_i c_i| over the eight sign patterns with an odd number of minuses."""
    return max(
        abs(sum(s * ci for s, ci in zip(signs, c)))
        for signs in itertools.product((1.0, -1.0), repeat=4)
        if math.prod(signs) < 0.0
    )


def check_config(record: dict) -> list[str]:
    """One config_batch operation: every quantity against its closed form."""
    if "error" in record:
        return [f"operation raised {record['error']}"]
    try:
        a1, a2, b1, b2 = record["angles"]
        c = pair_correlations(a1, a2, b1, b2)
        e = c[0] + c[1] + c[2] - c[3]
        t0 = atom_closed_form(a1, a2, b1, b2)
        n = record["mc_n"]
        problems = []
        chsh = max_chsh_variant(c)
        if abs(chsh - 2.0) > FINE_BAND and record["feasible"] != (chsh <= 2.0):
            problems.append(f"Fine verdict {record['feasible']} but max CHSH variant is {chsh!r}")
        if abs(record["t0"] - t0) > EXACT_TOL:
            problems.append(f"t0 {record['t0']!r} misses the closed form {t0!r}")
        if abs(record["tensor_e"] - e) > EXACT_TOL:
            problems.append(f"tensor route E {record['tensor_e']!r} misses the four-cosine form {e!r}")
        for idx, (got, ci) in enumerate(zip(record["c"], c), start=1):
            problems += mc_problem(f"c{idx}.mean", got, ci, 1.0 - ci * ci, 2.0, n)
        problems += mc_problem("e_rw.mean", record["e_rw"], e, sum(1.0 - ci * ci for ci in c), 2.0, n)
        problems += mc_problem("outcome mean", record["outcome_mean"], e, t0 * t0 - e * e, 2.0 * t0, n)
        ports1, ports2 = a1 + _PORTS, a2 + _PORTS
        f_jk = 0.5 * np.cos(ports2[None, :] - ports1[:, None]) ** 2
        if np.max(np.abs(np.array(record["f_jk"]).reshape(2, 2) - f_jk)) > EXACT_TOL:
            problems.append("f_jk misses 1/2 cos^2 of the port angle differences")
        q = -math.cos(2.0 * (a1 - b1)) - math.cos(2.0 * (a2 - b1))
        if abs(record["q"] - q) > EXACT_TOL:
            problems.append(f"q_value {record['q']!r} misses the closed form {q!r}")
        return problems
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed config record: {exc!r}"]
