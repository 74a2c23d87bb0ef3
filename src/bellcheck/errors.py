"""Exception types shared across the package, and the one cross-check helper."""

import numpy as np


class InternalCheckError(RuntimeError):
    """A redundant internal cross-check disagreed beyond tolerance.

    Raised when two independent computation routes for the same quantity
    (e.g. a factored probability table vs. the full Born rule, or Fine's
    verdict vs. its analytic criterion) do not match.  This always means
    a bug, never bad user input; the CLI maps it to exit code 3.
    """


def check(what: str, gap, tol: float) -> None:
    """Raise :class:`InternalCheckError` unless ``gap <= tol``.

    ``gap`` is a number or an array judged by its largest entry; an empty
    array passes.  A NaN gap fails, so a route that went NaN cannot slip
    through a comparison that is False for NaN.
    """
    worst = gap if isinstance(gap, float) else float(np.max(gap, initial=-np.inf))
    if not worst <= tol:
        raise InternalCheckError(f"{what}: gap {float(worst)!r} exceeds tol {tol!r}")
