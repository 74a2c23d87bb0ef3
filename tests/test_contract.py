"""The whole-domain input contract, generated from the exported API.

Every float-annotated parameter of every function in ``bellcheck.__all__``,
and every field of ``AngleConfig``, gets NaN, +inf and -inf in turn, with
the other arguments held at legal values.  Bad input must raise
ValueError: an InternalCheckError would mean a bug, and a result
computed from a non-finite input is never right.  A new export is covered
as soon as it is added to ``__all__``.
"""

import dataclasses
import inspect
import math

import numpy as np
import pytest

import bellcheck
from bellcheck import AngleConfig

BAD = (math.nan, math.inf, -math.inf)

# Legal values for every parameter the walk may meet.  The floats are
# distinct settings mod pi and valid correlations, so a substituted value
# is the only thing wrong with a call.
FLOATS = (0.1, 0.7, 0.4, -0.5)
FILLERS = {
    "state": bellcheck.singlet_state(),
    "rng": lambda: np.random.default_rng(0),
    "a": np.eye(2),
    "cfg": AngleConfig(*FLOATS),
    "grid_step": math.radians(30.0),
}

# Non-finite values the documentation admits, each of which must give a
# result free of NaN.
LEGAL = {
    ("find_negativity", "threshold", math.inf),
    ("find_negativity", "threshold", -math.inf),
    ("eig_hermitian", "tol", math.inf),
}


def _takes_float(parameter):
    return "float" in str(parameter.annotation).split(" | ")


SIGNATURES = {
    name: inspect.signature(getattr(bellcheck, name)).parameters.values()
    for name in bellcheck.__all__
    if inspect.isfunction(getattr(bellcheck, name))
}
CASES = [
    (name, param.name, bad)
    for name, params in SIGNATURES.items()
    for param in params
    if _takes_float(param)
    for bad in BAD
]
FLOAT_TAKING = sorted({name for name, _, _ in CASES})


def _legal_arguments(name):
    floats = iter(FLOATS)
    args = {}
    for param in SIGNATURES[name]:
        if param.name in FILLERS:
            filler = FILLERS[param.name]
            args[param.name] = filler() if callable(filler) else filler
        elif _takes_float(param):
            args[param.name] = next(floats)
        elif param.default is inspect.Parameter.empty:
            raise LookupError(f"no legal value for parameter {param.name!r} of {name}")
    return args


def _has_nan(result):
    if isinstance(result, tuple):
        return any(_has_nan(part) for part in result)
    if isinstance(result, np.recarray):
        return any(np.isnan(result[field]).any() for field in result.dtype.names)
    return bool(np.isnan(result).any())


def test_the_walk_reaches_the_stacked_and_tolerance_taking_exports():
    assert {"chsh_expectations", "chsh_spectra", "eig_hermitian", "find_negativity", "sample_pair"} <= set(FLOAT_TAKING)


@pytest.mark.parametrize("name", FLOAT_TAKING)
def test_legal_arguments_are_accepted(name):
    getattr(bellcheck, name)(**_legal_arguments(name))


@pytest.mark.parametrize("name, parameter, bad", CASES, ids=str)
def test_non_finite_float_argument_raises_value_error(name, parameter, bad):
    fn = getattr(bellcheck, name)
    args = {**_legal_arguments(name), parameter: bad}
    if (name, parameter, bad) in LEGAL:
        assert not _has_nan(fn(**args))
    else:
        with pytest.raises(ValueError):
            fn(**args)


ANGLE_FIELDS = [field.name for field in dataclasses.fields(AngleConfig)]


@pytest.mark.parametrize("bad", BAD, ids=str)
@pytest.mark.parametrize("field", ANGLE_FIELDS)
def test_angle_config_rejects_non_finite_fields(field, bad):
    with pytest.raises(ValueError):
        AngleConfig(**{**dict(zip(ANGLE_FIELDS, FLOATS)), field: bad})
