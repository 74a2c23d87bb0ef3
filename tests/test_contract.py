"""The whole-domain input contract, generated from the exported API.

Every float-annotated parameter of every function in ``bellcheck.__all__``,
every field of ``AngleConfig`` and every float-annotated field of the
result records gets NaN, +inf and -inf in turn, with the other arguments
held at legal values.  Bad input must raise ValueError: an
InternalCheckError would mean a bug, and a result computed from a
non-finite input is never right.  ``__all__`` is derived from the
package's imports, so a new export is covered as soon as the package
imports it.  Inputs are validated once per call, at the public entry:
each public builder makes a pinned number of calls to the validating
helpers.
"""

import dataclasses
import importlib
import inspect
import math
import sys

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


def _takes_float(annotation):
    return "float" in str(annotation).split(" | ")


SIGNATURES = {
    name: inspect.signature(getattr(bellcheck, name)).parameters.values()
    for name in bellcheck.__all__
    if inspect.isfunction(getattr(bellcheck, name))
}
CASES = [
    (name, param.name, bad)
    for name, params in SIGNATURES.items()
    for param in params
    if _takes_float(param.annotation)
    for bad in BAD
]
FLOAT_TAKING = sorted({name for name, _, _ in CASES})


def _legal_arguments(name):
    floats = iter(FLOATS)
    args = {}
    for param in SIGNATURES[name]:
        if param.name in FILLERS:
            args[param.name] = FILLERS[param.name]
        elif _takes_float(param.annotation):
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


def test_all_lists_every_public_import_once():
    exported = bellcheck.__all__
    assert exported == sorted(set(exported))
    for name in exported:
        value = getattr(bellcheck, name)
        assert not name.startswith("_") and not inspect.ismodule(value), name
        assert value.__module__.startswith("bellcheck."), name
        assert getattr(sys.modules[value.__module__], value.__name__) is value, name
    bound = vars(bellcheck).items()
    assert set(exported) == {name for name, value in bound if not name.startswith("_") and not inspect.ismodule(value)}


def test_the_walk_reaches_the_stacked_and_tolerance_taking_exports():
    assert {"chsh_expectations", "chsh_spectra", "eig_hermitian", "find_negativity"} <= set(FLOAT_TAKING)


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


# Legal field values of each result record.
RECORDS = {
    bellcheck.ChshSpectrum: {"t0": 2.0, "t1": 2.0, "w_plus": 0.25, "eigenvalues": np.array([2.0, 2.0, -2.0, -2.0])},
    bellcheck.EstimatorResult: {"mean": -0.5, "stderr": 0.1, "n": 10},
    bellcheck.FeasibilityResult: {"witness": bellcheck.CfPmf.uniform(), "chsh_value": 0.0, "marginal_residual": 0.0},
    bellcheck.QuasiPmf2: {"values": np.full((2, 2), 0.25)},
    bellcheck.QuasiPmf3: {"values": np.full((2, 2, 2), 0.125)},
}
RECORD_CASES = [
    (record, field.name, bad)
    for record in RECORDS
    for field in dataclasses.fields(record)
    if _takes_float(field.type)
    for bad in BAD
]


def test_the_record_walk_reaches_every_float_field():
    assert {(record.__name__, name) for record, name, _ in RECORD_CASES} == {
        ("ChshSpectrum", "t0"), ("ChshSpectrum", "t1"), ("ChshSpectrum", "w_plus"),
        ("EstimatorResult", "mean"), ("EstimatorResult", "stderr"),
        ("FeasibilityResult", "chsh_value"), ("FeasibilityResult", "marginal_residual"),
    }


# Each record stores only facts that are independent of one another; what
# follows from them (feasible, w_minus, statistic) is a derived property.
STORED_FIELDS = {
    bellcheck.FeasibilityResult: ("witness", "chsh_value", "marginal_residual"),
    bellcheck.ChshSpectrum: ("t0", "t1", "w_plus", "eigenvalues"),
    bellcheck.RunRecord: ("outcomes",),
    bellcheck.QuasiPmf3: ("values",),
    bellcheck.QuasiPmf2: ("values",),
}


@pytest.mark.parametrize("record", list(STORED_FIELDS), ids=lambda record: record.__name__)
def test_records_store_each_fact_once(record):
    assert tuple(field.name for field in dataclasses.fields(record)) == STORED_FIELDS[record]


# The fields the records no longer store, each with a value it once held:
# a caller that still passes one gets a TypeError, never a copy stored
# beside the fact it repeats.
REMOVED_FIELDS = [
    (bellcheck.FeasibilityResult, "feasible", True),
    (bellcheck.ChshSpectrum, "w_minus", 0.75),
    (bellcheck.RunRecord, "statistic", 0),
    (bellcheck.QuasiPmf2, "alpha", 0.1),
    (bellcheck.QuasiPmf2, "alpha_prime", 0.7),
    (bellcheck.QuasiPmf3, "alpha", 0.1),
    (bellcheck.QuasiPmf3, "alpha_prime", 0.7),
    (bellcheck.QuasiPmf3, "beta", 0.4),
]


@pytest.mark.parametrize("record, field, value", REMOVED_FIELDS, ids=str)
def test_records_reject_a_removed_field(record, field, value):
    legal = RECORDS.get(record) or {"outcomes": bellcheck.enumerate_total_sample_space()[0].outcomes}
    record(**legal)
    with pytest.raises(TypeError):
        record(**legal, **{field: value})


@pytest.mark.parametrize("record", list(RECORDS), ids=lambda record: record.__name__)
def test_records_accept_legal_fields(record):
    record(**RECORDS[record])


@pytest.mark.parametrize("record, field, bad", RECORD_CASES, ids=str)
def test_records_reject_non_finite_float_fields(record, field, bad):
    with pytest.raises(ValueError):
        record(**{**RECORDS[record], field: bad})


@pytest.mark.parametrize("field", ["t0", "t1", "w_plus", "eigenvalues"])
def test_stacked_spectrum_rejects_one_nan_entry(field):
    legal = {name: np.array([value, value]) for name, value in RECORDS[bellcheck.ChshSpectrum].items()}
    legal["eigenvalues"] = np.stack([legal["eigenvalues"][0]] * 2)
    legal[field] = legal[field].copy()
    legal[field].flat[-1] = math.nan
    with pytest.raises(ValueError):
        bellcheck.ChshSpectrum(**legal)


# w_plus is the one stored weight, so its range check is all that keeps
# the derived w_minus = 1 - w_plus within [0, 1] as well.
@pytest.mark.parametrize("w_plus", [-0.5, 1.5])
@pytest.mark.parametrize("stacked", [False, True], ids=["scalar", "stacked"])
def test_spectrum_rejects_w_plus_outside_the_unit_interval(stacked, w_plus):
    fields = dict(RECORDS[bellcheck.ChshSpectrum], w_plus=w_plus)
    if stacked:
        fields = {name: np.stack([value, value]) for name, value in fields.items()}
        fields["w_plus"][0] = 0.25
    with pytest.raises(ValueError, match="w_plus"):
        bellcheck.ChshSpectrum(**fields)


# The helpers that validate their arguments, and the calls each public
# builder makes to them.  Settings are checked once, by AngleConfig, angles
# once, by one basis_matrix call, where they enter the Hilbert space, and
# tables by the record a caller hands them to; what the library builds
# from them is not checked again.  q_value's operator route converts its
# three angles on its own: it is the route the table route is checked
# against.
VALIDATING = ("as_operator", "basis_matrix", "_checked_table")
CFG = AngleConfig(*FLOATS)
FEASIBLE = AngleConfig.from_degrees(0.0, 45.0, 22.5, 112.5)


def _feasible_verdict():
    assert bellcheck.fine_feasibility(bellcheck.quantum_pair_marginals(FEASIBLE)).feasible


CALLS_PER_BUILDER = {
    "chsh_spectrum": ((1, 1, 0), lambda: bellcheck.chsh_spectrum(CFG)),
    "sample_outcomes": ((0, 1, 0), lambda: bellcheck.sample_outcomes(CFG, 10, 0)),
    "run_experiments": ((0, 1, 0), lambda: bellcheck.run_experiments(CFG, 1, 0)),
    "quantum_pair_marginals": ((0, 1, 0), lambda: bellcheck.quantum_pair_marginals(CFG)),
    "tensor_joint_pmf": ((0, 1, 0), lambda: bellcheck.tensor_joint_pmf(CFG)),
    "f_jkl": ((0, 1, 1), lambda: bellcheck.f_jkl(*FLOATS[:3])),
    "f_jk": ((0, 1, 1), lambda: bellcheck.f_jk(*FLOATS[:2])),
    "find_negativity": ((0, 1, 0), lambda: bellcheck.find_negativity(math.radians(30.0))),
    "q_value": ((0, 4, 0), lambda: bellcheck.q_value(*FLOATS[:3])),
    "fine_feasibility": ((0, 1, 1), _feasible_verdict),
}


def _count_validating_calls(monkeypatch, call):
    """Calls to each VALIDATING helper during ``call()``, through every module of the package that binds it."""
    originals = {
        "as_operator": importlib.import_module("bellcheck.linalg").as_operator,
        "basis_matrix": importlib.import_module("bellcheck.polarization").basis_matrix,
        "_checked_table": importlib.import_module("bellcheck.born")._checked_table,
    }
    counts = dict.fromkeys(VALIDATING, 0)

    def counting(name):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return originals[name](*args, **kwargs)

        return wrapper

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("bellcheck."):
            for name, original in originals.items():
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting(name))
    call()
    return counts


@pytest.mark.parametrize("builder", list(CALLS_PER_BUILDER))
def test_each_builder_validates_once(monkeypatch, builder):
    expected, call = CALLS_PER_BUILDER[builder]
    assert _count_validating_calls(monkeypatch, call) == dict(zip(VALIDATING, expected))


def test_derived_record_properties():
    scalar = bellcheck.chsh_spectrum(CFG)
    assert scalar.w_minus == 1.0 - scalar.w_plus and type(scalar.w_minus) is float
    stack = bellcheck.chsh_spectra(*np.array([FLOATS, [0.0, math.pi / 4, math.pi / 8, -math.pi / 8]]).T)
    assert np.array_equal(stack.w_minus, 1.0 - stack.w_plus)
    zero_d = bellcheck.chsh_spectra(*FLOATS)  # all-scalar input: every float field is one kind of value
    assert len({type(zero_d.t0), type(zero_d.t1), type(zero_d.w_plus)}) == 1 and np.ndim(zero_d.w_plus) == 0
    infeasible, feasible = (bellcheck.fine_feasibility(bellcheck.quantum_pair_marginals(cfg)) for cfg in (CFG, FEASIBLE))
    assert infeasible.witness is None and infeasible.feasible is False
    assert feasible.witness is not None and feasible.feasible is True
