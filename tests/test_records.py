"""The package's records: frozen __slots__ classes on numerics.Record.

For each record: construction by position and by keyword, each default (a
new container in each record where the default is one), no assignment or
deletion of a field, equality and hash over the fields, the repr text of
the dataclasses they replaced, and copy and pickle round trips.  A fresh
interpreter that imports bivlmp.cli loads no dataclasses module and builds
no inspect.Signature of a package function.
"""

import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from bivlmp.core import CoreParams
from bivlmp.dependence import KendallCurve, TailReport
from bivlmp.errors import ValidationError
from bivlmp.generators import AgingProfile, Generator, MixingLaw, make_generator
from bivlmp.model import Mo15Params, Model
from bivlmp.numerics import Interval, LimitEstimate, QuadratureResult, Record
from bivlmp.pricing import PricingQuote
from bivlmp.sampler import SampleBatch
from test_cli import _fresh

CORE = (1.0, 1.0, 1.0, 1.0, 0.25, 0.25, 0.0)
CORE_REPR = "CoreParams(lam=1.0, alpha=1.0, gamma1=1.0, gamma2=1.0, alpha1=0.25, alpha2=0.25, slack=0.0)"
GOMPERTZ = make_generator("gompertz", mu=2.0, xi=1.5)

# name -> (the record, the arguments of one, its repr as the dataclass wrote it)
RECORDS = {
    "Interval": (Interval, (0.0, 1.0, True, 0.5), "Interval(lo=0.0, hi=1.0, closed=True, hole=0.5)"),
    "QuadratureResult": (QuadratureResult, (1.5, 1e-12, 147),
                         "QuadratureResult(value=1.5, abs_error_estimate=1e-12, evaluations=147)"),
    "LimitEstimate": (LimitEstimate, (0.25, [0.3, 0.26, 0.25], True),
                      "LimitEstimate(value=0.25, sequence_tail=[0.3, 0.26, 0.25], converged=True)"),
    "CoreParams": (CoreParams, CORE, CORE_REPR),
    "KendallCurve": (KendallCurve, (1.0, ((0.5, 0.25), (1.0, 1.0)), "closed_form"),
                     "KendallCurve(t=1.0, grid=((0.5, 0.25), (1.0, 1.0)), source='closed_form')"),
    "TailReport": (TailReport, (1.0, "lower", 0.5, "lemma_power", {"beta": 2.0, "core_value": 0.5}, True),
                   "TailReport(t=1.0, which='lower', value=0.5, method='lemma_power', "
                   "classification={'beta': 2.0, 'core_value': 0.5}, converged=True)"),
    "MixingLaw": (MixingLaw, ("gamma", {"a": 2.0}), "MixingLaw(kind='gamma', params={'a': 2.0})"),
    "AgingProfile": (AgingProfile, ("NBU", "IFR", np.array([[0.0, -0.5]])),
                     "AgingProfile(nbu_nwu='NBU', ifr_dfr='IFR', margins=array([[ 0. , -0.5]]))"),
    "Model": (Model, (GOMPERTZ, CoreParams(*CORE), "gompertz"),
              "Model(generator=GompertzGenerator({'family': 'gompertz', 'params': {'mu': 2.0, 'xi': 1.5}}), "
              f"core={CORE_REPR}, label='gompertz')"),
    "Mo15Params": (Mo15Params, (1.0, 1.0, 1.0, 2.0, 1.5, 1.5),
                   "Mo15Params(lam=1.0, lam1=1.0, lam2=1.0, xi=2.0, xi1=1.5, xi2=1.5)"),
    "PricingQuote": (PricingQuote, (0.0, 27.2, 25.8, "left"),
                     "PricingQuote(t=0.0, premium_joint=27.2, premium_independent=25.8, model_label='left')"),
    "SampleBatch": (SampleBatch, (np.array([1.0, 2.0]), np.array([1.0, 3.0]), np.array([True, False]), 7, "core"),
                    "SampleBatch(x=array([1., 2.]), y=array([1., 3.]), atom=array([ True, False]), seed=7, "
                    "model_label='core')"),
}
# name -> {field: its default}, in field order; MixingLaw's params, which are required, are tested on their own
DEFAULTS = {
    "Interval": {"hi": math.inf, "closed": False, "hole": None},
    "CoreParams": {"slack": 1e-9},
    "TailReport": {"converged": True},
    "Model": {"label": ""},
    "PricingQuote": {"model_label": ""},
    "SampleBatch": {"model_label": ""},
}
# name -> (a field, another value of it): the record with it differs from the record of RECORDS
CHANGED = {
    "Interval": ("hole", 0.25),
    "QuadratureResult": ("evaluations", 148),
    "LimitEstimate": ("converged", False),
    "CoreParams": ("slack", 1e-9),
    "KendallCurve": ("source", "quadrature"),
    "TailReport": ("converged", False),
    "MixingLaw": ("params", {"a": 3.0}),
    "AgingProfile": ("nbu_nwu", "NWU"),
    "Model": ("label", "other"),
    "Mo15Params": ("xi2", 1.25),
    "PricingQuote": ("model_label", "right"),
    "SampleBatch": ("seed", 8),  # the arrays are the same objects, so the comparison reaches the seed
}
# records whose == needs the same objects, as with the dataclasses: a generator compares by identity, and
# an array of more than one element has no truth value
NOT_BY_VALUE = {"Model", "AgingProfile", "SampleBatch"}
UNHASHABLE = {"LimitEstimate", "TailReport", "MixingLaw", "AgingProfile", "SampleBatch"}  # a list, dict or array


def _record(name, **changes):
    cls, args, _ = RECORDS[name]
    return cls(**{**dict(zip(cls.__slots__, args)), **changes})


def _values(record) -> tuple:
    return tuple(getattr(record, name) for name in record.__slots__)


def _same(a, b) -> bool:
    """Field by field: an array by its dtype and values, a generator by its type and config, the rest by ==."""
    def same(x, y):
        if isinstance(x, np.ndarray):
            return x.dtype == y.dtype and np.array_equal(x, y)
        if isinstance(x, Generator):
            return type(x) is type(y) and x.describe() == y.describe()
        return x == y

    return type(a) is type(b) and all(same(x, y) for x, y in zip(_values(a), _values(b)))


def test_the_tables_cover_every_record():
    assert {cls for cls, _, _ in RECORDS.values()} == {
        Interval, QuadratureResult, LimitEstimate, CoreParams, KendallCurve, TailReport, MixingLaw, AgingProfile,
        Model, Mo15Params, PricingQuote, SampleBatch}
    assert set(CHANGED) == set(RECORDS)
    assert all(issubclass(cls, Record) and cls.__name__ == name for name, (cls, _, _) in RECORDS.items())


@pytest.mark.parametrize("name", RECORDS)
def test_construction_by_position_and_by_keyword(name):
    cls, args, _ = RECORDS[name]
    assert list(inspect.signature(cls).parameters) == list(cls.__slots__)
    by_position, by_keyword = cls(*args), _record(name)
    assert _same(by_position, by_keyword)
    assert _same(by_position, cls(*args[:1], **dict(zip(cls.__slots__[1:], args[1:]))))
    for value, arg in zip(_values(by_position), args):
        assert value is arg or type(value) is type(arg) and value == arg
    assert not hasattr(by_position, "__dict__")


@pytest.mark.parametrize("name", DEFAULTS)
def test_defaults(name):
    cls, args, _ = RECORDS[name]
    defaults = DEFAULTS[name]
    assert tuple(defaults) == cls.__slots__[-len(defaults):]
    required = args[:-len(defaults)]
    first, second = cls(*required), cls(*required)
    for field, default in defaults.items():
        value = getattr(first, field)
        assert type(value) is type(default) and value == default
        if isinstance(default, (list, dict)):  # a new container in each record
            assert getattr(second, field) is not value


def test_mixing_law_params_default_and_copy():
    with pytest.raises(TypeError, match=r"missing 1 required positional argument: 'params'$"):
        MixingLaw("gamma")
    with pytest.raises(ValidationError, match=r"^gamma mixing params missing field\(s\): a$"):
        MixingLaw("gamma", {})
    with pytest.raises(ValidationError, match=r"^gamma mixing params missing field\(s\): a$"):
        make_generator("mixing", law={"kind": "gamma"}, ratio=0.5)  # a config law without params
    with pytest.raises(ValidationError, match="must be a JSON object"):
        MixingLaw("gamma", None)
    params = {"a": 2}
    first, second = MixingLaw("gamma", params), MixingLaw("gamma", params)
    assert first.params == second.params == {"a": 2.0} and type(first.params["a"]) is float
    assert first.params is not params and first.params is not second.params


@pytest.mark.parametrize("name", RECORDS)
def test_a_field_can_be_neither_assigned_nor_deleted(name):
    record = _record(name)
    before = _values(record)
    for field in (*record.__slots__, "extra"):
        with pytest.raises(AttributeError, match=f"^cannot assign to field '{field}'$"):
            setattr(record, field, 1.0)
        with pytest.raises(AttributeError, match=f"^cannot delete field '{field}'$"):
            delattr(record, field)
    assert all(a is b for a, b in zip(_values(record), before))


@pytest.mark.parametrize("name", RECORDS)
def test_equality_and_hash(name):
    cls, args, _ = RECORDS[name]
    record, twin = cls(*args), cls(*args)
    field, value = CHANGED[name]
    assert record == twin and not record != twin
    assert record != _record(name, **{field: value})
    assert record.__eq__(_values(record)) is NotImplemented and record != _values(record)
    assert all(record != _record(other) for other in RECORDS if other != name)
    if name in UNHASHABLE:
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(twin) == hash(_values(record))


@pytest.mark.parametrize("name", RECORDS)
def test_repr_text(name):
    cls, args, text = RECORDS[name]
    assert repr(cls(*args)) == text


@pytest.mark.parametrize("name", RECORDS)
def test_copy_and_pickle_round_trip(name):
    record = _record(name)
    clones = [copy.copy(record), copy.deepcopy(record)]
    clones += [pickle.loads(pickle.dumps(record, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for clone in clones:
        assert _same(clone, record)
        if name not in NOT_BY_VALUE:
            assert clone == record


def test_importing_the_cli_loads_no_dataclasses_and_builds_no_signature():
    out = _fresh("""
import inspect
import sys

built = []
signature = inspect.signature


def counted(obj, *args, **kwargs):
    built.append(getattr(obj, "__module__", None))
    return signature(obj, *args, **kwargs)


inspect.signature = counted
import bivlmp.cli

print("dataclasses" in sys.modules, [m for m in built if str(m).startswith("bivlmp")])
""")
    assert out.split() == ["False", "[]"]
