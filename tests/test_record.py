"""Records against the standard library's data classes, and the written-out
Gauss-Legendre tables against numpy's."""

import dataclasses
import functools

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from ctqrw import _record, solvers, special
from ctqrw.config import ExperimentConfig
from ctqrw.kernels import EmpiricalWaiting, ExponentialKernel, FractionalKernel, MarkovianKernel
from ctqrw.models import Dephasing, Depolarizing, GaussianJumps, PointMassJumps, WignerWalkConfig


def _samples(frozen, mutable, field):
    """One class per option the library's records use, made by the given
    decorators and ``field``; both sets share their qualified names."""

    @frozen
    class Plain:
        a: float
        b: float
        c: float

    @frozen
    class Defaults:
        a: float
        b: object = None
        c: dict = field(default_factory=dict)
        d: object = field(default=None, repr=False)

    @frozen
    class Late:
        times: tuple
        total: float = field(init=False)
        cache: object = field(init=False, repr=False, compare=False)

        def __post_init__(self):
            object.__setattr__(self, "total", sum(self.times))
            object.__setattr__(self, "cache", object())

        @functools.cached_property
        def doubled(self):
            return 2 * self.total

    @frozen
    class Empty:
        pass

    @frozen
    class Arrays:
        values: np.ndarray

    @mutable
    class Mutable:
        kind: str
        seed: int | None = None
        items: list = field(default_factory=list)

    return {cls.__name__: cls for cls in (Plain, Defaults, Late, Empty, Arrays, Mutable)}


OURS = _samples(_record.record, _record.record(frozen=False), _record.Field)
ORACLE = _samples(dataclasses.dataclass(frozen=True), dataclasses.dataclass, dataclasses.field)

GOOD_CALLS = [
    ("Plain", (1.0, 2.0, 3.0), {}),
    ("Plain", (1.0,), {"c": 3.0, "b": 2.0}),
    ("Plain", (), {"b": 2.0, "a": 1.0, "c": 3.0}),
    ("Defaults", (1,), {}),
    ("Defaults", (1, 2, {"k": 3}, "d"), {}),
    ("Defaults", (), {"d": 4, "a": 1}),
    ("Late", ((1.0, 2.0),), {}),
    ("Empty", (), {}),
    ("Arrays", (np.arange(3.0),), {}),
    ("Mutable", ("figure1",), {}),
    ("Mutable", ("x",), {"items": [1]}),
]

# missing, unknown and duplicated arguments
BAD_CALLS = [
    ("Plain", (), {}),
    ("Plain", (1.0,), {}),
    ("Plain", (1.0, 2.0), {}),
    ("Plain", (1.0,), {"a": 2.0}),
    ("Plain", (1.0, 2.0, 3.0), {"d": 3.0}),
    ("Plain", (1.0, 2.0, 3.0), {"d": 3.0, "a": 1.0}),
    ("Defaults", (), {"b": 2}),
    ("Late", ((1.0,),), {"total": 1.0}),
    ("Late", (), {}),
    ("Mutable", (), {}),
]

# too many positional arguments: "takes at most n", not the "takes n" or
# "takes from m to n" of a Python signature
TOO_MANY = [("Plain", (1.0, 2.0, 3.0, 4.0)), ("Defaults", (1, 2, 3, 4, 5)), ("Empty", (1,))]


def _outcome(fn):
    """(result or exception type, exception message) of ``fn()``."""
    try:
        return fn(), None
    except Exception as exc:
        return type(exc), str(exc)


def _both(name, args, kwargs):
    return OURS[name](*args, **kwargs), ORACLE[name](*args, **kwargs)


def _assignment(obj, attr: str) -> list:
    """The AttributeError messages of setting, then deleting, `attr` (None
    where the step succeeds)."""
    out = []
    for step in (lambda: setattr(obj, attr, (3,)), lambda: delattr(obj, attr)):
        try:
            step()
            out.append(None)
        except AttributeError as exc:
            out.append(str(exc))
    return out


@pytest.mark.parametrize("name, args, kwargs", GOOD_CALLS)
def test_repr_eq_and_hash_match_dataclasses(name, args, kwargs):
    ours, oracle = _both(name, args, kwargs)
    assert repr(ours) == repr(oracle)
    assert _record.asdict(ours).keys() == dataclasses.asdict(oracle).keys()
    again, oracle_again = _both(name, args, kwargs)
    assert _outcome(lambda: ours == again) == _outcome(lambda: oracle == oracle_again)
    assert (ours == ours) == (oracle == oracle)  # the tuple compares an object to itself by identity
    assert ours != oracle and oracle != ours  # one class only, not even a subclass:
    sub, sub_oracle = (type(name, (cls,), {})(*args, **kwargs) for cls in (OURS[name], ORACLE[name]))
    assert _outcome(lambda: sub == ours) == _outcome(lambda: sub_oracle == oracle) == (False, None)
    assert _outcome(lambda: hash(ours)) == _outcome(lambda: hash(oracle))


@pytest.mark.parametrize("name, args, kwargs", GOOD_CALLS)
def test_assignment_matches_dataclasses(name, args, kwargs):
    ours, oracle = _both(name, args, kwargs)
    for attr in ("a", "kind", "times", "new"):
        assert _assignment(ours, attr) == _assignment(oracle, attr)
    if name != "Mutable":
        with pytest.raises(_record.FrozenInstanceError, match="cannot assign to field 'z'"):
            ours.z = 1


@pytest.mark.parametrize("name, args, kwargs", BAD_CALLS)
def test_bad_arguments_raise_the_dataclasses_type_error(name, args, kwargs):
    ours = _outcome(lambda: OURS[name](*args, **kwargs))
    assert ours == _outcome(lambda: ORACLE[name](*args, **kwargs))
    assert ours[0] is TypeError and f"_samples.<locals>.{name}.__init__()" in ours[1]


@pytest.mark.parametrize("name, args", TOO_MANY)
def test_too_many_arguments_raise_a_type_error_naming_the_class(name, args):
    n = len(OURS[name]._init_fields) + 1
    message = f"takes at most {n} positional arguments but {len(args) + 1} were given"
    assert _outcome(lambda: OURS[name](*args)) == (TypeError, f"_samples.<locals>.{name}.__init__() {message}")
    assert _outcome(lambda: ORACLE[name](*args))[0] is TypeError


def test_class_attributes_and_post_init_match_dataclasses():
    for name in OURS:
        for attr in ("a", "b", "c", "d", "seed", "items", "total", "cache"):
            assert repr(getattr(OURS[name], attr, "absent")) == repr(getattr(ORACLE[name], attr, "absent"))
    late = OURS["Late"]((1.0, 2.0))
    assert late.total == 3.0
    assert late.doubled == 6.0 and vars(late)["doubled"] == 6.0  # cached on the frozen record
    assert OURS["Late"]((1.0, 2.0)) == late  # `cache` is not compared
    mutable = OURS["Mutable"]("x")
    mutable.seed = 3
    assert mutable.seed == 3 and OURS["Mutable"]("x").items is not OURS["Mutable"]("x").items


def test_library_reprs_are_those_of_the_dataclasses():
    kernel = FractionalKernel(0.7071067811865475, 0.5)
    law = EmpiricalWaiting(times=np.array([0.0, 1.0]), pdf=np.array([1.0, 1.0]), kernel=kernel)
    assert repr(kernel.waiting()) == "MittagLefflerWaiting(amplitude=0.7071067811865475, alpha=0.5)"
    assert repr(kernel) == "FractionalKernel(amplitude=0.7071067811865475, alpha=0.5)"
    assert repr(kernel.verdict()) == (
        "KernelVerdict(verdict='safe', certificate='dual waiting law MittagLefflerWaiting("
        "amplitude=0.7071067811865475, alpha=0.5)', witness={'amplitude': 0.7071067811865475, 'alpha': 0.5})"
    )
    assert repr(law) == "EmpiricalWaiting(times=array([0., 1.]), pdf=array([1., 1.]), cdf=array([0., 1.]))"
    assert repr(Depolarizing()) == "Depolarizing(p_x=0.5, p_y=0.5)" and repr(Dephasing()) == "Dephasing()"
    assert repr(GaussianJumps()) == "GaussianJumps(mean=0.0, mean_sq=0.0, mean_abs_sq=1.0)"
    assert repr(WignerWalkConfig(jumps=PointMassJumps(0.5), kernel=MarkovianKernel(2), n_walkers=10)) == (
        "WignerWalkConfig(jumps=PointMassJumps(beta0=0.5), kernel=MarkovianKernel(rate=2.0), "
        "n_walkers=10, initial=0.0)"
    )
    assert repr(ExperimentConfig("figure1")) == (
        "ExperimentConfig(kind='figure1', seed=None, model=None, kernels=[], t_max_over_scale=None, "
        "n_points=None, initial=None, n_realizations=None, route=None, n_walkers=None, jumps=None, "
        "spectrum=None, csv_name=None, manifest_name=None, raw={})"
    )


def test_library_records_hash_and_freeze_as_before():
    assert hash(ExponentialKernel(0.75, 2.0)) == hash((0.75, 2.0))
    assert {FractionalKernel(1.0, 0.5), FractionalKernel(1, 0.5)} == {FractionalKernel(1.0, 0.5)}
    with pytest.raises(TypeError):
        hash(ExperimentConfig("figure1"))
    with pytest.raises(AttributeError, match="cannot assign to field 'rate'"):
        MarkovianKernel(1.0).rate = 2.0


@pytest.mark.parametrize(
    "tables, n",
    [((special._GL_NODES, special._GL_WEIGHTS), 12), ((solvers._GL8_NODES, solvers._GL8_WEIGHTS), 8)],
)
def test_gauss_legendre_tables_are_leggauss_bit_for_bit(tables, n):
    for table, reference in zip(tables, leggauss(n)):
        assert table.dtype == reference.dtype and table.tobytes() == reference.tobytes()
