"""The package's record types: which are dataclasses, that the others are
immutable, how they compare and that each takes its fields as keywords."""

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import imcverify
from imcverify.config import MonteCarloConfig, RunConfig
from imcverify.dynamics import BinOp, Call, DynamicsModel, Neg, Num, Pow, Var, _Token
from imcverify.geometry import StatePartition
from imcverify.imc import Imc
from imcverify.mc import Trajectory
from imcverify.noise import Mixture, NoiseModel, TruncatedGaussian, Uniform
from imcverify.pipeline import RunContext
from imcverify.verify import ReachAvoidSpec, VerificationResult

PARTITION = StatePartition(resolution=(2,), edges=([0.0, 0.5, 1.0],))

# each immutable type with the keywords of one constructor call
KEYWORD_CALLS = [
    (StatePartition, dict(resolution=(2,), edges=([0.0, 0.5, 1.0],))),
    (Uniform, dict(lo=-0.1, hi=0.1)),
    (TruncatedGaussian, dict(mean=0.0, stddev=1.0, lo=-1.0, hi=1.0)),
    (Mixture, dict(weights=(0.25, 0.75), parts=(Uniform(0.0, 1.0), Uniform(1.0, 2.0)))),
    (NoiseModel, dict(components=(Uniform(0.0, 1.0),))),
    (DynamicsModel, dict(n=1, structure="general", components=(Var("x", 1),))),
    (Imc, dict(partition=PARTITION, indptr=np.array([0, 1, 2, 3]), dst=np.array([0, 1, 2]),
               lower=np.ones(3), upper=np.ones(3), labels={})),
    (ReachAvoidSpec, dict(horizon=3, threshold=0.5)),
    (VerificationResult, dict(p_lower=[0.0, 0.5], p_upper=[1.0, 0.5], iterations=2,
                              converged=True, fixpoints=(1, 2), upper_residual=None,
                              walked_rows=(3, 4))),
    (Num, dict(value=1.0)),
    (Var, dict(kind="w", index=1)),
    (BinOp, dict(op="+", left=Num(1.0), right=Var("x", 1))),
    (Pow, dict(base=Var("x", 1), exponent=2)),
    (Neg, dict(operand=Num(1.0))),
    (Call, dict(func="sin", arg=Var("x", 1))),
    (_Token, dict(kind="num", text="1", column=0)),
    (Trajectory, dict(states=np.zeros((1, 1)), termination="horizon")),
    (RunContext, dict(config=None, partition=PARTITION, spec=ReachAvoidSpec(), labels={},
                      table=None, key=None)),
]


def test_only_the_configs_are_dataclasses():
    # a dataclass execs its generated methods when created, which every CLI
    # process would pay at import
    modules = [importlib.import_module(f"imcverify.{m.name}")
               for m in pkgutil.iter_modules(imcverify.__path__)]
    found = {v for m in [imcverify, *modules] for v in vars(m).values()
             if isinstance(v, type) and dataclasses.is_dataclass(v)}
    assert found == {RunConfig, MonteCarloConfig}


@pytest.mark.parametrize("cls, kwargs", KEYWORD_CALLS, ids=[c.__name__ for c, _ in KEYWORD_CALLS])
def test_keyword_call_sets_the_fields_for_good(cls, kwargs):
    obj = cls(**kwargs)
    names = obj._fields if isinstance(obj, tuple) else [k for k in vars(obj) if k[0] != "_"]
    assert list(names) == list(kwargs)
    for name, value in kwargs.items():
        before = getattr(obj, name)
        with pytest.raises(AttributeError):
            setattr(obj, name, value)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) is before
    with pytest.raises(AttributeError):
        obj.extra = 1


@pytest.mark.parametrize("cls", [StatePartition, Imc, VerificationResult])
def test_partitions_and_imcs_compare_by_identity(cls):
    kwargs = dict(KEYWORD_CALLS)[cls]
    a, b = cls(**kwargs), cls(**kwargs)
    assert a == a and a != b
    assert len({a, b, a}) == 2
