"""The records a run is described by: how they are built, compared,
printed and refused."""

from fractions import Fraction
from pathlib import Path

import pytest

from lowbit.allocator import AllocationProblem, BitAssignment
from lowbit.config import RunConfig
from lowbit.errors import ConfigError, ContractError
from lowbit.spec import (MXFP4, LayerInfo, ModelSpec, MxFormat, QuantScheme,
                         TuneConfig)

SPEC = ModelSpec("mlp", 16, 1, 8)
TUNE = TuneConfig(steps=4)

# record -> (class, field names, the required fields' values, the repr of a
# record built from them with every default, fields that fail to build
# and the error, or None for a record that checks nothing)
RECORDS = {
    "ModelSpec": (
        ModelSpec,
        "arch hidden n_blocks vocab n_heads ffn_mult max_seq seed",
        ("tiny-transformer", 16, 1, 8),
        "ModelSpec(arch='tiny-transformer', hidden=16, n_blocks=1, vocab=8, "
        "n_heads=4, ffn_mult=4, max_seq=64, seed=0)",
        ({"n_heads": 3}, ConfigError, "hidden 16 not divisible by 3 heads")),
    "LayerInfo": (
        LayerInfo, "name shape block", ("head", (16, 8)),
        "LayerInfo(name='head', shape=(16, 8), block=None)", None),
    "QuantScheme": (
        QuantScheme, "family bits group_size", ("int-sym", 4),
        "QuantScheme(family='int-sym', bits=4, group_size=32)",
        ({"bits": 9}, ContractError, "int-sym bits must be in [2, 8], got 9")),
    "MxFormat": (
        MxFormat, "name mbits emax emin max_value magnitudes block",
        ("e2m1", 1, 2, 0, 6.0, (0.0, 0.5, 1.0)),
        "MxFormat(name='e2m1', mbits=1, emax=2, emin=0, max_value=6.0, "
        "magnitudes=(0.0, 0.5, 1.0), block=32)", None),
    "TuneConfig": (
        TuneConfig,
        "steps lr batch_size trim_fraction use_scale_init seed", (),
        "TuneConfig(steps=200, lr=0.005, batch_size=8, trim_fraction=0.001, "
        "use_scale_init=True, seed=0)",
        ({"trim_fraction": 1.0}, ConfigError,
         "trim_fraction must lie in [0, 1)")),
    "AllocationProblem": (
        AllocationProblem, "names params options costs target",
        (("a", "b"), (4, 8), (("w2", 2), ("w4", 4)), ((1.0, 0.5), (2.0, 0.0)),
         Fraction(3)),
        "AllocationProblem(names=('a', 'b'), params=(4, 8), "
        "options=(('w2', 2), ('w4', 4)), costs=((1.0, 0.5), (2.0, 0.0)), "
        "target=Fraction(3, 1))",
        ({"target": Fraction(5)}, ContractError,
         "target 5 outside option range [2, 4]")),
    "BitAssignment": (
        BitAssignment, "choices bits objective avg_bits solver",
        (("w2", "w4"), (2, 4), 1.5, Fraction(10, 3), "dp"),
        "BitAssignment(choices=('w2', 'w4'), bits=(2, 4), objective=1.5, "
        "avg_bits=Fraction(10, 3), solver='dp')", None),
    "RunConfig": (
        RunConfig,
        "spec train_steps train_lr family options group_size target_bits "
        "tune source calib_samples seq_len batch_size eval_samples seed "
        "out_dir",
        (SPEC, 0, 0.5, "int-sym", (2, 4), 32, Fraction(3), TUNE, "markov",
         8, 16, 4, 4, 21, Path(".")),
        f"RunConfig(spec={SPEC!r}, train_steps=0, train_lr=0.5, "
        "family='int-sym', options=(2, 4), group_size=32, "
        f"target_bits=Fraction(3, 1), tune={TUNE!r}, source='markov', "
        "calib_samples=8, seq_len=16, batch_size=4, eval_samples=4, seed=21, "
        "out_dir=PosixPath('.'))", None),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_contract(name):
    cls, fields, required, text, refused = RECORDS[name]
    fields = fields.split()
    rec = cls(*required)
    assert repr(rec) == text
    assert type(rec).__name__ == name

    # positional and keyword construction agree, defaults included
    values = [getattr(rec, f) for f in fields]
    by_kw = cls(**dict(zip(fields, values)))
    assert cls(*values) == by_kw == rec
    assert hash(by_kw) == hash(rec) and len({rec, by_kw}) == 1
    assert repr(by_kw) == text

    with pytest.raises(AttributeError):
        setattr(rec, fields[0], values[1])
    with pytest.raises(AttributeError):
        rec.extra = 1
    assert getattr(rec, fields[0]) == values[0]

    if refused is not None:
        bad, error, message = refused
        with pytest.raises(error) as caught:
            cls(**{**dict(zip(fields, values)), **bad})
        assert str(caught.value) == message


def test_tune_config_resolves_lr_from_steps():
    assert TuneConfig(steps=4).lr == 0.25
    assert TuneConfig(0).lr == 1.0
    assert TuneConfig(steps=4, lr=0.5).lr == 0.5
    with pytest.raises(ConfigError, match="lr must be positive"):
        TuneConfig(lr=0.0)


def test_quant_scheme_properties_survive():
    assert QuantScheme("mxfp", 4).mx_format is MXFP4
    assert QuantScheme("none", 16, 0).label == "w16"
    assert LayerInfo("x", (3, 5), 0).n_params == 15
