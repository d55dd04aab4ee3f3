"""The result records: immutable named tuples with fixed field order and defaults.

The records are plain ``typing.NamedTuple`` classes, not dataclasses: a frozen
dataclass generates and compiles six methods per class on every import, about
1 ms each, and every cold ``lieweyl`` command paid for that.
"""

import dataclasses

import pytest

import lieweyl

# field order of each record, as it was when they were frozen dataclasses
FIELDS = {
    "Violation": ("kind", "indices", "magnitude"),
    "ValidityReport": ("ok", "violations"),
    "StructureFlags": ("solvable", "nilpotent", "abelian", "unimodular", "derived_dim",
                       "center_dim"),
    "AADecomposition": ("ideal_basis", "normal", "skew", "sym", "unique_ideal"),
    "AAClassification": ("case", "coefficient", "lee_forms"),
    "RescaleVerdict": ("ricci_flat", "flat"),
    "Family3D": ("family", "metric_family", "t", "mu", "nu"),
    "Verdict3D": ("admits", "lee_forms", "by_table", "by_solver"),
    "AdaptedFrame3D": ("kind", "basis", "k", "l", "alpha"),
    "ReportRecord": ("key", "value"),
    "ConnectionTable": ("gamma",),
    "CurvatureData": ("riem", "ricci", "scalar", "besse"),
    "LeeForm": ("coeffs", "dual", "norm_sq"),
    "WeylStructure": ("base", "lee", "table"),
    "FaradayForm": ("matrix", "closed", "exact"),
    "WEResidual": ("matrix", "norm"),
    "SolveResult": ("roots", "residuals", "infimum", "exits", "quotient_dim"),
    "FlatnessReport": ("ricci_flat", "flat", "kn_residual"),
}

DEFAULTS = {
    "Family3D": {"t": 0.0, "mu": 1.0, "nu": 1.0},
    "AdaptedFrame3D": {"k": 0.0, "l": 0.0, "alpha": 0.0},
    "CurvatureData": {"besse": None},
    "SolveResult": {"exits": {}, "quotient_dim": 0},
}

def _placeholder(name):
    """An instance of the record with distinct placeholder values in every
    field that has no default."""
    required = [f for f in FIELDS[name] if f not in DEFAULTS.get(name, {})]
    return getattr(lieweyl, name)(**{f: f"<{f}>" for f in required})


@pytest.mark.parametrize("name", sorted(FIELDS))
def test_record_is_an_immutable_named_tuple_in_field_order(name):
    cls = getattr(lieweyl, name)
    assert not dataclasses.is_dataclass(cls)
    assert cls._fields == FIELDS[name]
    record = _placeholder(name)
    for field in FIELDS[name]:
        # a frozen dataclass raised FrozenInstanceError, a subclass of AttributeError
        with pytest.raises(AttributeError):
            setattr(record, field, 1)
    with pytest.raises(AttributeError):
        record.extra = 1
    # attribute access, unpacking and tuple equality agree
    assert tuple(record) == tuple(getattr(record, f) for f in FIELDS[name])
    assert record == tuple(record)


@pytest.mark.parametrize("name", sorted(DEFAULTS))
def test_record_defaults_are_kept(name):
    record = _placeholder(name)
    for field, value in DEFAULTS[name].items():
        assert getattr(record, field) == value
    assert getattr(lieweyl, name)._field_defaults == DEFAULTS[name]


def test_solve_result_default_exit_counts_are_read_only():
    # every result built without exit counts shares the one default, so a
    # writable {} would carry counts written into one result into the next
    first = lieweyl.SolveResult(roots=(), residuals=(), infimum=0.0)
    with pytest.raises(TypeError):
        first.exits["stall"] = 1
    assert lieweyl.SolveResult(roots=(), residuals=(), infimum=0.0).exits == {}

