"""ChaosSpec validation and fault-activation predicates; NaN rejection
across every run spec."""

import dataclasses
import typing

import pytest

from repro.faults.spec import ChaosSpec, OverloadSpec
from repro.system.config import SimulationConfig
from repro.workload.churn import ChurnSpec


def test_defaults_inject_nothing():
    spec = ChaosSpec()
    assert not spec.injects_faults
    assert not spec.delivery_faulty


@pytest.mark.parametrize(
    "knobs",
    [
        {"delivery_loss_probability": 0.1},
        {"delivery_duplicate_probability": 0.1},
        {"delivery_reorder_delay": 5.0},
        {"broker_mtbf": 86_400.0},
    ],
)
def test_any_delivery_fault_knob_activates_the_layer(knobs):
    spec = ChaosSpec(**knobs)
    assert spec.delivery_faulty
    assert spec.injects_faults


def test_protocol_knobs_alone_do_not_activate():
    """Retry budget, timeouts and repair are protocol tuning, not
    faults: without a fault rate they must keep the spec inert."""
    spec = ChaosSpec(
        delivery_retry_limit=9,
        delivery_ack_timeout=0.25,
        delivery_repair=False,
        broker_count=4,
    )
    assert not spec.delivery_faulty
    assert not spec.injects_faults


@pytest.mark.parametrize(
    "knobs, match",
    [
        ({"delivery_loss_probability": 1.0}, "delivery_loss_probability"),
        ({"delivery_loss_probability": -0.1}, "delivery_loss_probability"),
        ({"delivery_duplicate_probability": 1.5}, "delivery_duplicate_probability"),
        ({"delivery_reorder_delay": -1.0}, "delivery_reorder_delay"),
        ({"broker_mtbf": -10.0}, "broker_mtbf"),
        ({"broker_mttr": -1.0}, "broker_mttr"),
        ({"broker_count": 0}, "broker_count"),
        ({"delivery_retry_limit": -1}, "delivery_retry_limit"),
        ({"delivery_duplicate_probability": -0.1}, "delivery_duplicate_probability"),
        ({"delivery_ack_timeout": -0.5}, "delivery_ack_timeout"),
    ],
)
def test_delivery_knob_validation(knobs, match):
    with pytest.raises(ValueError, match=match):
        ChaosSpec(**knobs)


def test_spec_replace_keeps_validation():
    spec = ChaosSpec(delivery_loss_probability=0.2)
    with pytest.raises(ValueError):
        dataclasses.replace(spec, delivery_retry_limit=-2)


FLOAT_FIELDS = [
    (spec, name)
    for spec in (SimulationConfig, ChaosSpec, OverloadSpec, ChurnSpec)
    for name, hint in typing.get_type_hints(spec).items()
    if hint is float
]


@pytest.mark.parametrize(
    "spec, name", FLOAT_FIELDS, ids=[f"{spec.__name__}.{name}" for spec, name in FLOAT_FIELDS]
)
def test_every_float_field_rejects_nan(spec, name):
    """A NaN fails every ``x < 0``-style check it meets, so each check is
    written to fail it instead (``not x >= 0``)."""
    with pytest.raises(ValueError, match=name):
        spec(**{name: float("nan")})
