"""The calls that make and drop circuits in bulk run with the cyclic garbage
collector paused: each keeps its caller's collector state, no collection
runs inside one, and qcla leaves no cyclic garbage for the pause to defer."""

import gc
import inspect
import sys

import pytest

import qcla
from qcla import (
    VARIANTS,
    AdderRequest,
    CircuitError,
    ParseError,
    build,
    build_variant,
    emit_native,
    emit_qasm,
    exhaustive_check,
    parse_native,
    random_check,
    resource_report,
    schedule_asap,
    verify_family,
)

ADD_IP_8 = emit_native(build_variant("add-ip", 8))

# paused call -> (a call that returns, a call that raises, what it raises)
PAUSED = {
    "build": (lambda: build(AdderRequest(8, "add", in_place=True)),
              lambda: build(None), AttributeError),
    "parse_native": (lambda: parse_native(ADD_IP_8),
                     lambda: parse_native("bogus"), ParseError),
    "random_check": (lambda: random_check("add-oop", 8, 64),
                     lambda: random_check("add-oop", 0), CircuitError),
    "exhaustive_check": (lambda: exhaustive_check("add-oop", 3),
                         lambda: exhaustive_check("add-oop", 13),
                         CircuitError),
    "verify_family": (lambda: verify_family("add-oop", range(0, 4)),
                      lambda: verify_family("bogus", [4]), CircuitError),
}


@pytest.fixture
def collector():
    """Put the collector's state and thresholds back after the test."""
    enabled, thresholds = gc.isenabled(), gc.get_threshold()
    yield
    gc.set_threshold(*thresholds)
    (gc.enable if enabled else gc.disable)()


@pytest.mark.parametrize("enabled", [True, False], ids=["on", "off"])
@pytest.mark.parametrize("name", PAUSED)
def test_a_paused_call_keeps_the_callers_collector_state(name, enabled,
                                                         collector):
    returns, raises, error = PAUSED[name]
    (gc.enable if enabled else gc.disable)()
    returns()
    assert gc.isenabled() is enabled
    with pytest.raises(error):
        raises()
    assert gc.isenabled() is enabled


def collections_inside(func, call) -> list[bool]:
    """For each collection that starts while ``call()`` runs, whether it
    started inside ``func``'s own body (the undecorated function, if
    ``func`` is a wrapper)."""
    code = inspect.unwrap(func).__code__
    inside = []

    def record(phase: str, info: dict) -> None:
        if phase == "start":
            frame = sys._getframe(1)
            while frame is not None and frame.f_code is not code:
                frame = frame.f_back
            inside.append(frame is not None)

    gc.callbacks.append(record)
    try:
        call()
    finally:
        gc.callbacks.remove(record)
    return inside


def test_no_collection_runs_inside_a_large_build(collector):
    # add-ip n = 4096 makes 65 414 gates: unpaused, the collector ran
    # about a hundred times inside this build and re-scanned its gates
    gc.enable()
    assert True not in collections_inside(
        build, lambda: build_variant("add-ip", 4096))


@pytest.mark.parametrize("name", PAUSED)
def test_no_collection_runs_inside_any_paused_call(name, collector):
    # with a threshold of 1, every new tracked object starts a collection
    # unless the collector is paused; only young ones, so this stays quick
    gc.enable()
    gc.set_threshold(1, 10**6, 10**6)
    func = getattr(qcla, name)
    assert True not in collections_inside(func, PAUSED[name][0])
    # the harness sees collections in a call that is not paused
    circuit = build_variant("add-ip", 8)
    assert True in collections_inside(schedule_asap,
                                      lambda: schedule_asap(circuit))


def test_qcla_leaves_no_cyclic_garbage(collector):
    # reference counting alone frees everything qcla makes, which is what
    # makes pausing the collector safe; errors included
    gc.collect()
    gc.disable()
    for vid in VARIANTS:
        for n in (-1, 0, 1, 2, 5, 16):
            try:
                circuit = build_variant(vid, n)
            except CircuitError:
                continue
            resource_report(circuit)
            emit_qasm(circuit)
            parse_native(emit_native(circuit))
        for n in (-1, 0, 1, 3, 13):
            for check in (lambda: random_check(vid, n, 64),
                          lambda: exhaustive_check(vid, n)):
                try:
                    check()
                except CircuitError:
                    pass
        verify_family(vid, range(-1, 6))
    for text in ("bogus", "reg A 1 input-a\nccx A[0] A[0] A[0]\n"):
        try:
            parse_native(text)
        except ParseError:
            pass
    assert gc.collect() == 0
