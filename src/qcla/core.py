"""Reversible circuit intermediate representation.

Circuits are flat lists of NOT/CNOT/Toffoli gates acting on wires drawn from
named registers.  The module provides:

* ``Gate``, ``Register``, ``RegisterLayout``, ``Circuit`` -- the IR
* ``schedule_asap`` -- greedy in-order wire-disjoint slicing (depth)
* ``levelize`` -- dependency-level gate ordering for maximal packing
* ``resource_report`` -- gate counts, depth, ancilla tally

A wire is a plain ``int``: its flat position in the ``RegisterLayout`` (the
register's offset plus the bit index).  A ``Gate`` is an immutable
``(kind, controls, target, phase)`` tuple over those ints, so hot loops
unpack gates directly and index per-wire lists.  Only the text format names
a wire by register and bit.

Each check runs where its facts are known.  A gate is checked when it is
made (``Gate``, ``not_``, ``cnot``, ``ccx``): its control count matches its
kind and its wires are distinct ``int`` values (``bool`` and ``1.0`` are
not).  A ``Circuit`` checks what depends on its layout -- every element is
a ``Gate`` and every distinct wire below the layout's size -- in set passes
over the whole gate list.

The calls that make gates in bulk, or make a circuit, run it and drop it,
run with CPython's cyclic garbage collector paused: ``adders.build`` (so
``build_variant`` and every variant), ``textfmt.parse_native``,
``sim.random_check``, ``sim.exhaustive_check`` and
``formulas.verify_family``.  Every ``Gate`` is a tuple subclass that the
collector tracks, so without the pause it re-scans new gates over and over,
though qcla makes no reference cycles and reference counting frees all of
its objects.  On return or raise each call re-enables the collector only if
it was enabled on entry, so the caller's state is kept.  The switch is
process-wide: while a paused call runs, cyclic garbage made by other threads
waits for the next collection, and another thread that toggles ``gc`` at the
same moment can have its setting overwritten.  qcla starts no threads.
"""

from __future__ import annotations

import functools
import gc
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Sequence, TypeVar


class CircuitError(ValueError):
    """A structurally invalid circuit, gate, or layout."""


class InternalConsistencyError(RuntimeError):
    """An internal invariant was violated (implementation bug guard)."""


def require_int(name: str, value: object) -> None:
    """Raise :class:`CircuitError` unless ``value`` is an ``int``: as for a
    register size, ``True`` and ``4.0`` are not."""
    if type(value) is not int:
        raise CircuitError(f"{name} must be an int, got {value!r}")


_F = TypeVar("_F", bound=Callable[..., object])


def _gc_paused(func: _F) -> _F:
    """``func`` with the cyclic garbage collector disabled for the length of
    each call, and re-enabled on return or raise only if it was enabled on
    entry (nested calls leave it to the outermost)."""
    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()
    return paused


class Role(str, Enum):
    """What a register contributes to an arithmetic circuit."""

    INPUT_A = "input-a"
    INPUT_B = "input-b"
    OUTPUT = "output"
    ANCILLA = "ancilla"
    CARRY_IN = "carry-in"


class GateKind(Enum):
    NOT = "not"
    CNOT = "cnot"
    TOFFOLI = "ccx"

    # members are singletons, so identity hashing is exact; it keeps the
    # hashing of gates and of kind-keyed tables in C
    __hash__ = object.__hash__

    @property
    def num_controls(self) -> int:
        return _NUM_CONTROLS[self]


_NUM_CONTROLS = {GateKind.NOT: 0, GateKind.CNOT: 1, GateKind.TOFFOLI: 2}


class Gate(tuple):
    """One reversible gate: ``target ^= AND(controls)`` (empty AND = 1).

    A ``Gate`` is an immutable ``(kind, controls, target, phase)`` tuple
    whose wires are flat indices into the circuit's layout; it compares
    equal to the plain tuple with the same fields, phase included.  Making
    a gate checks that its control count matches its kind and that its
    wires are distinct ``int`` values, and raises :class:`CircuitError`
    otherwise; that the wires lie in a layout is the :class:`Circuit`'s
    check.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, controls: Iterable[int], target: int,
                phase: str | None = None) -> Gate:
        controls = tuple(controls)
        if len(controls) != _NUM_CONTROLS.get(kind, -1):
            raise CircuitError(f"{kind} gate with controls {controls!r}")
        wires = (*controls, target)
        if {*map(type, wires)} != {int} or len(set(wires)) < len(wires):
            raise _bad(wires)
        return tuple.__new__(cls, (kind, controls, target, phase))

    kind = property(itemgetter(0))
    controls = property(itemgetter(1))
    target = property(itemgetter(2))
    phase = property(itemgetter(3))

    @property
    def wires(self) -> tuple[int, ...]:
        return (*self[1], self[2])

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return f"{self[0].value} {' '.join(map(str, self.wires))}"


def _bad(wires: tuple) -> CircuitError:
    """Why gate wires are not distinct ``int`` values (``1.0 == 1``)."""
    for w in wires:
        if type(w) is not int:
            return CircuitError(f"wire {w!r} is not a flat index: "
                                f"{type(w).__name__}, not int")
    return CircuitError(f"gate wires must be distinct: {wires}")


_new = tuple.__new__
_NOT, _CNOT, _TOFFOLI = GateKind.NOT, GateKind.CNOT, GateKind.TOFFOLI


def retag(gates: Iterable[Gate], phase: str) -> list[Gate]:
    """The same gates with their phase tag replaced (their fields were
    checked when they were made)."""
    return [_new(Gate, (kind, controls, target, phase))
            for kind, controls, target, _ in gates]


def not_(target: int, phase: str | None = None) -> Gate:
    if type(target) is not int:
        raise _bad((target,))
    return _new(Gate, (_NOT, (), target, phase))


def cnot(control: int, target: int, phase: str | None = None) -> Gate:
    if control == target or type(control) is not int \
            or type(target) is not int:
        raise _bad((control, target))
    return _new(Gate, (_CNOT, (control,), target, phase))


def ccx(c1: int, c2: int, target: int, phase: str | None = None) -> Gate:
    if c1 == c2 or c1 == target or c2 == target or type(c1) is not int \
            or type(c2) is not int or type(target) is not int:
        raise _bad((c1, c2, target))
    return _new(Gate, (_TOFFOLI, (c1, c2), target, phase))


@dataclass(frozen=True, slots=True)
class Register:
    name: str
    size: int
    role: Role


def _is_name(text: str) -> bool:
    """Whether ``text`` is a register name, ``[A-Za-z_][A-Za-z0-9_]*``."""
    return (text.isascii() and text.replace("_", "a").isalnum()
            and not text[0].isdigit())


def _is_label(text: object) -> bool:
    """Whether ``text`` is a barrier label: a ``str`` that a line of the
    text format reads back as itself, one token with no whitespace and no
    ``#``.  The parser splits its lines into such tokens, so every label
    it reads passes."""
    return type(text) is str and "#" not in text and text.split() == [text]


class RegisterLayout:
    """An ordered set of uniquely named registers, each of which the text
    format can write back: a name ``[A-Za-z_][A-Za-z0-9_]*``, an ``int``
    size ``>= 0`` and a :class:`Role`."""

    def __init__(self, registers: Iterable[Register]):
        regs = tuple(registers)
        for r in regs:
            if type(r.name) is not str or not _is_name(r.name):
                raise CircuitError(f"bad register name {r.name!r}")
            if type(r.size) is not int or r.size < 0:
                raise CircuitError(f"register {r.name} has size {r.size!r},"
                                   f" not an int >= 0")
            if type(r.role) is not Role:
                raise CircuitError(f"register {r.name} has role {r.role!r},"
                                   f" not a Role")
        names = [r.name for r in regs]
        if len(set(names)) != len(names):
            raise CircuitError(f"duplicate register names in {names}")
        carry_ins = [r for r in regs if r.role is Role.CARRY_IN]
        if len(carry_ins) > 1 or any(r.size > 1 for r in carry_ins):
            raise CircuitError("at most one carry-in register of size <= 1")
        self.registers = regs
        self._by_name = {r.name: r for r in regs}
        offsets: dict[str, int] = {}
        total = 0
        for r in regs:
            offsets[r.name] = total
            total += r.size
        self._offsets = offsets
        self.total_size = total

    def __getitem__(self, name: str) -> Register:
        return self._by_name[name]

    def __contains__(self, name: str) -> bool:
        return name in self._by_name

    def offset(self, name: str) -> int:
        """Flat index of the register's bit 0."""
        return self._offsets[name]

    def indices(self, name: str) -> list[int]:
        """Flat indices of the register's wires, LSB first."""
        off = self._offsets[name]
        return list(range(off, off + self._by_name[name].size))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, RegisterLayout) and self.registers == other.registers

    def __repr__(self) -> str:
        inner = ", ".join(f"{r.name}[{r.size}]:{r.role.value}" for r in self.registers)
        return f"RegisterLayout({inner})"


@dataclass(frozen=True, slots=True)
class Barrier:
    """Marker before gate index ``position``, labelling the phase that follows."""

    position: int
    label: str


class Circuit:
    """An immutable gate list over a register layout, with phase barriers.

    Construction checks what the layout decides, in set passes over the
    gate list: every element is a :class:`Gate` (whose arity and distinct
    ``int`` wires were checked when it was made), and every distinct wire
    is a flat index of the layout.  Barrier positions must be ``int`` gate
    indices in order, and each label one the text format writes back.
    """

    def __init__(
        self,
        layout: RegisterLayout,
        gates: Iterable[Gate],
        barriers: Iterable[Barrier] = (),
    ):
        self.layout = layout
        self.gates = tuple(gates)
        self.barriers = tuple(barriers)
        # one more than the highest wire a gate touches: per-wire tables
        # need no more, however many bits the layout declares
        self._span = _check_gates(self.gates, layout.total_size)
        last = -1
        for b in self.barriers:
            if type(b.position) is not int:
                raise CircuitError(f"barrier position {b.position!r} is not"
                                   f" an int")
            if not 0 <= b.position <= len(self.gates):
                raise CircuitError(f"barrier position {b.position} out of range")
            if b.position < last:
                raise CircuitError("barriers must be in nondecreasing order")
            if not _is_label(b.label):
                raise CircuitError(f"bad barrier label {b.label!r}")
            last = b.position

    def __len__(self) -> int:
        return len(self.gates)

    def counts(self) -> dict[GateKind, int]:
        tally = Counter(map(_KIND, self.gates))
        return {k: tally[k] for k in GateKind}


_KIND = itemgetter(0)
_CONTROLS = itemgetter(1)
_TARGET = itemgetter(2)


def touched_wires(gates: Sequence[Gate]) -> set[int]:
    """Every distinct wire the gates touch, each once."""
    wires = set(map(_TARGET, gates))
    wires.update(chain.from_iterable(map(_CONTROLS, gates)))
    return wires


def _check_gates(gates: Sequence[Gate], width: int) -> int:
    """Raise :class:`CircuitError` unless every element is a :class:`Gate`
    (whose wires are ints) and every distinct wire is below ``width``;
    return one more than the highest wire the gates touch (0 for none)."""
    if not set(map(type, gates)) <= {Gate}:
        bad = next(g for g in gates if type(g) is not Gate)
        raise CircuitError(f"{bad!r} is not a Gate")
    wires = touched_wires(gates)
    if min(wires, default=0) >= 0:
        span = max(wires, default=-1) + 1
        if span <= width:
            return span
    bad = next(w for w in wires if not 0 <= w < width)
    raise CircuitError(f"wire {bad!r} is not a flat index below {width}")


def _width(gates: Sequence[Gate]) -> int:
    """One more than the highest wire the gates touch (0 for no gates)."""
    return 1 + max(chain(map(_TARGET, gates),
                         chain.from_iterable(map(_CONTROLS, gates))),
                   default=-1)


def schedule_asap(circuit: Circuit) -> list[list[int]]:
    """Greedy in-order slicing: pack each gate as soon as the list allows.

    Walking the gate list once, a gate joins the newest slice when its wires
    are disjoint from every gate already in it, and otherwise closes that
    slice and opens the next one.  Slices are therefore contiguous runs of
    the gate list, so executing them in order is trivially equivalent to
    executing the original circuit.  Generators order independent gates so
    that this packing realizes the construction's parallelism (see
    :func:`levelize`).  Returns gate indices per slice.
    """
    gates = circuit.gates
    # wire -> the first gate of the last slice that used it
    stamp = [-1] * circuit._span
    starts: list[int] = []  # index of the first gate of every slice but one
    open_ = 0  # index of the first gate of the open slice
    for i, (_, controls, target, _) in enumerate(gates):
        if stamp[target] == open_:
            starts.append(i)
            open_ = i
        else:
            for c in controls:
                if stamp[c] == open_:
                    starts.append(i)
                    open_ = i
                    break
        stamp[target] = open_
        for c in controls:
            stamp[c] = open_
    bounds = [0, *starts, len(gates)] if gates else []
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def count_toffoli_slices(gates: Sequence[Gate],
                         slices: list[list[int]]) -> int:
    """How many of ``slices`` (index lists into ``gates``) hold a Toffoli."""
    return sum(any(gates[i][0] is _TOFFOLI for i in sl) for sl in slices)


def levelize(gates: Sequence[Gate]) -> list[Gate]:
    """Stably sort a run of gates by wire-dependency level.

    A gate's level is one more than the highest level among earlier gates
    sharing a wire with it, so gates of equal level are pairwise
    wire-disjoint and :func:`schedule_asap` packs each level into a single
    slice.  Gates sharing a wire always differ in level and keep their
    relative order, hence the reorder only exchanges commuting
    (wire-disjoint) gates and semantics are unchanged.  One pass appends
    each gate to the bucket of its level; the buckets, concatenated, are
    the result.
    """
    # wire -> the lowest level a later gate on that wire may take
    level = [0] * _width(gates)
    buckets: list[list[Gate]] = []
    depth = 0
    for g in gates:
        _, controls, target, _ = g
        lv = level[target]
        for c in controls:
            lc = level[c]
            if lc > lv:
                lv = lc
        if lv < depth:
            buckets[lv].append(g)
        else:
            buckets.append([g])
            depth += 1
        lv += 1
        level[target] = lv
        for c in controls:
            level[c] = lv
    return list(chain.from_iterable(buckets))


@dataclass(frozen=True, slots=True)
class ResourceReport:
    toffoli: int
    cnot: int
    nots: int
    total_slices: int
    toffoli_slices: int
    ancilla_count: int
    width: int

    def as_dict(self) -> dict[str, int]:
        return {
            "toffoli": self.toffoli,
            "cnot": self.cnot,
            "not": self.nots,
            "total_slices": self.total_slices,
            "toffoli_slices": self.toffoli_slices,
            "ancillae": self.ancilla_count,
            "width": self.width,
        }


def resource_report(circuit: Circuit) -> ResourceReport:
    """Gate counts, slice counts under ASAP scheduling, and ancilla tally.

    ``toffoli_slices`` counts slices containing at least one Toffoli;
    ``ancilla_count`` is the total size of ancilla-role registers.
    """
    counts = circuit.counts()
    slices = schedule_asap(circuit)
    anc = sum(r.size for r in circuit.layout.registers if r.role is Role.ANCILLA)
    return ResourceReport(
        toffoli=counts[GateKind.TOFFOLI],
        cnot=counts[GateKind.CNOT],
        nots=counts[GateKind.NOT],
        total_slices=len(slices),
        toffoli_slices=count_toffoli_slices(circuit.gates, slices),
        ancilla_count=anc,
        width=circuit.layout.total_size,
    )

