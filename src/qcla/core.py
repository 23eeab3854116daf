"""Reversible circuit intermediate representation.

Circuits are flat lists of NOT/CNOT/Toffoli gates acting on wires drawn from
named registers.  The module provides:

* ``Wire``, ``Gate``, ``Register``, ``RegisterLayout``, ``Circuit`` -- the IR
* ``schedule_asap`` -- greedy in-order wire-disjoint slicing (depth)
* ``levelize`` -- dependency-level gate ordering for maximal packing
* ``resource_report`` -- gate counts, depth, ancilla tally
* ``invert`` -- reverse a circuit (every gate is self-inverse)
* ``constant_propagate`` -- simplify against compile-time-known wire values
* ``lightcone`` -- backward cone of influence of a single wire

``Wire`` and ``Gate`` are immutable tuple subclasses, ``(register, index)``
and ``(kind, controls, target, phase)``: they hash and compare as those
tuples -- so each equals the plain tuple with the same fields -- and hot
loops unpack them directly.  Wires are interned, one object per distinct
wire.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain
from operator import itemgetter
from typing import Iterable, Mapping, Sequence


class CircuitError(ValueError):
    """A structurally invalid circuit, gate, or layout."""


class InternalConsistencyError(RuntimeError):
    """An internal invariant was violated (implementation bug guard)."""


class Role(str, Enum):
    """What a register contributes to an arithmetic circuit."""

    INPUT_A = "input-a"
    INPUT_B = "input-b"
    OUTPUT = "output"
    ANCILLA = "ancilla"
    CARRY_IN = "carry-in"


class Wire(tuple):
    """A single bit line, addressed as register name + index (0 = LSB).

    A ``Wire`` is an immutable ``(register, index)`` tuple: it hashes and
    compares as that tuple, so ``Wire("A", 3) == ("A", 3)``, and hashing and
    equality run in C.  Instances are interned -- every ``Wire("A", 3)`` is
    the same object -- so all gates touching a wire share it.  The intern
    table lives for the process and holds one entry per distinct wire built.
    """

    __slots__ = ()

    def __new__(cls, register: str, index: int) -> Wire:
        key = (register, index)
        wire = _WIRES.get(key)
        if wire is None:
            wire = _WIRES[key] = tuple.__new__(cls, key)
        return wire

    register = property(itemgetter(0), doc="Register name.")
    index = property(itemgetter(1), doc="Bit position in the register.")

    def __getnewargs__(self) -> tuple[str, int]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"{self[0]}[{self[1]}]"


_WIRES: dict[tuple[str, int], Wire] = {}


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
    and compares equal to the plain tuple with the same fields, phase
    included.  Construction checks the control count against the kind and
    that the wires are distinct.  Gates are not interned; their wires are.
    """

    __slots__ = ()

    def __new__(cls, kind: GateKind, controls: tuple[Wire, ...], target: Wire,
                phase: str | None = None) -> Gate:
        if len(controls) != _NUM_CONTROLS[kind]:
            raise CircuitError(
                f"{kind.value} expects {_NUM_CONTROLS[kind]} controls, "
                f"got {len(controls)}"
            )
        if target in controls or (len(controls) == 2
                                  and controls[0] == controls[1]):
            raise CircuitError(
                f"gate wires must be distinct: {(*controls, target)}")
        return tuple.__new__(cls, (kind, controls, target, phase))

    kind = property(itemgetter(0))
    controls = property(itemgetter(1))
    target = property(itemgetter(2))
    phase = property(itemgetter(3))

    @property
    def wires(self) -> tuple[Wire, ...]:
        return (*self[1], self[2])

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        args = " ".join(repr(w) for w in self.wires)
        return f"{self[0].value} {args}"


def retag(gates: Iterable[Gate], phase: str) -> list[Gate]:
    """The same gates with their phase tag replaced (no re-validation)."""
    return [tuple.__new__(Gate, (g[0], g[1], g[2], phase)) for g in gates]


def not_(target: Wire, phase: str | None = None) -> Gate:
    return Gate(GateKind.NOT, (), target, phase)


def cnot(control: Wire, target: Wire, phase: str | None = None) -> Gate:
    return Gate(GateKind.CNOT, (control,), target, phase)


def ccx(c1: Wire, c2: Wire, target: Wire, phase: str | None = None) -> Gate:
    return Gate(GateKind.TOFFOLI, (c1, c2), target, phase)


@dataclass(frozen=True, slots=True)
class Register:
    name: str
    size: int
    role: Role


class RegisterLayout:
    """An ordered set of uniquely named registers."""

    def __init__(self, registers: Iterable[Register]):
        regs = tuple(registers)
        names = [r.name for r in regs]
        if len(set(names)) != len(names):
            raise CircuitError(f"duplicate register names in {names}")
        for r in regs:
            if r.size < 0:
                raise CircuitError(f"register {r.name} has negative size")
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

    def wire(self, name: str, index: int) -> Wire:
        reg = self._by_name.get(name)
        if reg is None:
            raise CircuitError(f"unknown register {name!r}")
        if not 0 <= index < reg.size:
            raise CircuitError(f"index {index} out of range for {name}[{reg.size}]")
        return Wire(name, index)

    def wires(self, name: str) -> list[Wire]:
        return [Wire(name, i) for i in range(self._by_name[name].size)]

    def flat_index(self, wire: Wire) -> int:
        """Position of a wire in the layout's flattened bit order."""
        name, index = wire
        reg = self._by_name.get(name)
        if reg is None or not 0 <= index < reg.size:
            raise CircuitError(f"wire {wire!r} not in layout")
        return self._offsets[name] + index

    def all_wires(self) -> list[Wire]:
        return [w for r in self.registers for w in self.wires(r.name)]

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
    """An immutable gate list over a register layout, with phase barriers."""

    def __init__(
        self,
        layout: RegisterLayout,
        gates: Iterable[Gate],
        barriers: Iterable[Barrier] = (),
    ):
        self.layout = layout
        self.gates = tuple(gates)
        self.barriers = tuple(barriers)
        wires = set(map(_TARGET, self.gates))  # each distinct wire once
        wires.update(chain.from_iterable(map(_CONTROLS, self.gates)))
        for w in wires:
            layout.flat_index(w)  # raises on foreign wires
        last = -1
        for b in self.barriers:
            if not 0 <= b.position <= len(self.gates):
                raise CircuitError(f"barrier position {b.position} out of range")
            if b.position < last:
                raise CircuitError("barriers must be in nondecreasing order")
            last = b.position

    def __len__(self) -> int:
        return len(self.gates)

    def counts(self) -> dict[GateKind, int]:
        tally = Counter(map(_KIND, self.gates))
        return {k: tally[k] for k in GateKind}


_KIND = itemgetter(0)
_CONTROLS = itemgetter(1)
_TARGET = itemgetter(2)


def invert(circuit: Circuit) -> Circuit:
    """The inverse circuit: the same gates in reverse order."""
    n = len(circuit.gates)
    barriers = tuple(
        Barrier(n - b.position, b.label) for b in reversed(circuit.barriers)
    )
    return Circuit(circuit.layout, tuple(reversed(circuit.gates)), barriers)


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
    return asap_slices(circuit.gates)


def asap_slices(gates: Sequence[Gate]) -> list[list[int]]:
    """The slices of :func:`schedule_asap` for a bare gate sequence."""
    starts: list[int] = []  # index of the first gate of every slice but one
    used: set[Wire] = set()  # wires of the open slice
    update, clear = used.update, used.clear
    size = 0
    for i, (_, controls, target, _) in enumerate(gates):
        wires = (*controls, target)
        update(wires)
        size += len(wires)
        # a gate's own wires are distinct, so the set grew by less than
        # len(wires) only if one of them was in use: open a new slice
        if len(used) != size:
            starts.append(i)
            clear()
            update(wires)
            size = len(wires)
    bounds = [0, *starts, len(gates)] if gates else []
    return [list(range(a, b)) for a, b in zip(bounds, bounds[1:])]


def count_toffoli_slices(gates: Sequence[Gate],
                         slices: list[list[int]]) -> int:
    """How many of ``slices`` (index lists into ``gates``) hold a Toffoli."""
    toffoli = GateKind.TOFFOLI
    return sum(any(gates[i][0] is toffoli for i in sl) for sl in slices)


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
    level: dict[Wire, int] = {}
    get = level.get
    buckets: list[list[Gate]] = []
    depth = 0
    for g in gates:
        _, controls, target, _ = g
        lv = get(target, 0)
        for c in controls:
            lc = get(c, 0)
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


def constant_propagate(circuit: Circuit, constants: Mapping[Wire, int]) -> Circuit:
    """Simplify a circuit against wires with compile-time-known values.

    Rules, applied in one forward pass with constant tracking:

    * a control known to be 0 deletes the gate;
    * a control known to be 1 is dropped (Toffoli -> CNOT -> NOT);
    * a gate whose target value stays compile-time-known updates the tracked
      constant and emits no gate.

    The result is equivalent to the input on all non-constant wires.  Reading
    one of the *declared* constant wires after it has been overwritten with a
    non-constant value raises :class:`InternalConsistencyError`.
    """
    for w, v in constants.items():
        circuit.layout.flat_index(w)
        if v not in (0, 1):
            raise CircuitError(f"constant for {w!r} must be 0 or 1, got {v}")
    known: dict[Wire, int] = dict(constants)
    declared = set(constants)
    clobbered: set[Wire] = set()
    out: list[Gate] = []
    old_to_new: list[int] = []
    for g in circuit.gates:
        old_to_new.append(len(out))
        for c in g.controls:
            if c in clobbered:
                raise InternalConsistencyError(
                    f"declared-constant wire {c!r} read after non-constant write"
                )
        vals = [known.get(c) for c in g.controls]
        if any(v == 0 for v in vals):
            continue
        live = tuple(c for c, v in zip(g.controls, vals) if v is None)
        if g.target in known:
            if not live:
                known[g.target] ^= 1
                continue
            del known[g.target]
            if g.target in declared:
                clobbered.add(g.target)
        kinds = {0: GateKind.NOT, 1: GateKind.CNOT, 2: GateKind.TOFFOLI}
        out.append(Gate(kinds[len(live)], live, g.target, g.phase))
    old_to_new.append(len(out))
    barriers = tuple(
        Barrier(old_to_new[b.position], b.label) for b in circuit.barriers
    )
    return Circuit(circuit.layout, out, barriers)


def lightcone(circuit: Circuit, sink: Wire) -> set[int]:
    """Indices of gates that can influence the final value of ``sink``.

    Walks the gate list backwards, marking gates that write a marked wire and
    then marking their control and target wires.
    """
    circuit.layout.flat_index(sink)
    marked = {sink}
    cone: set[int] = set()
    for i in range(len(circuit.gates) - 1, -1, -1):
        g = circuit.gates[i]
        if g.target in marked:
            cone.add(i)
            marked.update(g.controls)
    return cone
