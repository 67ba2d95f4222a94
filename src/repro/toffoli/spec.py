"""Specification of the N-controlled gate and the common result record.

A :class:`GeneralizedToffoli` captures *what* is being decomposed: how many
controls, which value activates each control, and which single-wire gate is
applied to the target.  Every construction module consumes a spec and emits
a :class:`ConstructionResult` with the circuit plus an account of the wires
it used (data wires, clean ancilla, borrowed dirty ancilla) so that tests
and benchmarks can verify semantics and count resources uniformly.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Callable, Sequence

from ..circuits.circuit import Circuit
from ..exceptions import DecompositionError
from ..qudits import Qudit


@dataclass(frozen=True)
class GeneralizedToffoli:
    """An N-controlled single-target gate.

    ``control_values[i]`` is the activation value of control ``i`` (all 1
    by default).  ``target_flip`` describes the classical action on a binary
    target; non-classical targets (e.g. Z for Grover) are handled by the
    constructions through the gate they are given, but the *spec*-level
    reference semantics below assume a permutation target so exhaustive
    classical verification stays linear.
    """

    num_controls: int
    control_values: tuple[int, ...] = field(default=())

    def __post_init__(self) -> None:
        try:
            count = operator.index(self.num_controls)
        except TypeError:
            raise TypeError(
                f"num_controls must be an integer, got "
                f"{type(self.num_controls).__name__}"
            ) from None
        if count < 0:
            raise ValueError("num_controls must be non-negative")
        object.__setattr__(self, "num_controls", count)
        if not self.control_values:
            object.__setattr__(
                self, "control_values", (1,) * self.num_controls
            )
        if len(self.control_values) != self.num_controls:
            raise ValueError(
                f"{self.num_controls} controls but "
                f"{len(self.control_values)} control values"
            )

    @property
    def num_inputs(self) -> int:
        """Total data wires: controls plus the target."""
        return self.num_controls + 1

    def is_active(self, control_inputs: Sequence[int]) -> bool:
        """True iff every control input matches its activation value."""
        if len(control_inputs) != self.num_controls:
            raise ValueError(
                f"expected {self.num_controls} control inputs, "
                f"got {len(control_inputs)}"
            )
        return all(
            value == active
            for value, active in zip(control_inputs, self.control_values)
        )

    def reference_output(
        self,
        control_inputs: Sequence[int],
        target_input: int,
        target_action: Callable[[int], int] | None = None,
    ) -> tuple[tuple[int, ...], int]:
        """Ideal classical output: controls unchanged; target acted on iff
        all controls are active.  ``target_action`` defaults to NOT."""
        action = target_action or (lambda b: b ^ 1)
        target_output = (
            action(target_input)
            if self.is_active(control_inputs)
            else target_input
        )
        return tuple(control_inputs), target_output


@dataclass
class ConstructionResult:
    """A concrete decomposition of a :class:`GeneralizedToffoli`.

    Attributes
    ----------
    circuit:
        The scheduled circuit.
    controls / target:
        The data wires, in spec order.
    clean_ancilla:
        Wires the construction requires to start in |0> (He's tree).
    borrowed_ancilla:
        Dirty wires: any initial state, restored at the end (Gidney-style).
    spec:
        The spec this circuit implements.
    name:
        Registry name of the construction that produced it.
    """

    circuit: Circuit
    controls: list[Qudit]
    target: Qudit
    spec: GeneralizedToffoli
    name: str
    clean_ancilla: list[Qudit] = field(default_factory=list)
    borrowed_ancilla: list[Qudit] = field(default_factory=list)

    @property
    def all_wires(self) -> list[Qudit]:
        """Data wires then ancilla, in a stable order."""
        return (
            list(self.controls)
            + [self.target]
            + list(self.clean_ancilla)
            + list(self.borrowed_ancilla)
        )

    @property
    def ancilla_count(self) -> int:
        """Clean + borrowed ancilla count (the paper's space overhead)."""
        return len(self.clean_ancilla) + len(self.borrowed_ancilla)

    def describe(self) -> str:
        """One-line resource summary used by benchmarks."""
        return (
            f"{self.name}(N={self.spec.num_controls}): "
            f"depth={self.circuit.depth}, "
            f"2q-gates={self.circuit.two_qudit_gate_count}, "
            f"ancilla={self.ancilla_count} "
            f"({len(self.clean_ancilla)} clean, "
            f"{len(self.borrowed_ancilla)} borrowed)"
        )


def require_min_controls(spec: GeneralizedToffoli, minimum: int, name: str) -> None:
    """Raise a uniform error when a construction needs more controls."""
    if spec.num_controls < minimum:
        raise DecompositionError(
            f"{name} needs at least {minimum} controls, "
            f"got {spec.num_controls}"
        )
