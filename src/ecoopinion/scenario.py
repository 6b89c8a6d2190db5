"""A Scenario bundles everything one deterministic run needs: the game pair,
environment rates, trust matrix, initial state, and integrator settings."""

from __future__ import annotations

from dataclasses import dataclass, replace

from .dynamics import EnvParams, GamePair, SystemState, TrustMatrix, PROTOCOL_MODES, make_rhs
from .game import FieldError, finite
from .integrate import IntegratorSettings

AXES = ("x0", "n0", "y0")


@dataclass(frozen=True)
class Scenario:
    """One run's inputs. The initial state lies in the unit cube, and the
    label is one stripped line without '#', encodable as UTF-8, so that
    config text carries it unchanged."""

    pair: GamePair
    env: EnvParams
    trust: TrustMatrix
    initial: SystemState
    settings: IntegratorSettings = IntegratorSettings()
    protocol_matrix_mode: str = "env"
    label: str = "scenario"

    def __post_init__(self):
        label = self.label
        if label.splitlines() != [label] or label != label.strip() or "#" in label:
            raise FieldError(
                "label", f"label must be a nonempty stripped single line without '#', got {label!r}"
            )
        try:
            label.encode("utf-8")
        except UnicodeEncodeError as err:
            raise FieldError("label", f"label must be encodable as UTF-8: {err}") from None
        if self.protocol_matrix_mode not in PROTOCOL_MODES:
            raise FieldError(
                "protocol_matrix_mode",
                f"protocol_matrix_mode must be one of {PROTOCOL_MODES}, "
                f"got {self.protocol_matrix_mode!r}",
            )
        for name, value in zip(AXES, (self.initial.x, self.initial.n, self.initial.y)):
            if not 0.0 <= value <= 1.0:
                raise FieldError(name, f"initial {name}={value!r} outside [0, 1]")

    def rhs(self):
        """The make_rhs evaluator of this scenario's pair, env, trust and
        protocol mode."""
        return make_rhs(self.pair, self.env, self.trust, self.protocol_matrix_mode)

    def with_initial(self, axis: str, value: float) -> "Scenario":
        """Copy of this scenario with one initial coordinate replaced; the
        copy is checked like any Scenario."""
        if axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
        # Axis "x0" sets the state's field "x", and so on.
        return replace(self, initial=replace(self.initial, **{axis[0]: finite(axis, value)}))
