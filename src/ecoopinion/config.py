"""Flat `key = value` scenario files: parsing, serialization, and the shipped
presets. Config checks syntax only; each value's rules belong to the type
that holds it, and its error is reported here at the key and line.

Format rules: one `key = value` per line, `#` starts a comment, blank lines
are ignored. Payoff matrices are four comma-separated entries row-major
(`a0 = -4, 4, 0, 2`); hawk-dove scenarios may instead give `v0, c0, v1, c1`
and have the matrices built from them. Unknown and duplicate keys are errors;
omitted optional keys take the documented defaults.
"""

from __future__ import annotations

from dataclasses import asdict
from importlib.resources import files

from .dynamics import EnvParams, SystemState, TrustMatrix
from .game import FieldError, GamePair, Payoff2x2, hawk_dove_matrix
from .integrate import IntegratorSettings
from .scenario import AXES, Scenario

PRESET_NAMES = ("hawk-dove", "prisoners-dilemma")
_PRESET_FILES = {
    "hawk-dove": "hawk_dove.cfg",
    "prisoners-dilemma": "prisoners_dilemma.cfg",
}

_MATRIX_KEYS = ("a0", "a1")
_HAWK_DOVE_KEYS = ("v0", "c0", "v1", "c1")
_TRUST_KEYS = ("b11", "b12", "b21", "b22")
_SCALAR_KEYS = ("theta", "psi") + AXES + _TRUST_KEYS
# Each setting parses as the type of its default: record_every is an int.
_SETTING_DEFAULTS = asdict(IntegratorSettings())
_SETTINGS_KEYS = tuple(_SETTING_DEFAULTS)
_OTHER_KEYS = ("label", "protocol_matrix_mode")
_ALL_KEYS = frozenset(_MATRIX_KEYS + _HAWK_DOVE_KEYS + _SCALAR_KEYS
                      + _SETTINGS_KEYS + _OTHER_KEYS)


class ConfigError(ValueError):
    """A scenario file or override failed to parse or validate."""

    def __init__(self, message, *, key=None, line=None, source=None):
        where = []
        if source is not None:
            where.append(str(source))
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        full = f"{', '.join(where)}: {message}" if where else message
        super().__init__(full)
        self.key = key
        self.line = line
        self.source = source


def _tokenize(text: str, source: str) -> dict:
    entries: dict[str, tuple[str, int | None]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        if "=" not in body:
            raise ConfigError("expected 'key = value'", line=lineno, source=source)
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        if not key:
            raise ConfigError("empty key", line=lineno, source=source)
        if key not in _ALL_KEYS:
            raise ConfigError("unknown key", key=key, line=lineno, source=source)
        if key in entries:
            raise ConfigError("duplicate key", key=key, line=lineno, source=source)
        if not value:
            raise ConfigError("empty value", key=key, line=lineno, source=source)
        entries[key] = (value, lineno)
    return entries


def _apply_overrides(entries: dict, overrides, source: str) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} is not KEY=VALUE", source=source)
        key, value = item.split("=", 1)
        key = key.strip()
        value = value.strip()
        if key not in _ALL_KEYS:
            raise ConfigError("unknown key in --set override", key=key, source=source)
        if not value:
            raise ConfigError("empty value in --set override", key=key, source=source)
        entries[key] = (value, None)


class _Builder:
    def __init__(self, entries, source):
        self.entries = entries
        self.source = source

    def error(self, message, key):
        line = self.entries[key][1] if key in self.entries else None
        return ConfigError(message, key=key, line=line, source=self.source)

    def value(self, key, parse=float, default=None):
        """The entry for key parsed by parse, or default when it is absent;
        a missing key with no default is an error."""
        if key not in self.entries:
            if default is None:
                raise ConfigError("missing required key", key=key, source=self.source)
            return default
        raw = self.entries[key][0]
        try:
            return parse(raw)
        except ValueError:
            kind = "integer" if parse is int else "number"
            raise self.error(f"malformed {kind} {raw!r}", key) from None

    def matrix(self, key):
        raw = self.value(key, str)
        parts = raw.split(",")
        if len(parts) != 4:
            raise self.error(
                f"expected four comma-separated entries (a11, a12, a21, a22), got {len(parts)}",
                key,
            )
        try:
            return [float(p) for p in parts]
        except ValueError:
            raise self.error(f"malformed number in matrix {raw!r}", key) from None

    def build(self, factory, *args, key=None, suffix=""):
        """factory(*args). The owning type checks its own rules; the field it
        names in a FieldError is reported at config key `key`, or at the
        field name plus suffix (hawk-dove "v" is key "v0" or "v1")."""
        try:
            return factory(*args)
        except FieldError as exc:
            raise self.error(str(exc), key or exc.key + suffix) from None


def parse_config(text: str, source: str = "<config>", overrides=()) -> Scenario:
    """Parse scenario text into a fully validated Scenario.

    overrides is a sequence of KEY=VALUE strings applied on top of the file's
    entries before validation (the CLI's --set flag). Every failure raises
    ConfigError naming the offending key and, for a file entry, its line.
    """
    entries = _tokenize(text, source)
    _apply_overrides(entries, overrides, source)
    b = _Builder(entries, source)

    has_matrices = [k for k in _MATRIX_KEYS if k in entries]
    has_hd = [k for k in _HAWK_DOVE_KEYS if k in entries]
    if has_matrices and has_hd:
        raise ConfigError(
            f"give either matrices {_MATRIX_KEYS} or hawk-dove parameters "
            f"{_HAWK_DOVE_KEYS}, not both",
            key=has_hd[0],
            source=source,
        )
    if has_matrices:
        pair = GamePair(*(b.build(Payoff2x2, *b.matrix(k), key=k) for k in _MATRIX_KEYS))
    elif has_hd:
        pair = GamePair(*(b.build(hawk_dove_matrix, b.value("v" + i), b.value("c" + i), suffix=i)
                          for i in "01"))
    else:
        raise ConfigError(
            f"missing game definition: give {_MATRIX_KEYS} or {_HAWK_DOVE_KEYS}",
            key="a0",
            source=source,
        )

    env = b.build(EnvParams, b.value("theta"), b.value("psi"))
    trust = b.build(TrustMatrix, *(b.value(k) for k in _TRUST_KEYS))
    initial = b.build(SystemState, *(b.value(k) for k in AXES), suffix="0")
    settings = b.build(IntegratorSettings,
                       *(b.value(k, type(v), v) for k, v in _SETTING_DEFAULTS.items()))
    mode = b.value("protocol_matrix_mode", str, "env")
    label = b.value("label", str, "scenario")
    return b.build(Scenario, pair, env, trust, initial, settings, mode, label)


def load_config(path, overrides=()) -> Scenario:
    """Read and parse a scenario file; see parse_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", source=str(path)) from exc
    return parse_config(text, source=str(path), overrides=overrides)


def dumps_config(scenario: Scenario) -> str:
    """Serialize a Scenario to config text; parse_config inverts this
    field-for-field."""
    s = scenario.settings
    a0 = ", ".join(repr(v) for v in scenario.pair.a0.entries())
    a1 = ", ".join(repr(v) for v in scenario.pair.a1.entries())
    lines = [
        f"label = {scenario.label}",
        "",
        "# game (row-major: a11, a12, a21, a22)",
        f"a0 = {a0}",
        f"a1 = {a1}",
        "",
        "# environment rates",
        f"theta = {scenario.env.theta!r}",
        f"psi = {scenario.env.psi!r}",
        "",
        "# trust matrix",
        f"b11 = {scenario.trust.b11!r}",
        f"b12 = {scenario.trust.b12!r}",
        f"b21 = {scenario.trust.b21!r}",
        f"b22 = {scenario.trust.b22!r}",
        "",
        "# initial state",
        f"x0 = {scenario.initial.x!r}",
        f"n0 = {scenario.initial.n!r}",
        f"y0 = {scenario.initial.y!r}",
        "",
        "# integrator",
        f"dt = {s.dt!r}",
        f"t_max = {s.t_max!r}",
        f"record_every = {s.record_every!r}",
        f"eps_stationary = {s.eps_stationary!r}",
        f"hold_time = {s.hold_time!r}",
        f"projection_tolerance = {s.projection_tolerance!r}",
        f"protocol_matrix_mode = {scenario.protocol_matrix_mode}",
    ]
    return "\n".join(lines) + "\n"


def save_config(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_config(scenario))


def preset_text(name: str) -> str:
    """Raw config text of a shipped preset."""
    if name not in _PRESET_FILES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return (files("ecoopinion") / "presets" / _PRESET_FILES[name]).read_text(encoding="utf-8")


def preset_scenario(name: str, overrides=()) -> Scenario:
    """Parsed Scenario for a shipped preset."""
    return parse_config(preset_text(name), source=f"preset:{name}", overrides=overrides)
