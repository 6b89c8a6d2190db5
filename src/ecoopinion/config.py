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

from dataclasses import asdict, astuple, fields
from importlib.resources import files

from .dynamics import EnvParams, SystemState, TrustMatrix
from .game import FieldError, GamePair, Payoff2x2, hawk_dove_matrix
from .integrate import IntegratorSettings
from .scenario import AXES, Scenario

PRESET_NAMES = ("hawk-dove", "prisoners-dilemma")

# The config keys are the owning types' field names; only the initial state's
# fields x, n, y are renamed, to AXES.
_MATRIX_KEYS = tuple(f.name for f in fields(GamePair))
_HAWK_DOVE_KEYS = ("v0", "c0", "v1", "c1")
_ENV_KEYS = tuple(f.name for f in fields(EnvParams))
_TRUST_KEYS = tuple(f.name for f in fields(TrustMatrix))
# Each setting parses as the type of its default: record_every is an int.
_SETTING_DEFAULTS = asdict(IntegratorSettings())
_SETTINGS_KEYS = tuple(_SETTING_DEFAULTS)
_ALL_KEYS = frozenset(_MATRIX_KEYS + _HAWK_DOVE_KEYS + _ENV_KEYS + _TRUST_KEYS + AXES
                      + _SETTINGS_KEYS + ("label", "protocol_matrix_mode"))


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


def _entries(text: str, source: str, overrides) -> dict:
    """Map each key to (raw value, line) from the file's lines, then from the
    KEY=VALUE overrides. An override has no line, may replace a file entry,
    and keeps '#' as part of its value."""
    entries: dict[str, tuple[str, int | None]] = {}
    lines = text.splitlines()
    for index, raw in enumerate(lines + list(overrides)):
        line = index + 1 if index < len(lines) else None
        body = raw.split("#", 1)[0].strip() if line else raw
        if line and not body:
            continue
        if "=" not in body:
            message = "expected 'key = value'" if line else f"override {raw!r} is not KEY=VALUE"
            raise ConfigError(message, line=line, source=source)
        key, value = body.split("=", 1)
        key = key.strip()
        value = value.strip()
        where = "" if line else " in --set override"
        if line and not key:
            raise ConfigError("empty key", line=line, source=source)
        if key not in _ALL_KEYS:
            raise ConfigError("unknown key" + where, key=key, line=line, source=source)
        if line and key in entries:
            raise ConfigError("duplicate key", key=key, line=line, source=source)
        if not value:
            raise ConfigError("empty value" + where, key=key, line=line, source=source)
        entries[key] = (value, line)
    return entries


def parse_config(text: str, source: str = "<config>", overrides=()) -> Scenario:
    """Parse scenario text into a fully validated Scenario.

    overrides is a sequence of KEY=VALUE strings applied on top of the file's
    entries before validation (the CLI's --set flag). Every failure raises
    ConfigError naming the offending key and, for a file entry, its line.
    """
    entries = _entries(text, source, overrides)

    def error(message, key):
        line = entries[key][1] if key in entries else None
        return ConfigError(message, key=key, line=line, source=source)

    def value(key, parse=float, default=None):
        """The entry for key parsed by parse, or default when it is absent;
        a missing key with no default is an error."""
        if key not in entries:
            if default is None:
                raise ConfigError("missing required key", key=key, source=source)
            return default
        raw = entries[key][0]
        try:
            return parse(raw)
        except ValueError:
            kind = "integer" if parse is int else "number"
            raise error(f"malformed {kind} {raw!r}", key) from None

    def build(factory, *args, key=None, suffix=""):
        """factory(*args). The owning type checks its own rules. Its FieldError
        is reported at `key`, or at the rule's field (name plus suffix: hawk-dove
        "v" is key "v0" or "v1") that --set gave if it gave exactly one, else the
        first; a message that opens with the first field's name opens with its key."""
        try:
            return factory(*args)
        except FieldError as exc:
            keys = [key] if key else [k + suffix for k in exc.keys]
            changed = [k for k in keys if k in entries and entries[k][1] is None]
            message = str(exc)
            if suffix and message.startswith(exc.key + " "):
                message = keys[0] + message[len(exc.key):]
            raise error(message, changed[0] if len(changed) == 1 else keys[0]) from None

    def matrix(key):
        raw = value(key, str)
        parts = raw.split(",")
        if len(parts) != 4:
            raise error("expected four comma-separated entries (a11, a12, a21, a22), "
                        f"got {len(parts)}", key)
        try:
            numbers = [float(p) for p in parts]
        except ValueError:
            raise error(f"malformed number in matrix {raw!r}", key) from None
        return build(Payoff2x2, *numbers, key=key)

    has_matrices = [k for k in _MATRIX_KEYS if k in entries]
    has_hd = [k for k in _HAWK_DOVE_KEYS if k in entries]
    if has_matrices and has_hd:
        raise ConfigError(f"give either matrices {_MATRIX_KEYS} or hawk-dove parameters "
                          f"{_HAWK_DOVE_KEYS}, not both", key=has_hd[0], source=source)
    if has_matrices:
        pair = GamePair(*[matrix(k) for k in _MATRIX_KEYS])
    elif has_hd:
        pair = GamePair(*[build(hawk_dove_matrix, value("v" + i), value("c" + i), suffix=i)
                          for i in "01"])
    else:
        raise ConfigError(f"missing game definition: give {_MATRIX_KEYS} or {_HAWK_DOVE_KEYS}",
                          key="a0", source=source)

    env = build(EnvParams, *[value(k) for k in _ENV_KEYS])
    trust = build(TrustMatrix, *[value(k) for k in _TRUST_KEYS])
    initial = build(SystemState, *[value(k) for k in AXES], suffix="0")
    settings = build(IntegratorSettings,
                     *[value(k, type(d), d) for k, d in _SETTING_DEFAULTS.items()])
    mode = value("protocol_matrix_mode", str, "env")
    label = value("label", str, "scenario")
    return build(Scenario, pair, env, trust, initial, settings, mode, label)


def load_config(path, overrides=()) -> Scenario:
    """Read and parse a scenario file; see parse_config."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}", source=str(path)) from exc
    return parse_config(text, source=str(path), overrides=overrides)


def dumps_config(scenario: Scenario) -> str:
    """Serialize a Scenario to config text, one `key = value` line per key;
    parse_config inverts this field-for-field."""
    items = [("label", scenario.label)]
    items += [(k, ", ".join(map(repr, getattr(scenario.pair, k).entries()))) for k in _MATRIX_KEYS]
    for keys, owner in ((_ENV_KEYS, scenario.env), (_TRUST_KEYS, scenario.trust),
                        (AXES, scenario.initial), (_SETTINGS_KEYS, scenario.settings)):
        items += zip(keys, map(repr, astuple(owner)))
    items.append(("protocol_matrix_mode", scenario.protocol_matrix_mode))
    return "".join(f"{k} = {v}\n" for k, v in items)


def save_config(scenario: Scenario, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(dumps_config(scenario))


def preset_text(name: str) -> str:
    """Raw config text of a shipped preset."""
    if name not in PRESET_NAMES:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
    return (files("ecoopinion") / "presets" / f"{name}.cfg").read_text(encoding="utf-8")


def preset_scenario(name: str, overrides=()) -> Scenario:
    """Parsed Scenario for a shipped preset."""
    return parse_config(preset_text(name), source=f"preset:{name}", overrides=overrides)
