import dataclasses
import random

import pytest

from ecoopinion import (
    ConfigError,
    EnvParams,
    GamePair,
    IntegratorSettings,
    Payoff2x2,
    SystemState,
    TrustMatrix,
    dumps_config,
    load_config,
    parse_config,
    preset_scenario,
    preset_text,
)
from ecoopinion.scenario import Scenario

MATRICES = """a0 = 3.5, 1, 2, 0.75
a1 = 4, 1, 4.5, 1.25"""

MINIMAL = f"""
{MATRICES}
theta = 2
psi = -1
b11 = 0.5
b12 = 0
b21 = 0
b22 = 0.5
x0 = 0.5
n0 = 0.3
y0 = 0.6
"""


class TestPresets:
    def test_hawk_dove_parameters(self):
        sc = preset_scenario("hawk-dove")
        assert sc.env == EnvParams(2.0, -1.0)
        assert sc.initial == SystemState(0.5, 0.3, 0.45)
        assert sc.pair.a0 == Payoff2x2(-4.0, 4.0, 0.0, 2.0)
        assert sc.pair.a1 == Payoff2x2(-1.5, 7.0, 0.0, 3.5)
        assert sc.trust == TrustMatrix(0.5, 0.0, 0.0, 0.5)
        assert sc.settings == IntegratorSettings()
        assert sc.protocol_matrix_mode == "env"
        assert sc.label == "hawk-dove"

    def test_prisoners_dilemma_parameters(self):
        sc = preset_scenario("prisoners-dilemma")
        assert sc.pair.a0 == Payoff2x2(3.5, 1.0, 2.0, 0.75)
        assert sc.pair.a1 == Payoff2x2(4.0, 1.0, 4.5, 1.25)
        assert sc.initial == SystemState(0.5, 0.3, 0.6)
        assert sc.trust == TrustMatrix(0.5, 0.0, 0.0, 0.5)

    def test_unknown_preset(self):
        with pytest.raises(ConfigError):
            preset_text("chicken")


class TestParsing:
    def test_minimal_with_defaults(self):
        sc = parse_config(MINIMAL)
        assert sc.label == "scenario"
        assert sc.settings == IntegratorSettings()
        assert sc.protocol_matrix_mode == "env"

    def test_trust_range_error_names_key(self):
        text = MINIMAL.replace("b11 = 0.5", "b11 = 1.5")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "b11" in str(exc.value)
        assert exc.value.key == "b11"
        assert exc.value.line == text.splitlines().index("b11 = 1.5") + 1

    def test_unknown_key_reports_line(self):
        text = MINIMAL + "thetaa = 3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "thetaa" in str(exc.value)
        assert exc.value.line is not None

    def test_duplicate_key(self):
        text = MINIMAL + "theta = 3\n"
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "duplicate" in str(exc.value)

    def test_malformed_number(self):
        text = MINIMAL.replace("theta = 2", "theta = two")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "theta" in str(exc.value) and "two" in str(exc.value)

    def test_missing_required_key(self):
        text = MINIMAL.replace("theta = 2\n", "")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.key == "theta"

    def test_missing_game(self):
        text = MINIMAL.replace("a0 = 3.5, 1, 2, 0.75\n", "").replace("a1 = 4, 1, 4.5, 1.25\n", "")
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_matrix_and_hawk_dove_forms_conflict(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "v0 = 4\n")
        assert "not both" in str(exc.value)

    def test_matrix_needs_four_entries(self):
        text = MINIMAL.replace("a0 = 3.5, 1, 2, 0.75", "a0 = 3.5, 1, 2")
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "four" in str(exc.value)

    def test_hawk_dove_regime_enforced(self):
        text = """
v0 = 12
c0 = 4
v1 = 7
c1 = 10
theta = 2
psi = -1
b11 = 0.5
b12 = 0
b21 = 0
b22 = 0.5
x0 = 0.5
n0 = 0.3
y0 = 0.45
"""
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert "v0" in str(exc.value)

    @pytest.mark.parametrize("old,bad,key", [
        ("theta = 2", "theta = -2", "theta"),
        ("psi = -1", "psi = 0.5", "psi"),
        ("x0 = 0.5", "x0 = 1.2", "x0"),
        (None, "dt = 0", "dt"),
        (None, "t_max = 0.001", "t_max"),
        (None, "record_every = 0", "record_every"),
        (None, "eps_stationary = 0", "eps_stationary"),
        (None, "hold_time = -1", "hold_time"),
        ("theta = 2", "theta = nan", "theta"),
        ("psi = -1", "psi = nan", "psi"),
        (None, "dt = inf", "dt"),
        (None, "t_max = inf", "t_max"),
        (None, "eps_stationary = nan", "eps_stationary"),
        (None, "hold_time = inf", "hold_time"),
        ("b11 = 0.5", "b11 = nan", "b11"),
        ("n0 = 0.3", "n0 = inf", "n0"),
        ("a1 = 4, 1, 4.5, 1.25", "a1 = 4, 1, inf, 1.25", "a1"),
        (None, "protocol_matrix_mode = both", "protocol_matrix_mode"),
        pytest.param(MATRICES, "v0 = 4\nc0 = inf\nv1 = 7\nc1 = 10", "c0",
                     id="hawk-dove-c0-inf"),
    ])
    def test_sign_and_range_checks(self, old, bad, key):
        text = MINIMAL + bad + "\n" if old is None else MINIMAL.replace(old, bad)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert key in str(exc.value)
        assert exc.value.key == key
        key_lines = [k for k, line in enumerate(text.splitlines(), start=1)
                     if line.split("=")[0].strip() == key]
        assert [exc.value.line] == key_lines

    def test_not_key_value(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL + "just words\n")
        assert exc.value.line is not None

    def test_bad_mode(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL + "protocol_matrix_mode = both\n")

    def test_comments_and_blank_lines_ignored(self):
        text = "# leading comment\n\n" + MINIMAL + "label = pd  # trailing comment\n"
        assert parse_config(text).label == "pd"


    # Every syntax error, pinned exactly: (text or override, str(exc), key, line).
    @pytest.mark.parametrize("text,overrides,message,key,line", [
        pytest.param(MINIMAL + "just words\n", (),
                     "<config>, line 13: expected 'key = value'", None, 13, id="not-key-value"),
        pytest.param(MINIMAL + " = 3\n", (), "<config>, line 13: empty key", None, 13,
                     id="empty-key"),
        pytest.param(MINIMAL + "thetaa = 3\n", (),
                     "<config>, line 13, key 'thetaa': unknown key", "thetaa", 13, id="unknown-key"),
        # The cube-overshoot tolerance is a module constant, not a setting.
        pytest.param(MINIMAL + "projection_tolerance = 1e-9\n", (),
                     "<config>, line 13, key 'projection_tolerance': unknown key",
                     "projection_tolerance", 13, id="unknown-key-projection-tolerance"),
        pytest.param(MINIMAL + "theta = 3\n", (),
                     "<config>, line 13, key 'theta': duplicate key", "theta", 13,
                     id="duplicate-key"),
        pytest.param(MINIMAL + "label =  # none\n", (),
                     "<config>, line 13, key 'label': empty value", "label", 13, id="empty-value"),
        pytest.param(MINIMAL.replace("theta = 2", "theta = two"), (),
                     "<config>, line 4, key 'theta': malformed number 'two'", "theta", 4,
                     id="malformed-number"),
        pytest.param(MINIMAL + "record_every = 2.5\n", (),
                     "<config>, line 13, key 'record_every': malformed integer '2.5'",
                     "record_every", 13, id="malformed-integer"),
        pytest.param(MINIMAL.replace("a0 = 3.5, 1, 2, 0.75", "a0 = 3.5, 1, 2"), (),
                     "<config>, line 2, key 'a0': expected four comma-separated entries "
                     "(a11, a12, a21, a22), got 3", "a0", 2, id="matrix-three-entries"),
        pytest.param(MINIMAL.replace("a1 = 4, 1, 4.5, 1.25", "a1 = 4, x, 4.5, 1"), (),
                     "<config>, line 3, key 'a1': malformed number in matrix '4, x, 4.5, 1'",
                     "a1", 3, id="matrix-malformed-entry"),
        pytest.param(MINIMAL.replace("theta = 2\n", ""), (),
                     "<config>, key 'theta': missing required key", "theta", None,
                     id="missing-required-key"),
        pytest.param(MINIMAL.replace(MATRICES + "\n", ""), (),
                     "<config>, key 'a0': missing game definition: give ('a0', 'a1') or "
                     "('v0', 'c0', 'v1', 'c1')", "a0", None, id="missing-game"),
        pytest.param(MINIMAL + "c1 = 4\n", (),
                     "<config>, key 'c1': give either matrices ('a0', 'a1') or hawk-dove "
                     "parameters ('v0', 'c0', 'v1', 'c1'), not both", "c1", None,
                     id="both-game-forms"),
        pytest.param(MINIMAL, ("oops",), "<config>: override 'oops' is not KEY=VALUE",
                     None, None, id="override-oops"),
        pytest.param(MINIMAL, ("",), "<config>: override '' is not KEY=VALUE",
                     None, None, id="override-empty"),
        pytest.param(MINIMAL, ("zz=1",), "<config>, key 'zz': unknown key in --set override",
                     "zz", None, id="override-unknown-key"),
        pytest.param(MINIMAL, ("y0=",), "<config>, key 'y0': empty value in --set override",
                     "y0", None, id="override-empty-value"),
    ])
    def test_error_pinned(self, text, overrides, message, key, line):
        with pytest.raises(ConfigError) as exc:
            parse_config(text, overrides=overrides)
        assert (str(exc.value), exc.value.key, exc.value.line, exc.value.source) == (
            message, key, line, "<config>")


class TestOverrides:
    def test_set_initial_condition(self):
        sc = parse_config(MINIMAL, overrides=("y0=0.7",))
        assert sc.initial.y == 0.7

    def test_override_unknown_key(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL, overrides=("zz=1",))

    def test_override_not_key_value(self):
        with pytest.raises(ConfigError):
            parse_config(MINIMAL, overrides=("oops",))

    def test_override_still_validated(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(MINIMAL, overrides=("b11=1.5",))
        assert "b11" in str(exc.value)
        assert exc.value.key == "b11" and exc.value.line is None

    # A rule over several keys is reported at the one --set changed when
    # exactly one was, else at its first key; a message that opens with a
    # field's name opens with the config key.
    @pytest.mark.parametrize("text_change,overrides,message,key,line", [
        (None, ("c1=5",), "key 'c1': hawk-dove game needs 0 < v < c, got v=7.0, c=5.0",
         "c1", None),
        (None, ("v1=6", "c1=5"), "key 'v1': hawk-dove game needs 0 < v < c, got v=6.0, c=5.0",
         "v1", None),
        (("c1 = 10", "c1 = 5"), (),
         "line 7, key 'v1': hawk-dove game needs 0 < v < c, got v=7.0, c=5.0", "v1", 7),
        (None, ("t_max=1e308",),
         "key 't_max': step count t_max/dt exceeds 100000000 for t_max=1e+308, dt=0.01",
         "t_max", None),
        (None, ("dt=1e-300",),
         "key 'dt': step count t_max/dt exceeds 100000000 for t_max=500.0, dt=1e-300",
         "dt", None),
        (None, ("dt=1000",), "key 'dt': t_max=500.0 must be at least dt=1000.0", "dt", None),
        (None, ("hold_time=2e6",), "key 'hold_time': step count hold_time/dt exceeds "
         "100000000 for hold_time=2000000.0, dt=0.01", "hold_time", None),
        (None, ("x0=inf",), "key 'x0': x0 must be finite, got inf", "x0", None),
        (None, ("v1=nan",), "key 'v1': v1 must be finite, got nan", "v1", None),
        (("c0 = 12", "c0 = inf"), (), "line 6, key 'c0': c0 must be finite, got inf", "c0", 6),
    ])
    def test_rule_error_names_the_changed_key(self, text_change, overrides, message, key, line):
        text = preset_text("hawk-dove")
        if text_change is not None:
            text = text.replace(*text_change)
        with pytest.raises(ConfigError) as exc:
            parse_config(text, source="hd", overrides=overrides)
        assert (str(exc.value), exc.value.key, exc.value.line) == ("hd, " + message, key, line)


class TestRoundTrip:
    def test_presets_round_trip(self):
        for name in ("hawk-dove", "prisoners-dilemma"):
            sc = preset_scenario(name)
            assert parse_config(dumps_config(sc)) == sc

    def test_custom_scenario_round_trips(self):
        sc = Scenario(
            GamePair(Payoff2x2(0.1, -2.25, 3.5, 1e-3), Payoff2x2(1 / 3, 0.7, -0.125, 9.0)),
            EnvParams(0.37, -2.5),
            TrustMatrix(1.0, 0.25, 0.0, 2 / 3),
            SystemState(0.123456789, 0.5, 1.0),
            IntegratorSettings(dt=0.002, t_max=77.7, record_every=3,
                               eps_stationary=1e-9, hold_time=0.5),
            protocol_matrix_mode="opinion",
            label="round-trip probe",
        )
        assert parse_config(dumps_config(sc)) == sc

    def test_random_scenarios_round_trip(self):
        rng = random.Random(20261018)

        def draw():
            return rng.choice([rng.uniform(-1e3, 1e3), rng.uniform(-1, 1), 0.0, 1 / 3,
                               rng.uniform(-1e-300, 1e-300), rng.uniform(-1e300, 1e300)])

        for k in range(200):
            sc = Scenario(
                GamePair(Payoff2x2(*(draw() for _ in range(4))),
                         Payoff2x2(*(draw() for _ in range(4)))),
                EnvParams(rng.uniform(1e-9, 50), -rng.uniform(0, 50)),
                TrustMatrix(*(rng.choice([rng.random(), 0.0, 1.0]) for _ in range(4))),
                SystemState(*(rng.choice([rng.random(), 0.0, 1.0]) for _ in range(3))),
                IntegratorSettings(dt=rng.uniform(1e-4, 1), t_max=rng.uniform(1, 1e4),
                                   record_every=rng.randint(1, 1000),
                                   eps_stationary=rng.uniform(1e-14, 1e-2),
                                   hold_time=rng.uniform(0, 10)),
                protocol_matrix_mode=("env", "opinion")[k % 2],
                label=rng.choice(["scenario", "pd run", f"probe-{k}", "a=b, c"]),
            )
            assert parse_config(dumps_config(sc)) == sc

    @pytest.mark.parametrize("label", [
        " padded ", "a\rb", "a\x0cb", "a\u2028b", "a\nb", "a#b", "", "a\udcffb",
    ])
    def test_rejects_labels_that_do_not_round_trip(self, label):
        sc = preset_scenario("hawk-dove")
        with pytest.raises(ValueError) as exc:
            dataclasses.replace(sc, label=label)
        assert exc.value.key == "label"

    def test_save_and_load(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        sc = preset_scenario("hawk-dove")
        path.write_text(dumps_config(sc), encoding="utf-8")
        assert load_config(path) == sc


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "nope.cfg")


def test_load_config_undecodable_file(tmp_path):
    path = tmp_path / "latin1.cfg"
    path.write_bytes(b"label = x\xff")
    with pytest.raises(ConfigError) as exc:
        load_config(path)
    assert str(exc.value) == (f"{path}: cannot read config file: 'utf-8' codec can't decode "
                              "byte 0xff in position 9: invalid start byte")


@pytest.mark.parametrize("name", ["hawk-dove", "prisoners-dilemma"])
def test_load_config_ignores_a_byte_order_mark(tmp_path, name):
    path = tmp_path / f"{name}.cfg"
    path.write_bytes(b"\xef\xbb\xbf" + preset_text(name).encode("utf-8"))
    assert load_config(path) == preset_scenario(name)
