import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from twofluid import config
from twofluid.errors import ConfigError


class TestDefaults:
    def test_empty_text_is_std1d(self):
        cfg = config.parse_config("")
        assert cfg.grid.dim == 1
        assert cfg.grid.n == 128
        assert cfg.grid.length == pytest.approx(2 * math.pi, rel=1e-16)
        assert (cfg.gamma_plus, cfg.gamma_minus) == (1.5, 3.0)
        assert (cfg.mu, cfg.lam) == (0.1, 0.0)
        assert (cfg.t_end, cfg.cfl) == (0.5, 0.4)
        assert cfg.initial_R.constant == 1.0
        assert cfg.initial_R.modes[0].amplitude == 0.2
        assert cfg.initial_Q.modes[0].phase == pytest.approx(math.pi / 2)
        assert cfg.perturbation.delta == 1e-3

    def test_std1d_initial_fields(self):
        cfg = config.default_config()
        state = config.build_initial_state(cfg)
        x = cfg.grid.axis_coords()
        assert np.allclose(state.R, 1 + 0.2 * np.sin(x), atol=1e-15)
        assert np.allclose(state.Q, 1 + 0.2 * np.cos(x), atol=1e-15)
        u = state.m / (state.R + state.Q)
        assert np.allclose(u[0], 0.1 * np.sin(x), atol=1e-15)


class TestRoundTrip:
    def test_default_round_trips(self):
        cfg = config.default_config()
        assert config.parse_config(config.serialize_config(cfg)) == cfg

    def test_custom_2d_round_trips(self):
        text = "\n".join(
            [
                "[grid]",
                "dim = 2",
                "n = 16",
                "[physics]",
                "gamma_plus = 1.75",
                "mu = 0.321",
                "[initial_R]",
                "constant = 2",
                "mode = 0.125 1 0 0.25",
                "mode = 0.0625 2 -1 1",
                "[initial_u]",
                "constant_x = 0.1",
                "mode_y = 0.05 0 1 0",
                "[perturbation]",
                "delta = 0.017",
            ]
        )
        cfg = config.parse_config(text)
        assert len(cfg.initial_R.modes) == 2
        assert cfg.initial_R.modes[1].wavevector == (2, -1)
        assert cfg.initial_u[1].modes[0].wavevector == (0, 1)
        assert config.parse_config(config.serialize_config(cfg)) == cfg

    def test_user_modes_replace_defaults(self):
        cfg = config.parse_config("[initial_R]\nmode = 0.1 3 0\n")
        assert len(cfg.initial_R.modes) == 1
        assert cfg.initial_R.modes[0].wavevector == (3,)


class TestValidation:
    def test_gamma_plus_invariant_message(self):
        with pytest.raises(ConfigError, match="gamma_plus must exceed 1"):
            config.parse_config("[physics]\ngamma_plus = 0.5\n")

    @pytest.mark.parametrize(
        "text,message",
        [
            ("[physics]\ngamma_minus = 1\n", "gamma_minus must exceed 1"),
            ("[physics]\ngamma_minus = 0.5\n", "gamma_minus must exceed 1"),
            ("[physics]\nmu = 0\n", "mu must be positive"),
            ("[physics]\nmu = -0.1\n", "mu must be positive"),
            ("[physics]\nmu = 0.1\nlambda = -0.2\n", "mu \\+ lambda must be nonnegative"),
            ("[time]\nt_end = -1e-3\n", "t_end must be nonnegative"),
            ("[time]\ncfl = 0\n", "cfl must lie in \\(0, 1\\]"),
            ("[time]\ncfl = 1.5\n", "cfl must lie in \\(0, 1\\]"),
            ("[time]\ndensity_floor = -1e-12\n", "density_floor must be nonnegative"),
        ],
    )
    def test_parameter_ranges(self, text, message):
        with pytest.raises(ConfigError, match=message):
            config.parse_config(text)

    @pytest.mark.parametrize(
        "text",
        [
            "[physics]\ngamma_minus = 1.0000001\n",
            "[physics]\nmu = 0.1\nlambda = -0.1\n",
            "[time]\nt_end = 0\ncfl = 1\ndensity_floor = 0\n",
        ],
    )
    def test_parameter_range_edges_accepted(self, text):
        config.parse_config(text)

    def test_unknown_key_reports_line(self):
        with pytest.raises(ConfigError, match="line 2"):
            config.parse_config("[grid]\nwat = 3\n")

    def test_unknown_section(self):
        with pytest.raises(ConfigError, match="unknown section"):
            config.parse_config("[grud]\nn = 16\n")

    def test_duplicate_scalar_key(self):
        with pytest.raises(ConfigError, match="duplicate"):
            config.parse_config("[grid]\nn = 16\nn = 32\n")

    def test_key_outside_section(self):
        with pytest.raises(ConfigError, match="outside"):
            config.parse_config("n = 16\n")

    def test_malformed_line(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            config.parse_config("[grid]\nnonsense\n")

    def test_mode_token_count(self):
        with pytest.raises(ConfigError, match="amplitude"):
            config.parse_config("[initial_R]\nmode = 0.1 1\n")

    def test_positivity_budget(self):
        with pytest.raises(ConfigError, match="not positive everywhere"):
            config.parse_config("[initial_R]\nconstant = 0.1\nmode = 0.2 1 0\n")

    def test_velocity_component_beyond_dim(self):
        with pytest.raises(ConfigError, match="exceeds grid dimension"):
            config.parse_config("[initial_u]\nconstant_y = 1\n")

    def test_bad_number_and_bool(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            config.parse_config("[physics]\nmu = fast\n")
        with pytest.raises(ConfigError, match="true/false"):
            config.parse_config("[output]\nfields = maybe\n")

    def test_grid_invariants_surface_as_config_errors(self):
        with pytest.raises(ConfigError, match="even"):
            config.parse_config("[grid]\nn = 33\n")


# A second valid value of every scalar key, read against a 3D grid so that
# every velocity component exists.
SECOND_VALUES = {
    "grid": {"dim": "2", "n": "64", "length": "3"},
    "physics": {"gamma_plus": "2", "gamma_minus": "2", "mu": "0.2", "lambda": "0.1"},
    "time": {"t_end": "0.25", "cfl": "0.5", "density_floor": "1e-9"},
    "initial_R": {"constant": "2"},
    "initial_Q": {"constant": "2"},
    "initial_u": {"constant_x": "0.5", "constant_y": "0.5", "constant_z": "0.5"},
    "perturbation": {"delta": "0.01", "wavevector": "3", "phase": "1"},
    "output": {"fields": "true"},
}


class TestOverrides:
    def test_every_scalar_key_has_a_reader(self):
        base = ["grid.dim=3"]
        parsed = config.parse_config(config.apply_overrides("", base))
        unread = [
            f"{section}.{key}"
            for section, keys in config._SCALAR_KEYS.items()
            for key in keys
            if config.parse_config(
                config.apply_overrides("", [*base, f"{section}.{key}={SECOND_VALUES[section][key]}"])
            )
            == parsed
        ]
        assert unread == []

    def test_set_scalar(self):
        text = config.apply_overrides("", ["physics.mu=0.25", "grid.n=64"])
        cfg = config.parse_config(text)
        assert cfg.mu == 0.25
        assert cfg.grid.n == 64

    def test_set_mode(self):
        text = config.apply_overrides("", ["initial_R.mode=0.05 4 0"])
        cfg = config.parse_config(text)
        assert cfg.initial_R.modes == (config.FourierMode(0.05, (4,), 0.0),)

    def test_bad_override_shapes(self):
        with pytest.raises(ConfigError):
            config.apply_overrides("", ["muequals0.2"])
        with pytest.raises(ConfigError):
            config.apply_overrides("", ["physics.nu=0.2"])
        with pytest.raises(ConfigError):
            config.apply_overrides("", ["mu=0.2"])

    def test_value_cannot_carry_further_lines(self):
        with pytest.raises(ConfigError, match="must be one line"):
            config.apply_overrides("", ["physics.mu=0.2\n[grid]\nn = 16"])


class TestInitialData:
    def test_multi_mode_2d_field(self):
        text = "\n".join(
            [
                "[grid]",
                "dim = 2",
                "n = 16",
                "[initial_R]",
                "constant = 2",
                "mode = 0.25 1 1 0",
                "[initial_Q]",
                "constant = 2",
                "mode = 0.1 0 2 1.5707963267948966",
            ]
        )
        cfg = config.parse_config(text)
        state = config.build_initial_state(cfg)
        x = cfg.grid.coordinates()
        assert np.allclose(state.R, 2 + 0.25 * np.sin(x[0] + x[1]), atol=1e-14)
        assert np.allclose(state.Q, 2 + 0.1 * np.sin(2 * x[1] + math.pi / 2), atol=1e-14)


def edit_lines(text, overrides):
    """The config text with each ``section.key=value`` written in as a line.

    The line replaces every line of that key in the section, or is added at
    the section's end; a missing section is appended.
    """
    lines = text.splitlines()
    for item in overrides:
        dotted, _, value = item.partition("=")
        section, _, key = dotted.partition(".")
        if f"[{section}]" not in lines:
            lines.append(f"[{section}]")
        start = lines.index(f"[{section}]") + 1
        end = next((i for i in range(start, len(lines)) if lines[i].startswith("[")), len(lines))
        body = [line for line in lines[start:end] if line.partition("=")[0].strip() != key]
        lines[start:end] = body + [f"{key} = {value}"]
    return "\n".join(lines)


def outcome(text):
    try:
        return config.parse_config(text)
    except ConfigError as err:
        return f"ConfigError: {err}"


def number(lo, hi):
    return st.floats(lo, hi).map(repr)


def mode(dim):
    ints = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim)
    return st.tuples(number(-0.3, 0.3), ints, number(-3.0, 3.0)).map(
        lambda m: " ".join([m[0], *map(str, m[1]), m[2]])
    )


def overrides(dim):
    """``section.key=value`` pairs drawn from valid values of the scalar and mode keys."""
    values = {
        "grid.n": st.sampled_from(["8", "16", "32"]),
        "grid.length": number(0.5, 10.0),
        "physics.gamma_plus": number(1.01, 4.0),
        "physics.gamma_minus": number(1.01, 4.0),
        "physics.mu": number(0.01, 1.0),
        "physics.lambda": number(0.0, 1.0),
        "time.t_end": number(0.0, 1.0),
        "time.cfl": number(0.05, 1.0),
        "time.density_floor": number(0.0, 1e-6),
        "initial_R.constant": number(1.5, 3.0),
        "initial_Q.constant": number(1.5, 3.0),
        "initial_R.mode": mode(dim),
        "initial_Q.mode": mode(dim),
        "perturbation.delta": number(-0.1, 0.1),
        "perturbation.wavevector": st.integers(1, 4).map(str),
        "perturbation.phase": number(-3.0, 3.0),
        "output.fields": st.sampled_from(["true", "false", "yes", "0"]),
    }
    for c in "xyz"[:dim]:
        values[f"initial_u.constant_{c}"] = number(-1.0, 1.0)
        values[f"initial_u.mode_{c}"] = mode(dim)
    pair = st.sampled_from(sorted(values)).flatmap(
        lambda key: values[key].map(lambda v: f"{key}={v}")
    )
    return st.lists(pair, max_size=8).flatmap(
        lambda ovs: st.integers(0, len(ovs)).map(
            lambda i: [*ovs[:i], f"grid.dim={dim}", *ovs[i:]]
        )
    )


# str.splitlines() breaks a line at each of these
LINE_BREAKS = ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]


BASE_TEXTS = [
    "",
    "[grid]\nn = 16\n[physics]\nmu = 0.2",
    "[initial_R]\nconstant = 2\nmode = 0.1 1 0\nmode = 0.1 2 1\n[time]\nt_end = 0.1",
    "[grid]\ndim = 2\n[initial_u]\nconstant_x = 0.1\nmode_y = 0.05 0 1 0",
]


class TestConfigProperties:
    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), base=st.sampled_from(BASE_TEXTS), dim=st.sampled_from([1, 2, 3]))
    def test_overrides_act_like_edited_lines(self, data, base, dim):
        ovs = data.draw(overrides(dim))
        via_set = outcome(config.apply_overrides(base, ovs))
        assert via_set == outcome(edit_lines(base, ovs))
        # a line break with text after it would write a further config line
        i = data.draw(st.integers(0, len(ovs) - 1))
        cut = data.draw(st.integers(0, len(ovs[i])))
        extra = data.draw(st.sampled_from(LINE_BREAKS)) + data.draw(
            st.sampled_from(["[grid]", "n = 16", "mu = 0.2", "x"])
        )
        ovs[i] = ovs[i][:cut] + extra + ovs[i][cut:]
        with pytest.raises(ConfigError, match="must be one line"):
            config.apply_overrides(base, ovs)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), dim=st.sampled_from([1, 2, 3]))
    def test_serialize_round_trips(self, data, dim):
        cfg = outcome(edit_lines("", data.draw(overrides(dim))))
        assume(isinstance(cfg, config.RunConfig))
        assert config.parse_config(config.serialize_config(cfg)) == cfg

    @settings(max_examples=300, deadline=None)
    @given(
        lines=st.lists(
            st.one_of(
                st.sampled_from(
                    [f"[{s}]" for s in ("grid", "physics", "time", "initial_R", "initial_u",
                                        "perturbation", "output", "grud")]
                ),
                st.tuples(
                    st.sampled_from(["dim", "n", "length", "mu", "cfl", "mode", "mode_y",
                                     "constant_z", "target", "fields", "wat"]),
                    st.one_of(st.text(max_size=12), st.sampled_from(["0", "2", "-8", "nan", "1e400"])),
                ).map(lambda kv: f"{kv[0]} = {kv[1]}"),
                st.text(max_size=20),
            ),
            max_size=12,
        )
    )
    def test_fuzzed_text_raises_only_config_errors(self, lines):
        try:
            config.parse_config("\n".join(lines))
        except ConfigError:
            pass
