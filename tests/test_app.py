import contextlib
import csv
import dataclasses
import hashlib
import io
import math
import os
import re
import tempfile
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import peridyn.app as app
import peridyn.cli as cli
import peridyn.io as pio
from peridyn.analysis import ConvergenceRow, observed_order, \
    reference_solution
from peridyn.app import (
    ConfigError, FractureSpec, GeometrySpec, LoadSpec, MtsSpec,
    OutputSpec, Scenario, SimulationConfig, TimeSpec, apply_overrides,
    converge, parse_config, preset_config, run, serialize_config,
    validate_config,
)
from peridyn.forces import FieldState, Material, PDOperator
from peridyn.geometry import build_grid
from peridyn.integrator import tableau
from peridyn.mts import MtsPlan
from tests.test_mts import views_ratio

CUSTOM_TEXT = """
[scenario]
name = custom

[geometry]
box = 0, 0 ; 1, 0.5
dx = 0.1
thickness = 0.01

[material]
E = 1.92e9
rho = 8000

[horizon]
delta = 0.3

[forces]
law = linear

[load.1]
kind = body_force
box = 0.9, 0 ; 1, 0.5
value = 0, 2e10

[fracture]

[time]
dt = 1e-5
n_steps = 8

[mts]
scheme = mts
order = 4
K = 2
fine_box.1 = 0.6, 0 ; 1, 0.5

[output]
directory = out
cadence = 4
formats = vtk

[analysis]
error_component = y
"""

# CUSTOM_TEXT as a 3D block: the points take three components
CUSTOM_3D_TEXT = CUSTOM_TEXT.replace("box = 0, 0 ; 1, 0.5",
                                     "box = 0, 0, 0 ; 1, 0.5, 0.5") \
    .replace("thickness = 0.01\n", "") \
    .replace("box = 0.9, 0 ; 1, 0.5", "box = 0.9, 0, 0 ; 1, 0.5, 0.5") \
    .replace("value = 0, 2e10", "value = 0, 2e10, 0") \
    .replace("fine_box.1 = 0.6, 0 ; 1, 0.5",
             "fine_box.1 = 0.6, 0, 0 ; 1, 0.5, 0.5")


class TestParseConfig:
    def test_custom_text_parses(self):
        cfg = parse_config(CUSTOM_TEXT)
        assert cfg.geometry.dx == 0.1
        assert cfg.mts.K == 2
        assert cfg.loads[0].value == (0.0, 2e10)
        assert cfg.mts.fine_boxes == [((0.6, 0.0), (1.0, 0.5))]

    def test_parses_from_path(self, tmp_path):
        path = tmp_path / "case.cfg"
        path.write_text(CUSTOM_TEXT)
        cfg = parse_config(str(path))
        assert cfg.time.n_steps == 8

    def test_preset_plate2d_full_scale_values(self):
        cfg = preset_config("plate2d", paper_scale=True)
        assert cfg.material.E == 1.92e11
        assert cfg.material.rho == 8000
        assert cfg.delta == pytest.approx(0.03)
        cloud = build_grid((cfg.geometry.box_min, cfg.geometry.box_max),
                           cfg.geometry.dx, cfg.geometry.thickness)
        assert cloud.n_points == 100 * 50
        # b_p = p0 W / d = 2e8 * 1 / 0.01
        assert cfg.loads[0].value[1] == pytest.approx(2e10)

    def test_preset_block3d_full_scale_values(self):
        cfg = preset_config("block3d", paper_scale=True)
        assert cfg.material.E == 2.0e11  # printed as 2.0e5 MPa
        cloud = build_grid((cfg.geometry.box_min, cfg.geometry.box_max),
                           cfg.geometry.dx)
        assert cloud.n_points == 100 * 30 * 30
        # loaded layer thickness d = 0.01 m
        assert cfg.loads[0].box[0][0] == pytest.approx(0.99)

    def test_preset_crack2d_pins(self):
        cfg = preset_config("crack2d")
        assert cfg.fracture.enabled and cfg.fracture.s0 == 0.01
        assert cfg.fracture.precrack == ((0.02, 0.025), (0.03, 0.025))
        values = sorted(load.value[1] for load in cfg.loads)
        assert values == [-20.0, 20.0]

    def test_wrong_poisson_rejected(self, tmp_path, capsys):
        # the bond-based model fixes nu by dimension, and s0 alone turns
        # fracture on: a config that states either is refused by key
        for old, new, key in [
                ("E = 1.92e9", "E = 1.92e9\nnu = 0.3", "material.nu"),
                ("E = 1.92e9", "E = 1.92e9\nnu = 0.3333333333333333",
                 "material.nu"),
                ("[fracture]", "[fracture]\nenabled = false",
                 "fracture.enabled"),
                ("[fracture]", "[fracture]\nenabled = true\ns0 = 0.01",
                 "fracture.enabled")]:
            text = CUSTOM_TEXT.replace(old, new)
            with pytest.raises(ConfigError) as err:
                parse_config(text)
            assert err.value.problems == [f"{key}: unknown key"]
            assert cli.main(["validate", "--config",
                             write_config(tmp_path, text)]) == 2
            assert f"{key}: unknown key" in capsys.readouterr().err

    def test_unknown_key_and_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(CUSTOM_TEXT + "\n[material]\nshear = 1\n"
                         .replace("[material]\n", ""))
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(CUSTOM_TEXT + "\n[extras]\nfoo = 1\n")

    def test_syntax_error_carries_line(self):
        bad = CUSTOM_TEXT.replace("dx = 0.1", "dx 0.1")
        with pytest.raises(ConfigError, match="line"):
            parse_config(bad)

    def test_all_violations_reported_together(self):
        text = CUSTOM_TEXT.replace("dx = 0.1", "dx = -1") \
                          .replace("law = linear", "law = magic") \
                          .replace("K = 2", "K = 0")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        msg = str(err.value)
        assert "geometry.dx" in msg and "forces.law" in msg and "mts.K" in msg

    def test_cadence_must_divide_steps(self):
        text = CUSTOM_TEXT.replace("cadence = 4", "cadence = 3")
        with pytest.raises(ConfigError, match="cadence"):
            parse_config(text)

    def test_fine_box_outside_geometry(self):
        text = CUSTOM_TEXT.replace("fine_box.1 = 0.6, 0 ; 1, 0.5",
                                   "fine_box.1 = 0.6, 0 ; 2, 0.5")
        with pytest.raises(ConfigError, match="fine_box"):
            parse_config(text)

    def test_serialize_round_trip_idempotent(self):
        once = serialize_config(parse_config(CUSTOM_TEXT))
        twice = serialize_config(parse_config(once))
        assert once == twice

    def test_preset_round_trip(self):
        for name in ("plate2d", "block3d", "crack2d"):
            for paper_scale in (False, True):
                cfg = preset_config(name, paper_scale=paper_scale)
                text = serialize_config(cfg)
                assert serialize_config(parse_config(text)) == text
                assert parse_config(text) == cfg


# SHA-256 of serialize_config's text.  This text keys the reference-solution
# cache (io.reference_cache_key), so a change here silently invalidates
# every cached reference: change it only together with io.REFERENCE_VERSION.
CANONICAL_SHA256 = {
    ("plate2d", False):
        "28f590ec3c9efcea0cca8da06865d68099ae0a4f9a3a596cf34c28728269c4e1",
    ("plate2d", True):
        "5e6a29d7d634d1283c0e562a7a752dce9cd7f3e4f00894a127033ad8adeddb93",
    ("block3d", False):
        "41a3b95194142cbc9cfbbf1f16b7b971519ef07c2be0616b391b3547af344267",
    ("block3d", True):
        "c5f4c0c3aa48382e9ce74254307b5b31241fcf027a8b68cb7be201194952d3b6",
    ("crack2d", False):
        "ada4f90c5501c24afce6abf71adea00a9d120aef178e91b6a7292f585ae208f0",
    ("crack2d", True):
        "458fb07555588565e6fea68a1b18d515bfc1574919b02f28bbeb5522ac275d4c",
    ("custom", False):
        "c5ca811daccced4f2d3e585d0190c5355b14c620eb36e4c5109cabaff141c253",
}

FINITE = st.floats(allow_nan=False, allow_infinity=False)
POSITIVE = st.floats(1e-9, 1e12)


@st.composite
def valid_configs(draw):
    """Random configs that validate_config accepts; a library caller's
    numbers may be numpy scalars, so each float and int is drawn as a
    plain or a numpy one."""
    def num(strategy):
        x = draw(strategy)
        return np.float64(x) if draw(st.booleans()) else x

    def integer(n):
        return np.int64(n) if draw(st.booleans()) else n

    dim = draw(st.sampled_from([2, 3]))
    lo = tuple(num(st.floats(-10, 10)) for _ in range(dim))
    hi = tuple(a + draw(st.floats(1e-6, 10)) for a in lo)

    def point():
        return tuple(num(st.floats(a, b)) for a, b in zip(lo, hi))

    def box():
        p, q = point(), point()
        return (tuple(map(min, p, q)), tuple(map(max, p, q)))

    cadence = draw(st.integers(0, 20))
    n_steps = cadence * draw(st.integers(0, 50)) if cadence \
        else draw(st.integers(0, 1000))
    return SimulationConfig(
        geometry=GeometrySpec(box_min=lo, box_max=hi, dx=num(POSITIVE),
                              thickness=num(POSITIVE) if dim == 2 else None),
        material=Material(E=num(POSITIVE), rho=num(POSITIVE)),
        delta=num(POSITIVE), law=draw(st.sampled_from(["linear", "nonlinear"])),
        loads=[LoadSpec(kind=draw(st.sampled_from(["body_force", "velocity"])),
                        box=box(),
                        value=tuple(num(FINITE) for _ in range(dim)))
               for _ in range(draw(st.integers(0, 3)))],
        fracture=FractureSpec(
            s0=None if draw(st.booleans()) else num(POSITIVE),
            precrack=(point(), point()) if dim == 2 and draw(st.booleans())
            else None),
        time=TimeSpec(dt=num(POSITIVE), n_steps=integer(n_steps)),
        mts=MtsSpec(scheme=draw(st.sampled_from(["upd", "mts"])),
                    order=integer(draw(st.sampled_from([3, 4]))),
                    K=integer(draw(st.integers(1, 16))),
                    fine_boxes=[box() for _ in range(draw(st.integers(0, 3)))]),
        output=OutputSpec(
            directory=draw(st.text("abcxyz019_-./", min_size=1, max_size=12)),
            cadence=integer(cadence),
            formats=tuple(draw(st.lists(st.just("vtk"), max_size=1)))),
        error_component=draw(st.sampled_from("xyz"[:dim])))


def write_config(tmp_path, text):
    path = tmp_path / "case.cfg"
    path.write_text(text)
    return str(path)


def replaced(cfg, spec, key, value):
    """cfg with ``cfg.<spec>.<key>`` set to value, unvalidated."""
    return dataclasses.replace(cfg, **{spec: dataclasses.replace(
        getattr(cfg, spec), **{key: value})})


class TestSchema:
    @pytest.mark.parametrize("name, paper_scale", sorted(CANONICAL_SHA256))
    def test_canonical_text_is_pinned(self, name, paper_scale):
        cfg = parse_config(CUSTOM_TEXT) if name == "custom" \
            else preset_config(name, paper_scale=paper_scale)
        digest = hashlib.sha256(serialize_config(cfg).encode()).hexdigest()
        assert digest == CANONICAL_SHA256[(name, paper_scale)]

    @settings(max_examples=60, deadline=None)
    @given(valid_configs())
    def test_parse_inverts_serialize(self, cfg):
        validate_config(cfg)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_defaults_come_from_the_table(self):
        text = CUSTOM_TEXT[:CUSTOM_TEXT.index("[mts]")] + \
            CUSTOM_TEXT[CUSTOM_TEXT.index("[output]"):]
        cfg = parse_config(text)
        assert cfg.mts == MtsSpec(scheme="upd", order=4, K=1, fine_boxes=[])

    @pytest.mark.parametrize("old, new, problem", [
        ("dt = 1e-5", "dt = nan", "time.dt: must be finite, got nan"),
        ("dx = 0.1", "dx = nan", "geometry.dx: must be finite, got nan"),
        ("thickness = 0.01", "thickness = inf",
         "geometry.thickness: must be finite, got inf"),
        ("E = 1.92e9", "E = nan", "material.E: must be finite, got nan"),
        ("rho = 8000", "rho = inf", "material.rho: must be finite, got inf"),
        ("delta = 0.3", "delta = nan", "horizon.delta: must be finite, got nan"),
        ("[fracture]\n", "[fracture]\ns0 = nan\n",
         "fracture.s0: must be finite, got nan"),
        ("box = 0, 0 ; 1, 0.5", "box = 0, 0 ; nan, 0.5",
         "geometry.box: must be finite, got nan"),
        ("value = 0, 2e10", "value = 0, -inf",
         "load.1.value: must be finite, got -inf"),
    ])
    def test_non_finite_number_refused(self, old, new, problem):
        assert old in CUSTOM_TEXT
        with pytest.raises(ConfigError) as err:
            parse_config(CUSTOM_TEXT.replace(old, new))
        assert err.value.problems == [problem]

    def test_non_finite_library_values_refused(self, mini_config):
        cfg = mini_config()
        with pytest.raises(ConfigError, match="horizon.delta: must be finite"):
            validate_config(dataclasses.replace(cfg, delta=math.nan))
        with pytest.raises(ConfigError, match="time.dt: must be finite, got inf"):
            apply_overrides(cfg, dt=math.inf)
        fine = [((0.6, 0.0), (math.nan, 0.5))]
        with pytest.raises(ConfigError, match="mts.fine_box.1: must be finite"):
            validate_config(dataclasses.replace(
                cfg, mts=dataclasses.replace(cfg.mts, fine_boxes=fine)))

    # values a library caller can set but the text form cannot carry
    @pytest.mark.parametrize("spec, key, value, problem", [
        ("time", "n_steps", 3.5, "time.n_steps: must be an integer, got 3.5"),
        ("time", "n_steps", 4.0, "time.n_steps: must be an integer, got 4.0"),
        ("mts", "order", 4.0, "mts.order: must be an integer, got 4.0"),
        ("material", "rho", True, "material.rho: must be a number, got True"),
        ("mts", "K", 2.0, "mts.K: must be an integer, got 2.0"),
        ("mts", "K", True, "mts.K: must be an integer, got True"),
        ("geometry", "box_max", (1.0, True),
         "geometry.box: must be a number, got True"),
        ("material", "rho", np.True_,
         f"material.rho: must be a number, got {np.True_!r}"),
        ("geometry", "box_max", (1.0, np.False_),
         f"geometry.box: must be a number, got {np.False_!r}"),
        ("mts", "K", np.True_, f"mts.K: must be an integer, got {np.True_!r}"),
    ], ids=["n_steps-3.5", "n_steps-4.0", "order-4.0", "rho-True", "K-2.0",
            "K-True", "box-True", "rho-np.True_", "box-np.False_",
            "K-np.True_"])
    def test_untyped_library_values_refused(self, spec, key, value, problem):
        with pytest.raises(ConfigError) as err:
            validate_config(replaced(preset_config("plate2d"), spec, key,
                                     value))
        assert err.value.problems == [problem]

    # numpy scalars that a library caller computes are numbers of the
    # config, and the text form carries them as plain ones
    @pytest.mark.parametrize("changes", [
        [("material", "rho", np.float64(8000.0))],
        [("time", "dt", np.float64(1e-5))],
        [("material", "rho", np.float64(8000.0)),
         ("time", "dt", np.float64(1e-5)),
         ("geometry", "dx", np.float64(0.025))],
        [("time", "n_steps", np.int64(40))],
    ], ids=["rho", "dt", "rho-dt-dx", "n_steps"])
    def test_numpy_scalars_round_trip(self, changes):
        plain = preset_config("plate2d")
        cfg = plain
        for spec, key, value in changes:
            cfg = replaced(cfg, spec, key, value)
        text = serialize_config(validate_config(cfg))
        assert text == serialize_config(plain)
        assert parse_config(text) == cfg

    @pytest.mark.parametrize("old, new, problem", [
        ("delta = 0.3", "delta = nan", "horizon.delta: must be finite"),
        ("[fracture]\n", "[fracture]\ns0 = nan\n",
         "fracture.s0: must be finite"),
    ])
    def test_cli_run_non_finite_exit_2(self, tmp_path, capsys, old, new,
                                       problem):
        path = write_config(tmp_path, CUSTOM_TEXT.replace(old, new))
        assert cli.main(["run", "--config", path,
                         "--out", str(tmp_path / "out")]) == 2
        assert problem in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("dt", ["nan", "inf"])
    def test_cli_run_non_finite_dt_exit_2(self, tmp_path, capsys, dt):
        assert cli.main(["run", "--config", "plate2d", "--dt", dt,
                         "--out", str(tmp_path / "out")]) == 2
        assert f"time.dt: must be finite, got {dt}" in capsys.readouterr().err

    def test_unparsable_paper_scale_refused(self):
        with pytest.raises(ConfigError) as err:
            parse_config("[scenario]\nname = plate2d\npaper_scale = maybe\n")
        assert err.value.problems == ["scenario.paper_scale: cannot parse 'maybe'"]

    def test_paper_scale_key_on_custom_config_refused(self, tmp_path, capsys):
        text = CUSTOM_TEXT.replace("name = custom",
                                   "name = custom\npaper_scale = true")
        with pytest.raises(ConfigError,
                           match="paper_scale applies only to presets"):
            parse_config(text)
        assert cli.main(["validate", "--config",
                         write_config(tmp_path, text)]) == 2
        assert "paper_scale applies only to presets" in capsys.readouterr().err

    def test_paper_scale_flag_on_custom_config_refused(self, tmp_path, capsys):
        path = write_config(tmp_path, CUSTOM_TEXT)
        assert cli.main(["validate", "--config", path, "--paper-scale"]) == 2
        captured = capsys.readouterr()
        assert "paper_scale applies only to presets" in captured.err
        assert captured.out == ""

    def test_paper_scale_flag_on_preset_file(self, tmp_path, capsys):
        path = write_config(tmp_path, "[scenario]\nname = plate2d\n")
        assert cli.main(["validate", "--config", path, "--paper-scale"]) == 0
        assert capsys.readouterr().out == serialize_config(
            preset_config("plate2d", paper_scale=True))

    def test_points_take_the_geometry_dimension(self):
        text = CUSTOM_TEXT.replace("box = 0, 0 ; 1, 0.5",
                                   "box = 0, 0, 0 ; 1, 0.5, 0.5") \
            .replace("thickness = 0.01\n", "")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [
            "load.1.box: expected 3 components, got 2",
            "load.1.value: expected 3 components, got 2",
            "mts.fine_box.1: expected 3 components, got 2"]

    def test_inverted_box_is_one_problem(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CUSTOM_TEXT.replace("box = 0, 0 ; 1, 0.5",
                                             "box = 1, 0.5 ; 0, 0"))
        assert err.value.problems == ["geometry.box: min corner exceeds max corner"]

    def test_load_without_kind_is_one_problem(self):
        with pytest.raises(ConfigError) as err:
            parse_config(CUSTOM_TEXT.replace("kind = body_force\n", ""))
        assert err.value.problems == ["load.1.kind: missing required key"]

    def test_thickness_in_3d_refused(self):
        text = CUSTOM_3D_TEXT.replace("dx = 0.1\n",
                                      "dx = 0.1\nthickness = 0.01\n")
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == ["geometry.thickness: applies only to 2D"]
        cfg = parse_config(CUSTOM_3D_TEXT)
        assert cfg.geometry.thickness is None

    @pytest.mark.parametrize("command, text, problem", [
        ("validate", "[scenario]\nname = nope\n",
         "scenario.name: unknown preset 'nope'"),
        ("validate", "[scenario]\nname = plate2d\n\n[time]\ndt = 1e-5\n",
         "no sections besides [scenario]; found ['time']"),
        ("validate", CUSTOM_TEXT.replace("[time]\ndt = 1e-5\nn_steps = 8\n",
                                         ""),
         "time: missing required section"),
        ("validate", CUSTOM_TEXT.replace("box = 0, 0 ; 1, 0.5",
                                         "box = 0, 0, 0, 0 ; 1, 1, 1, 1"),
         "geometry.box: dimension must be 2 or 3, got 4"),
        ("validate", CUSTOM_TEXT.replace("box = 0, 0 ; 1, 0.5",
                                         "box = 0, 0 ; 1, 0"),
         "geometry.box: extents must be positive"),
        ("validate", CUSTOM_TEXT.replace("thickness = 0.01\n", ""),
         "geometry.thickness: required and positive in 2D"),
        ("validate", CUSTOM_TEXT.replace("[fracture]", "[fracture]\ns0 = 0"),
         "fracture.s0: must be positive"),
        ("validate", CUSTOM_3D_TEXT.replace(
            "[fracture]",
            "[fracture]\nprecrack = 0.2, 0.2, 0.2 ; 0.4, 0.2, 0.2"),
         "fracture.precrack: pre-cracks are only supported in 2D"),
        ("validate", CUSTOM_TEXT.replace("error_component = y",
                                         "error_component = z"),
         "analysis.error_component: invalid axis 'z' for 2D"),
        ("validate", CUSTOM_TEXT.replace("formats = vtk", "formats = vtk,csv"),
         "output.formats: expected vtk, got 'csv'"),
        ("converge", CUSTOM_TEXT.replace("n_steps = 8", "n_steps = 0"),
         "time.n_steps: convergence sweeps need n_steps > 0"),
        ("compare", CUSTOM_TEXT.replace("n_steps = 8", "n_steps = 0"),
         "time.n_steps: comparisons need n_steps > 0"),
    ], ids=["unknown-preset", "preset-with-section", "no-time-section",
            "4-component-box", "zero-extent", "2d-no-thickness",
            "fracture-no-s0", "precrack-3d", "error-component-z-2d",
            "csv-format", "converge-no-steps", "compare-no-steps"])
    def test_cli_refuses_config(self, tmp_path, capsys, command, text,
                                problem):
        argv = [command, "--config", write_config(tmp_path, text),
                "--out", str(tmp_path / "out")]
        if command == "converge":
            argv += ["--dt-list", "1e-5,0.5e-5", "--k-list", "1,2"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and problem in err
        assert not (tmp_path / "out").exists()

    def test_unknown_preset_name_refused(self):
        with pytest.raises(ConfigError, match="unknown preset 'nope'"):
            preset_config("nope")

    def test_numbered_entries_follow_their_integer_index(self):
        load = CUSTOM_TEXT[CUSTOM_TEXT.index("[load.1]"):
                           CUSTOM_TEXT.index("[fracture]")]
        text = CUSTOM_TEXT.replace(
            load, load.replace("load.1", "load.10").replace("2e10", "1e10")
            + load.replace("load.1", "load.2")) \
            .replace("fine_box.1 = 0.6, 0 ; 1, 0.5",
                     "fine_box.10 = 0.7, 0 ; 1, 0.5\n"
                     "fine_box.2 = 0.6, 0 ; 1, 0.5")
        cfg = parse_config(text)
        assert [load.value for load in cfg.loads] == [(0.0, 2e10), (0.0, 1e10)]
        assert cfg.mts.fine_boxes == [((0.6, 0.0), (1.0, 0.5)),
                                      ((0.7, 0.0), (1.0, 0.5))]
        assert "[load.1]\nkind = body_force\nbox = 0.9, 0.0 ; 1.0, 0.5\n" \
            "value = 0.0, 20000000000.0" in serialize_config(cfg)

    @pytest.mark.parametrize("old, new, problem", [
        ("[load.1]", "[load.x]", "load.x: index 'x' is not an integer"),
        ("fine_box.1 =", "fine_box.first =",
         "mts.fine_box.first: index 'first' is not an integer"),
        ("[load.1]", "[load.01]\nkind = body_force\nbox = 0, 0 ; 1, 1\n"
         "value = 0, 1\n\n[load.1]", "load.1: index 1 repeats load.01"),
        ("fine_box.1 =", "fine_box.01 = 0.6, 0 ; 1, 0.5\nfine_box.1 =",
         "mts.fine_box.1: index 1 repeats fine_box.01"),
    ])
    def test_numbered_entry_without_integer_index_refused(
            self, tmp_path, capsys, old, new, problem):
        text = CUSTOM_TEXT.replace(old, new)
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.problems == [problem]
        assert cli.main(["validate", "--config",
                         write_config(tmp_path, text)]) == 2
        assert problem in capsys.readouterr().err


class TestVtkWriter:
    def parse_vtk(self, path):
        with open(path) as fp:
            tokens = fp.read().split("\n")
        arrays = {}
        i = 0
        n = None
        while i < len(tokens):
            line = tokens[i]
            if line.startswith("POINTS"):
                n = int(line.split()[1])
                arrays["points"] = [list(map(float, tokens[i + 1 + k].split()))
                                    for k in range(n)]
                i += n
            elif line.startswith("VECTORS"):
                name = line.split()[1]
                arrays[name] = [list(map(float, tokens[i + 1 + k].split()))
                                for k in range(n)]
                i += n
            elif line.startswith("SCALARS"):
                name = line.split()[1]
                arrays[name] = [float(tokens[i + 2 + k]) for k in range(n)]
                i += n + 1
            i += 1
        return {k: np.array(v) for k, v in arrays.items()}

    def test_single_point_structure(self, tmp_path):
        cloud = build_grid(((0, 0), (1, 1)), 1.0, thickness=1.0)
        state = FieldState(u=np.array([[0.25, -1.5]]),
                           v=np.array([[2.0, 0.125]]), t=0.0)
        path = tmp_path / "one.vtk"
        pio.write_vtk(cloud, state, np.array([0.5]), path)
        text = path.read_text()
        assert "POINTS 1 double" in text
        for name in ("displacement", "velocity"):
            assert f"VECTORS {name} double" in text
        assert "SCALARS damage double 1" in text

    def test_round_trip_bit_exact(self, tmp_path, rng):
        cloud = build_grid(((0, 0), (1, 0.5)), 0.125, thickness=0.01)
        n = cloud.n_points
        state = FieldState(u=rng.normal(size=(n, 2)) * 1e-7,
                           v=rng.normal(size=(n, 2)) * 13.7, t=0.0)
        damage = rng.uniform(0, 1, size=n)
        path = tmp_path / "snap.vtk"
        pio.write_vtk(cloud, state, damage, path)
        arrays = self.parse_vtk(path)
        assert np.array_equal(arrays["points"][:, :2], cloud.positions)
        assert np.array_equal(arrays["displacement"][:, :2], state.u)
        assert np.array_equal(arrays["velocity"][:, :2], state.v)
        assert np.array_equal(arrays["damage"], damage)

    def test_crack_snapshot_damage_in_unit_interval(self, tmp_path):
        cfg = preset_config("crack2d")
        import dataclasses
        cfg = dataclasses.replace(
            cfg, time=dataclasses.replace(cfg.time, n_steps=0),
            output=dataclasses.replace(cfg.output, cadence=0))
        traj, _, paths = run(apply_overrides(cfg, out=str(tmp_path)))
        arrays = self.parse_vtk(paths[0])
        assert np.all(arrays["damage"] >= 0.0)
        assert np.all(arrays["damage"] <= 1.0)
        assert arrays["damage"].max() > 0  # pre-crack visible

    def test_crack_vtk_series_damage_grows_monotonically(self, tmp_path):
        import dataclasses
        cfg = preset_config("crack2d")
        cfg = dataclasses.replace(
            cfg, time=dataclasses.replace(cfg.time, n_steps=260),
            output=dataclasses.replace(cfg.output, cadence=130))
        _, _, paths = run(apply_overrides(cfg, out=str(tmp_path)))
        snaps = sorted(p for p in paths if p.endswith(".vtk"))
        assert len(snaps) == 3
        totals = [self.parse_vtk(p)["damage"].sum() for p in snaps]
        assert all(b >= a for a, b in zip(totals, totals[1:]))
        assert totals[-1] > totals[0]  # the crack actually propagated


class TestCsvWriter:
    def test_empty_rows_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        pio.write_csv([], path)
        assert path.read_text() == "dt,K,scope,error,CR\n"

    def test_single_row(self, tmp_path):
        path = tmp_path / "one.csv"
        pio.write_csv([ConvergenceRow(dt=1e-5, K=2, scope="all",
                                      error=3.2e-9, cr=None)], path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 2
        assert lines[1] == "1.00000e-05,2,all,3.20000e-09,"

    def test_parse_recompute_round_trip(self, tmp_path):
        dts = [4e-5, 2e-5, 1e-5]
        errors = [5.31e-7, 6.72e-8, 8.41e-9]
        crs = [None] + observed_order(errors, dts)
        rows = [ConvergenceRow(dt=dt, K=1, scope="all", error=e, cr=cr)
                for dt, e, cr in zip(dts, errors, crs)]
        path = tmp_path / "sweep.csv"
        pio.write_csv(rows, path)
        with open(path, newline="") as fp:
            parsed = list(csv.DictReader(fp))
        assert parsed[0]["CR"] == ""
        recomputed = observed_order([float(r["error"]) for r in parsed],
                                    [float(r["dt"]) for r in parsed])
        for got, r in zip(recomputed, parsed[1:]):
            assert got == pytest.approx(float(r["CR"]), abs=2e-5)


class TestReferenceCache:
    def state(self, rng):
        return FieldState(u=rng.normal(size=(5, 2)), v=rng.normal(size=(5, 2)),
                          t=0.125)

    def test_header_only_file_rejected(self, tmp_path):
        # the time array alone: the u and v array is missing
        path = tmp_path / "ref.npy"
        np.save(path, np.float64(0.125))
        with pytest.raises(pio.ReferenceCacheError, match="ref.npy"):
            pio.load_reference(str(path))

    def test_trailing_data_rejected(self, tmp_path, rng):
        path = str(tmp_path / "ref.npy")
        pio.save_reference(path, self.state(rng))
        with open(path, "ab") as fp:
            fp.write(b"\0")
        with pytest.raises(pio.ReferenceCacheError, match="ref.npy"):
            pio.load_reference(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = tmp_path / "ref.npy"
        path.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(64))
        with pytest.raises(pio.ReferenceCacheError, match="ref.npy"):
            pio.load_reference(str(path))

    @pytest.mark.parametrize("arrays", [
        (np.zeros((5, 2)), np.zeros((2, 5, 2))),  # time not 0-d
        (np.float64(0.1), np.float64(0.2)),
        (np.float64(0.1), np.zeros((5, 2))),  # u and v not stacked
        (np.float64(0.1), np.zeros((3, 5, 2))),
        (np.float64(0.1), np.zeros((2, 5, 2), dtype=np.float32)),
        (np.float64(0.1), np.zeros((2, 5, 2), dtype=">f8")),
        (np.float64(0.1), np.array([None, 1.0], dtype=object)),  # a pickle
    ], ids=["time-shape", "uv-scalar", "uv-ndim", "uv-count", "float32",
            "big-endian", "object"])
    def test_wrong_arrays_rejected(self, tmp_path, arrays):
        path = tmp_path / "ref.npy"
        with open(path, "wb") as fp:
            for a in arrays:
                np.save(fp, a)
        with pytest.raises(pio.ReferenceCacheError, match="ref.npy"):
            pio.load_reference(str(path))

    def test_benchmark_read_path(self, mini_config, tmp_path):
        # perfbench's plate-converge rounds read the sweep's reference
        # back by this key and path
        cfg = mini_config(n_steps=4)
        dts, order = [1e-5, 0.5e-5], cfg.mts.order
        app.converge(cfg, dts, [1, 2], cache_dir=str(tmp_path))
        sc = Scenario(cfg)
        key = pio.reference_cache_key(sc.canonical_text, order, min(dts) / 16)
        got = pio.load_reference(pio.reference_cache_path(str(tmp_path), key))
        want = reference_solution(sc, tableau(order), min(dts) / 16)
        assert got.u.tobytes() == want.u.tobytes()
        assert got.v.tobytes() == want.v.tobytes()
        assert got.t == want.t

    def test_key_of_a_step_is_its_float(self):
        # a step keys as the Python float of its value: an int, a numpy
        # float32 or float64 step keys the cache as the equal float does
        text = "[scenario]\nname = custom\n"
        assert pio.reference_cache_key(text, 4, 1e-6) == "c9c0900461aaa9ae"
        assert pio.reference_cache_key(text, 4, 1.25e-6) == "44907f4f82022fd2"
        step = np.float32(1.25e-6)
        for value, same in ((1, 1.0), (step, float(step)),
                            (np.float64(1e-6), 1e-6)):
            assert pio.reference_cache_key(text, 4, value) == \
                pio.reference_cache_key(text, 4, same)
        assert pio.reference_cache_key(text, 4, step) != \
            pio.reference_cache_key(text, 4, 1.25e-6)

    def test_converge_caches_a_numpy_or_int_step(self, mini_config, tmp_path):
        # a step that is not a Python float reaches the cache key, and the
        # file is the one the equal float names
        for cfg, dts, step in (
                (mini_config(n_steps=4), [2e-5, 1e-5], np.float32(1.25e-6)),
                (mini_config(n_steps=4, dt=2.0), [2.0, 1.0], 1)):
            cache = str(tmp_path / type(step).__name__)
            rows = app.converge(cfg, dts, [1, 2], reference_dt=step,
                                cache_dir=cache)
            assert len(rows) == 12
            key = pio.reference_cache_key(Scenario(cfg).canonical_text,
                                          cfg.mts.order, float(step))
            assert os.listdir(cache) == [
                os.path.basename(pio.reference_cache_path(cache, key))]

    def test_key_changes_with_reference_version(self, monkeypatch):
        args = ("[scenario]\nname = custom\n", 4, 1e-6)
        key = pio.reference_cache_key(*args)
        assert pio.reference_cache_key(*args) == key
        monkeypatch.setattr(pio, "REFERENCE_VERSION", pio.REFERENCE_VERSION + 1)
        assert pio.reference_cache_key(*args) != key


class TestRunAndCli:
    def test_zero_steps_writes_initial_snapshot(self, mini_config, tmp_path):
        cfg = mini_config(n_steps=0)
        traj, timing, paths = run(apply_overrides(cfg, out=str(tmp_path)))
        assert len(traj.states) == 1
        assert [os.path.basename(p) for p in paths] == ["snapshot_000000.vtk"]

    def test_run_writes_cadenced_snapshots_and_timing(self, mini_config,
                                                      tmp_path):
        cfg = mini_config(n_steps=8, cadence=4)
        traj, timing, paths = run(apply_overrides(cfg, out=str(tmp_path)))
        names = sorted(os.path.basename(p) for p in paths)
        assert names == ["snapshot_000000.vtk", "snapshot_000004.vtk",
                         "snapshot_000008.vtk", "timing.txt"]
        assert timing.seconds("coarse") > 0
        # the snapshots are the cadenced record: the trajectory holds the
        # initial and final states only
        assert [state.t for state in traj.states] == [0.0, 8 * cfg.time.dt]

    def test_cli_validate_ok(self, tmp_path):
        path = tmp_path / "ok.cfg"
        path.write_text(CUSTOM_TEXT)
        assert cli.main(["validate", "--config", str(path)]) == 0

    def test_cli_config_error_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(CUSTOM_TEXT.replace("law = linear", "law = magic"))
        assert cli.main(["validate", "--config", str(path)]) == 2
        assert "forces.law" in capsys.readouterr().err

    def test_cli_unknown_preset_exit_2(self, capsys):
        assert cli.main(["validate", "--config", "nosuchpreset.cfg"]) == 2
        err = capsys.readouterr().err
        assert "config 'nosuchpreset.cfg': no such preset or file" in err
        assert "syntax error" not in err

    def test_cli_preset_name_and_paper_scale(self, capsys):
        assert cli.main(["validate", "--config", "plate2d"]) == 0
        desk = capsys.readouterr().out
        assert "1920000000.0" in desk  # softened desk modulus
        assert cli.main(["validate", "--config", "plate2d",
                         "--paper-scale"]) == 0
        full = capsys.readouterr().out
        assert "192000000000.0" in full

    def test_cli_run_preset_smoke(self, tmp_path, mini_config):
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=4, cadence=0)))
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "snapshot_000004.vtk").exists()

    def test_cli_run_empty_output_directory_exit_2(self, tmp_path, capsys,
                                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        path = write_config(tmp_path, CUSTOM_TEXT.replace(
            "directory = out", "directory ="))
        for command in ("validate", "run"):
            assert cli.main([command, "--config", path]) == 2
            assert "output.directory: must not be empty" in \
                capsys.readouterr().err
        assert cli.main(["run", "--config", "plate2d", "--out", ""]) == 2
        assert sorted(os.listdir(tmp_path)) == ["case.cfg"]

    def test_cli_overlapping_velocity_layers_exit_2(self, tmp_path, capsys,
                                                    mini_config):
        cfg = mini_config(n_steps=4)
        velocity = [LoadSpec(kind="velocity", box=box, value=(0.0, 1.0))
                    for box in (((0.0, 0.0), (0.2, 0.5)),
                                ((0.1, 0.0), (0.3, 0.5)))]
        cfg = dataclasses.replace(cfg, loads=cfg.loads + velocity)
        path = tmp_path / "overlap.cfg"
        path.write_text(serialize_config(cfg))
        out = tmp_path / "out"
        assert cli.main(["run", "--config", str(path),
                         "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "configuration error:" in err
        assert "velocity-constraint layers overlap at point" in err
        assert not out.exists()  # refused before any output is written

    def test_cli_instability_exit_3(self, tmp_path, mini_config):
        cfg = mini_config(n_steps=40, dt=1.0, scheme="upd")
        path = tmp_path / "boom.cfg"
        path.write_text(serialize_config(cfg))
        code = cli.main(["run", "--config", str(path),
                         "--out", str(tmp_path / "out")])
        assert code == 3

    def test_cli_io_error_exit_4(self, tmp_path, mini_config):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file, not a directory")
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=4)))
        code = cli.main(["run", "--config", str(path),
                         "--out", str(blocker / "sub")])
        assert code == 4

    def test_cli_unreadable_config_exit_4(self, tmp_path, capsys):
        # a directory passes the path check but cannot be read as a file
        assert cli.main(["validate", "--config", str(tmp_path)]) == 4
        assert "I/O failure" in capsys.readouterr().err

    def test_cli_non_utf8_config_exit_2(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"[scenario]\nname = custom\n\xff\xfe")
        assert cli.main(["validate", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"config {str(path)!r}: not UTF-8 text" in err
        assert "Traceback" not in err
        # UTF-8 text is read as such whatever the locale's encoding
        path.write_bytes("# \u03bd is fixed by the dimension\n".encode()
                         + CUSTOM_TEXT.encode())
        assert cli.main(["validate", "--config", str(path)]) == 0

    @staticmethod
    def converge_and_cache(tmp_path, mini_config):
        """Run a small `pd converge`; its argv and the reference it cached."""
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=8)))
        argv = ["converge", "--config", str(path), "--dt-list",
                "1e-5,0.5e-5", "--k-list", "1,2", "--out", str(tmp_path)]
        assert cli.main(argv) == 0
        (cached,) = (tmp_path / "refcache").iterdir()
        return argv, cached

    def test_cli_corrupt_reference_cache_exit_4(self, tmp_path, mini_config,
                                                capsys):
        argv, cached = self.converge_and_cache(tmp_path, mini_config)
        cached.write_bytes(cached.read_bytes()[:-8])  # truncate the payload
        assert cli.main(argv) == 4
        assert cached.name in capsys.readouterr().err

    def test_cli_unparsable_reference_cache_header_exit_4(
            self, tmp_path, mini_config, capsys):
        argv, cached = self.converge_and_cache(tmp_path, mini_config)
        data = cached.read_bytes()
        assert b"'shape': (2, " in data
        cached.write_bytes(data.replace(b"'shape': (2, ", b"'shape': (2x ", 1))
        assert cli.main(argv) == 4
        err = capsys.readouterr().err
        assert cached.name in err and "corrupt reference cache file" in err
        assert "Cannot parse header" in err

    @pytest.mark.parametrize("corrupt", [
        lambda data: data + b"\0",
        lambda data: b"\x89PNG\r\n\x1a\n" + bytes(64),
        lambda data: data[:data.index(b"\x93NUMPY", 1)],
    ], ids=["trailing-byte", "foreign-file", "time-only"])
    def test_cli_malformed_reference_cache_exit_4(
            self, tmp_path, mini_config, capsys, corrupt):
        argv, cached = self.converge_and_cache(tmp_path, mini_config)
        cached.write_bytes(corrupt(cached.read_bytes()))
        assert cli.main(argv) == 4
        assert cached.name in capsys.readouterr().err

    def test_cli_old_format_cache_is_not_read(self, tmp_path, mini_config):
        argv, cached = self.converge_and_cache(tmp_path, mini_config)
        assert cached.suffix == ".npy"
        old = cached.with_suffix(".bin")
        old.write_bytes(b"peridyn reference cache 1\n")
        cached.unlink()
        assert cli.main(argv) == 0
        assert sorted(p.name for p in old.parent.iterdir()) == \
            sorted([old.name, cached.name])

    @pytest.mark.parametrize("option, value", [("--dt-list", "1e-5,abc"),
                                               ("--k-list", "1,x")])
    def test_cli_converge_unparsable_list_exit_2(self, tmp_path, mini_config,
                                                 capsys, option, value):
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=8)))
        argv = {"--dt-list": "1e-5,0.5e-5", "--k-list": "1,2", option: value}
        code = cli.main(["converge", "--config", str(path),
                         "--out", str(tmp_path / "out"),
                         *(item for pair in argv.items() for item in pair)])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and option in err

    @pytest.mark.parametrize("dt_list, k_list, problem", [
        ("1e-5", "1,2", "at least two"),
        ("1e-5,0.25e-5", "1,2", "must halve"),
        ("1e-5,0", "1,2", "positive and finite"),
        ("1e-5,nan", "1,2", "positive and finite"),
        ("1e-5,0.5e-5", "0,2", "K must be an integer >= 1"),
        ("1e-5,0.5e-5", "1,2,1", "K 1 is repeated"),
    ])
    def test_cli_converge_bad_sweep_exit_2(self, tmp_path, mini_config,
                                           capsys, monkeypatch,
                                           dt_list, k_list, problem):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the lists were checked")

        for name in ("reference_solution", "upd_run", "mts_run"):
            monkeypatch.setattr(app, name, no_run)
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=8)))
        code = cli.main(["converge", "--config", str(path), "--dt-list",
                         dt_list, "--k-list", k_list,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and problem in err
        assert not (tmp_path / "out").exists()

    def test_cli_converge_bool_reference_dt_exit_2(self, tmp_path,
                                                   mini_config, capsys,
                                                   monkeypatch):
        # validate_config refuses bools, and so does converge for its step
        def with_bool_step(*args, **kwargs):
            return converge(*args, **{**kwargs, "reference_dt": True})

        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the reference dt "
                                 "was checked")

        for name in ("reference_solution", "upd_run", "mts_run"):
            monkeypatch.setattr(app, name, no_run)
        monkeypatch.setattr(cli, "converge", with_bool_step)
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=8)))
        code = cli.main(["converge", "--config", str(path), "--dt-list",
                         "1e-5,0.5e-5", "--k-list", "1,2",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "reference dt: must be a number, got True" in err

    @pytest.mark.parametrize("K", [2.0, math.inf, math.nan, True])
    def test_converge_non_integer_k_refused(self, mini_config, monkeypatch,
                                            K):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the K list was "
                                 "checked")

        for name in ("reference_solution", "upd_run", "mts_run"):
            monkeypatch.setattr(app, name, no_run)
        with pytest.raises(ConfigError, match=re.escape(
                f"K list: K must be an integer >= 1, got {K}")):
            converge(mini_config(n_steps=8), [1e-5, 0.5e-5], [1, K])

    def test_converge_bool_dt_refused(self, mini_config):
        # True == 1.0 as a number, but a bool is no step
        with pytest.raises(ConfigError, match=re.escape(
                "dt list: dt entries must be positive and finite numbers, "
                "got True")):
            converge(mini_config(n_steps=4), [True, 0.5], [1, 2])

    @pytest.mark.parametrize("reference_dt, problem", [
        ("0.3e-5", "reference dt 3e-06 does not divide the final time"),
        ("0", "reference dt: must be positive and finite, got 0.0"),
        ("nan", "reference dt: must be positive and finite, got nan"),
        ("-1e-6", "reference dt: must be positive and finite, got -1e-06"),
    ])
    def test_cli_converge_bad_reference_dt_exit_2(self, tmp_path, mini_config,
                                                  capsys, monkeypatch,
                                                  reference_dt, problem):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started before the reference dt "
                                 "was checked")

        for name in ("reference_solution", "run_scheme", "upd_run",
                     "mts_run"):
            monkeypatch.setattr(app, name, no_run)
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=8)))
        code = cli.main(["converge", "--config", str(path), "--dt-list",
                         "1e-5,0.5e-5", "--k-list", "1",
                         f"--reference-dt={reference_dt}",
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "configuration error" in err and problem in err
        assert not (tmp_path / "out").exists()

    def test_cli_out_of_memory_exit_3(self, tmp_path, capsys, monkeypatch):
        def no_memory(cfg):
            raise MemoryError("Unable to allocate 5.24 GiB")

        monkeypatch.setattr(app, "Scenario", no_memory)
        code = cli.main(["run", "--config", "plate2d",
                         "--out", str(tmp_path / "out")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("out of memory: Unable to allocate 5.24 GiB")
        assert "Traceback" not in err

    def test_cli_ignores_pd_threads(self, monkeypatch):
        monkeypatch.setenv("PD_THREADS", "two")
        assert cli.main(["validate", "--config", "plate2d"]) == 0

    def test_cli_converge_deterministic_bytes(self, tmp_path, mini_config):
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=8)))
        outputs = []
        for k in range(2):
            out = tmp_path / f"out{k}"
            code = cli.main(["converge", "--config", str(path),
                             "--dt-list", "1e-5,0.5e-5", "--k-list", "1,2",
                             "--out", str(out)])
            assert code == 0
            outputs.append((out / "convergence.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_cli_compare_smoke(self, tmp_path, mini_config, capsys):
        path = tmp_path / "mini.cfg"
        path.write_text(serialize_config(mini_config(n_steps=6)))
        out = tmp_path / "cmp"
        code = cli.main(["compare", "--config", str(path), "--K", "2",
                         "--out", str(out)])
        assert code == 0
        text = (out / "compare.txt").read_text()
        assert "ratio," in text
        model = dict(line.split(",") for line in text.splitlines())[
            "model_ratio"]
        assert f"cost model {float(model):.3f}" in capsys.readouterr().out

    def test_mts_config_explicit_zero_is_rejected(self, mini_config):
        scenario = Scenario(mini_config(n_steps=8))
        default = scenario.mts_config()
        assert (default.order, default.dt, default.K) == (4, 1e-5, 2)
        assert scenario.mts_config(K=1).K == 1
        # a whole float too: K counts substeps
        for K in (0, 2.0, math.inf, math.nan, True):
            with pytest.raises(ValueError, match=re.escape(
                    f"K must be an integer >= 1, got {K}")):
                scenario.mts_config(K=K)
        with pytest.raises(ValueError, match="dt must be positive"):
            scenario.mts_config(dt=0.0)

    def test_compare_explicit_k0_is_rejected(self, mini_config, monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a run started with K=0")

        for name in ("upd_run", "mts_run"):
            monkeypatch.setattr(app, name, no_run)
        for n_steps in (8, 0):
            with pytest.raises(ConfigError) as err:
                app.compare(mini_config(n_steps=n_steps, K=0))
            assert err.value.problems == ["mts.K: must be >= 1, got 0"]

    def test_compare_writes_the_cost_model(self, mini_config, tmp_path):
        cfg = mini_config(n_steps=8)
        _, _, ratio, model_ratio, _ = app.compare(apply_overrides(cfg, K=4),
                                                  out_dir=str(tmp_path))
        lines = (tmp_path / "compare.txt").read_text().splitlines()
        rows = dict(line.split(",") for line in lines)
        assert list(rows) == ["mts_seconds", "upd_seconds", "ratio",
                              "model_ratio", "l2_difference"]
        assert float(rows["ratio"]) == pytest.approx(ratio, abs=1e-6)
        scenario = Scenario(cfg)
        config = scenario.mts_config(K=4)
        model = app.cost_model(scenario.nbrs, config)
        assert model == views_ratio(MtsPlan(scenario.fresh_operator(), config))
        assert model_ratio == model
        assert float(rows["model_ratio"]) == pytest.approx(model, abs=1e-6)
        assert 0.0 < model < 1.0

    def test_compare_builds_one_operator_per_run(self, mini_config,
                                                 monkeypatch):
        built = []

        def counting(*args, **kwargs):
            built.append(PDOperator(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(app, "PDOperator", counting)
        mts_seconds, upd_seconds, ratio, _, _ = app.compare(
            mini_config(n_steps=4))
        assert len(built) == 2
        assert ratio == mts_seconds / upd_seconds

    def test_converge_emits_scoped_rows(self, mini_config, tmp_path):
        cfg = mini_config(n_steps=8)
        out_csv = tmp_path / "table.csv"
        rows = converge(cfg, [1e-5, 0.5e-5], [1, 2], out_csv=str(out_csv))
        scopes = {(r.K, r.scope) for r in rows}
        assert scopes == {(1, "all"), (1, "coarse"), (1, "fine"),
                          (2, "all"), (2, "coarse"), (2, "fine")}
        k1_rows = [r for r in rows if r.K == 1 and r.scope == "all"]
        assert k1_rows[0].cr is None and k1_rows[1].cr is not None
        assert out_csv.exists()

    @pytest.mark.parametrize("fine_boxes", [[], [((0.0, 0.0), (1.0, 0.5))]])
    def test_converge_one_sided_split_emits_all_rows_only(self, mini_config,
                                                          fine_boxes):
        # no fine box, or one that holds every point: no coarse or fine
        # scope to report, and no warning
        cfg = mini_config(n_steps=8)
        cfg = dataclasses.replace(cfg, mts=dataclasses.replace(
            cfg.mts, fine_boxes=fine_boxes))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rows = converge(cfg, [1e-5, 0.5e-5], [1, 2])
        assert [(r.dt, r.K, r.scope) for r in rows] == [
            (dt, K, "all") for dt in (1e-5, 0.5e-5) for K in (1, 2)]

    def test_converge_k1_vs_reference_dt_is_zero(self, mini_config):
        cfg = mini_config(n_steps=8)
        rows = converge(cfg, [1e-5, 0.5e-5], [1, 2], reference_dt=0.5e-5)
        zero_rows = [r for r in rows if r.K == 1 and r.dt == 0.5e-5]
        assert len(zero_rows) == 3
        assert all(r.error == 0.0 for r in zero_rows)


@st.composite
def small_configs(draw):
    """Configs that validate_config accepts, on a lattice that the box
    tiles: at most 12x12 or 5x5x5 points, and at most 6 steps.  Load and
    fine boxes cover whole lattice cells, so most of them select points."""
    dim = draw(st.sampled_from([2, 3]))
    dx = draw(st.floats(1e-3, 1.0))
    counts = [draw(st.integers(1, 12 if dim == 2 else 5)) for _ in range(dim)]
    lo = tuple(draw(st.floats(-1.0, 1.0)) for _ in range(dim))
    hi = tuple(a + n * dx for a, n in zip(lo, counts))

    def box():
        cells = [sorted(draw(st.integers(0, n - 1)) for _ in range(2))
                 for n in counts]
        return (tuple(a + i * dx for a, (i, _) in zip(lo, cells)),
                tuple(min(a + (j + 1) * dx, b)
                      for a, b, (_, j) in zip(lo, hi, cells)))

    def point():
        return tuple(draw(st.floats(a, b)) for a, b in zip(lo, hi))

    n_steps = draw(st.integers(0, 6))
    return SimulationConfig(
        geometry=GeometrySpec(box_min=lo, box_max=hi, dx=dx,
                              thickness=draw(st.floats(1e-3, 1.0))
                              if dim == 2 else None),
        material=Material(E=draw(st.floats(1e3, 1e12)),
                          rho=draw(st.floats(1.0, 1e4))),
        delta=dx * draw(st.floats(0.5, 3.5)),
        law=draw(st.sampled_from(["linear", "nonlinear"])),
        loads=[LoadSpec(kind=draw(st.sampled_from(["body_force", "velocity"])),
                        box=box(),
                        value=tuple(draw(st.floats(-1e6, 1e6))
                                    for _ in range(dim)))
               for _ in range(draw(st.integers(0, 2)))],
        fracture=FractureSpec(
            s0=draw(st.none() | st.floats(1e-4, 0.1)),
            precrack=(point(), point()) if dim == 2 and draw(st.booleans())
            else None),
        time=TimeSpec(dt=draw(st.floats(1e-9, 1e-3)), n_steps=n_steps),
        mts=MtsSpec(scheme=draw(st.sampled_from(["upd", "mts"])),
                    order=draw(st.sampled_from([3, 4])),
                    K=draw(st.integers(1, 4)),
                    fine_boxes=[box() for _ in range(draw(st.integers(0, 2)))]),
        output=OutputSpec(
            directory="out",
            cadence=draw(st.sampled_from(
                [c for c in range(7) if c == 0 or n_steps % c == 0])),
            formats=tuple(draw(st.lists(st.just("vtk"), max_size=1)))),
        error_component=draw(st.sampled_from("xyz"[:dim])))


class TestCliProperty:
    # every failure maps to a documented exit code: whatever the config,
    # run, compare and converge return 0, 2 (configuration) or 3
    # (numerical failure), and nothing raises past cli.main
    @settings(max_examples=250, deadline=None)
    @given(small_configs())
    def test_commands_end_in_a_documented_exit_code(self, cfg):
        dt = validate_config(cfg).time.dt
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "case.cfg")
            with open(path, "w") as fp:
                fp.write(serialize_config(cfg))
            for command, *options in (
                    ["run"], ["compare"],
                    ["converge", "--dt-list", f"{dt!r},{dt / 2!r}",
                     "--k-list", "1,2"]):
                argv = [command, "--config", path,
                        "--out", os.path.join(tmp, command), *options]
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                assert code in (0, 2, 3), argv
