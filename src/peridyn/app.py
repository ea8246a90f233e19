"""Configuration, scenario presets, and run orchestration.

Configs are plain text with [section] headers and key = value entries.
Three reference scenarios ship as presets; desk-scale meshes are the
default and the printed full-scale parameters sit behind paper_scale.
Vectors are comma-separated, boxes are "min ; max" coordinate pairs in
meters.
"""

from __future__ import annotations

import configparser
import dataclasses
import math
import numbers
import operator
import os
import typing
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from . import io as pio
from .analysis import ConvergenceRow, halving_violation, l2_error, \
    observed_order, reference_solution, scoped_errors, step_count
from .forces import FieldState, Loading, Material, PDOperator, \
    SimulationError, break_precrack_bonds, damage_index
from .geometry import GeometryError, build_grid, build_neighbor_list, \
    classify_subdomains, select_layer
from .integrator import tableau, upd_run
from .mts import MtsConfig, TimingReport, cost_model, mts_run, \
    refinement_violation

_AXES = {"x": 0, "y": 1, "z": 2}


class ConfigError(ValueError):
    """Invalid configuration; carries every violation, not just the first."""

    def __init__(self, problems):
        if isinstance(problems, str):
            problems = [problems]
        self.problems = list(problems)
        super().__init__("\n".join(self.problems))


@dataclass
class GeometrySpec:
    box_min: tuple
    box_max: tuple
    dx: float
    thickness: float | None


@dataclass
class LoadSpec:
    kind: str  # "body_force" | "velocity"
    box: tuple  # (min_corner, max_corner)
    value: tuple


@dataclass
class FractureSpec:
    """Bonds break at the critical stretch s0; with s0 None (not given)
    fracture is off."""

    s0: float | None = None
    precrack: tuple | None = None  # (endpoint_a, endpoint_b)

    @property
    def enabled(self) -> bool:
        return self.s0 is not None


@dataclass
class TimeSpec:
    dt: float
    n_steps: int


@dataclass
class MtsSpec:
    scheme: str  # "upd" | "mts"
    order: int
    K: int
    fine_boxes: list


@dataclass
class OutputSpec:
    directory: str
    cadence: int  # 0: record initial and final only
    formats: tuple


@dataclass
class SimulationConfig:
    geometry: GeometrySpec
    material: Material
    delta: float
    law: str
    loads: list
    fracture: FractureSpec
    time: TimeSpec
    mts: MtsSpec
    output: OutputSpec
    error_component: str

    @property
    def dim(self) -> int:
        return len(self.geometry.box_min)


# ---------------------------------------------------------------------------
# the schema

_REQUIRED = object()


# One row per config key, in canonical order.  `attr` is a dotted path
# into SimulationConfig (into LoadSpec for [load.k]); two paths split a box
# over two attributes.  A section or key ending in ".k" repeats, taken in
# the order of its integer index and written numbered from 1.  kind: float,
# int, str, bool, box, segment (an unordered box), vector or names.  check:
# ("positive",), ("at_least", n), ("one_of", *values) or ("nonempty",);
# every number, each component of a box, segment or
# vector too, must also be finite.  The [scenario] rows pick a preset and
# are not serialized: canonical text spells a preset out as a custom config.
_Field = namedtuple("_Field", "section key attr kind default check",
                    defaults=(_REQUIRED, ()))
_SCHEMA = (
    _Field("scenario", "name", "name", "str", "custom"),
    _Field("scenario", "paper_scale", "paper_scale", "bool", False),
    _Field("geometry", "box", "geometry.box_min geometry.box_max", "box"),
    _Field("geometry", "dx", "geometry.dx", "float", check=("positive",)),
    _Field("geometry", "thickness", "geometry.thickness", "float", None),
    _Field("material", "E", "material.E", "float", check=("positive",)),
    _Field("material", "rho", "material.rho", "float", check=("positive",)),
    _Field("horizon", "delta", "delta", "float", check=("positive",)),
    _Field("forces", "law", "law", "str",
           check=("one_of", "linear", "nonlinear")),
    _Field("load.k", "kind", "kind", "str",
           check=("one_of", "body_force", "velocity")),
    _Field("load.k", "box", "box", "box"),
    _Field("load.k", "value", "value", "vector"),
    _Field("fracture", "s0", "fracture.s0", "float", None, ("positive",)),
    _Field("fracture", "precrack", "fracture.precrack", "segment", None),
    _Field("time", "dt", "time.dt", "float", check=("positive",)),
    _Field("time", "n_steps", "time.n_steps", "int", check=("at_least", 0)),
    _Field("mts", "scheme", "mts.scheme", "str", "upd",
           ("one_of", "upd", "mts")),
    _Field("mts", "order", "mts.order", "int", 4, ("one_of", 3, 4)),
    _Field("mts", "K", "mts.K", "int", 1, ("at_least", 1)),
    _Field("mts", "fine_box.k", "mts.fine_boxes", "box", ()),
    _Field("output", "directory", "output.directory", "str", "out",
           ("nonempty",)),
    _Field("output", "cadence", "output.cadence", "int", 0, ("at_least", 0)),
    _Field("output", "formats", "output.formats", "names", ("vtk",),
           ("one_of", "vtk")),
    _Field("analysis", "error_component", "error_component", "str", "y"),
)

_SECTIONS: dict = {}
for _row in _SCHEMA:
    _SECTIONS.setdefault(_row.section, []).append(_row)


def _floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(","))


def _pair(text: str) -> tuple:
    lo, hi = text.split(";")  # a ValueError unless there are two halves
    return _floats(lo), _floats(hi)


_BOOLS = {"true": True, "yes": True, "1": True,
          "false": False, "no": False, "0": False}
_READERS = {"str": str, "int": int, "float": float,
            "bool": lambda text: _BOOLS[text.lower()],
            "box": _pair, "segment": _pair, "vector": _floats,
            "names": lambda text: tuple(
                f.strip() for f in text.split(",") if f.strip())}
_READ_AS = {"box": " as 'min ; max'", "segment": " as 'min ; max'",
            "vector": " as numbers"}


def _numbered(entries: dict, prefix: str, problems: list, where="") -> list:
    """The names in entries that start with prefix, in the order of their
    integer index; a name whose index is not an integer, or repeats an
    earlier name's, is a problem and leaves entries."""
    index = {}
    for name in list(entries):
        if name.startswith(prefix):
            suffix = name[len(prefix):]
            k = int(suffix) if suffix.isdecimal() else None
            if k is not None and k not in index:
                index[k] = name
                continue
            entries.pop(name)
            problems.append(f"{where}{name}: " + (
                f"index {suffix!r} is not an integer" if k is None
                else f"index {k} repeats {index[k]}"))
    return [index[k] for k in sorted(index)]


def _read_section(raw: dict, section: str, problems: list, name=None) -> dict:
    """One section's keys, read by its table rows, as {attr: value}."""
    name = name or section

    def read(row, key):
        text = raw.pop(key)
        try:
            return _READERS[row.kind](text)
        except (ValueError, KeyError):
            problems.append(f"{name}.{key}: cannot parse {text!r}"
                            f"{_READ_AS.get(row.kind, '')}")
            return None

    values = {}
    for row in _SECTIONS[section]:
        if row.key.endswith(".k"):
            values[row.attr] = [read(row, key) for key in _numbered(
                raw, row.key[:-1], problems, f"{name}.")]
        elif row.key in raw:
            values[row.attr] = read(row, row.key)
        elif row.default is _REQUIRED:
            problems.append(f"{name}.{row.key}: missing required key")
        else:
            values[row.attr] = row.default
    problems += [f"{name}.{key}: unknown key" for key in raw]
    return values


def _build(values: dict) -> SimulationConfig:
    """A SimulationConfig from {attr: value}."""
    specs: dict = {"": {}}
    for attr, value in values.items():
        paths = attr.split()
        for path, v in zip(paths, value if len(paths) > 1 else (value,)):
            spec, _, name = path.rpartition(".")
            specs.setdefault(spec, {})[name] = v
    spec_types = typing.get_type_hints(SimulationConfig)
    return SimulationConfig(**specs.pop(""), **{
        spec: spec_types[spec](**kw) for spec, kw in specs.items()})


def parse_config(source: str, paper_scale: bool = False) -> SimulationConfig:
    """Load a config from a preset name, a file path or literal config text.

    Preset configs contain only a [scenario] section naming the preset;
    paper_scale, as the key or the argument, picks its full-scale variant.
    Custom configs spell out every section and take no paper_scale.  All
    violations are collected and reported together; unknown sections or
    keys are rejected.  A one-line source with no section header is a
    preset name or a path: when it is neither, the ConfigError names it.
    """
    if source in PRESETS and not os.path.exists(source):
        text = f"[scenario]\nname = {source}\n"
    elif "\n" not in source and "[" not in source:
        if not os.path.exists(source):
            raise ConfigError(
                f"config {source!r}: no such preset or file (presets: "
                f"{', '.join(sorted(PRESETS))})")
        try:
            with open(source, encoding="utf-8") as fp:
                text = fp.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"config {source!r}: not UTF-8 text "
                              f"({err.reason} at byte {err.start})") from None
    else:
        text = source

    parser = configparser.ConfigParser(
        delimiters=("=",), comment_prefixes=("#", ";"),
        inline_comment_prefixes=("#",), strict=True, interpolation=None)
    parser.optionxform = str
    try:
        parser.read_string(text)
    except configparser.Error as err:
        raise ConfigError(f"syntax error: {err}") from None

    sections = {name: dict(parser[name]) for name in parser.sections()}
    problems: list[str] = []
    scenario = _read_section(sections.pop("scenario", {}), "scenario",
                             problems)
    name = scenario["name"]
    paper_scale = paper_scale or scenario["paper_scale"]
    if name != "custom":
        if name not in PRESETS:
            raise ConfigError(
                [f"scenario.name: unknown preset {name!r} "
                 f"(expected one of {sorted(PRESETS)} or 'custom')"]
            )
        if sections:
            problems.append(
                "preset configs take no sections besides [scenario]; "
                f"found {sorted(sections)}")
        if problems:
            raise ConfigError(problems)
        return preset_config(name, paper_scale=paper_scale)

    # --- custom config ---
    if paper_scale:
        problems.append("scenario.paper_scale: paper_scale applies only to "
                        "presets, not to custom configs")
    for section, rows in _SECTIONS.items():
        if section not in sections and section != "load.k" and \
                any(row.default is _REQUIRED for row in rows):
            problems.append(f"{section}: missing required section")
    problems += [f"{extra}: unknown section" for extra in sections
                 if extra not in _SECTIONS and not extra.startswith("load.")]
    if problems:
        raise ConfigError(problems)

    values, loads = {}, []
    for section in _SECTIONS:
        if section == "load.k":
            loads = [_read_section(sections.pop(s), section, problems, s)
                     for s in _numbered(sections, "load.", problems)]
        elif section != "scenario":
            values.update(_read_section(sections.pop(section, {}), section,
                                        problems))
    if problems:
        raise ConfigError(problems)
    values["loads"] = [LoadSpec(**load) for load in loads]
    return validate_config(_build(values))


def _get(row: _Field, obj):
    return operator.attrgetter(*row.attr.split())(obj)


def _entries(cfg: SimulationConfig):
    """(section, key, row, value) for each value of cfg, in canonical order;
    [load.k] sections and fine_box.k keys are numbered from 1."""
    for section, rows in _SECTIONS.items():
        if section == "load.k":
            for k, load in enumerate(cfg.loads, 1):
                for row in rows:
                    yield f"load.{k}", row.key, row, _get(row, load)
        elif section != "scenario":
            for row in rows:
                value = _get(row, cfg)
                if row.key.endswith(".k"):
                    for k, item in enumerate(value, 1):
                        yield section, f"{row.key[:-1]}{k}", row, item
                else:
                    yield section, row.key, row, value


def _number_problem(x):
    """Why x is no finite number that the text form can carry, or None."""
    if isinstance(x, (bool, np.bool_)):
        return f"must be a number, got {x!r}"
    return None if math.isfinite(x) else f"must be finite, got {x}"


def _field_problem(row: _Field, value, dim: int):
    """The row's own check on one value: `dim` components in each point,
    finite non-bool numbers, ints for int and ordered box corners, then
    row.check."""
    if value is None:
        if row.default is None:
            return None  # an optional key left out
    elif row.kind in ("vector", "box", "segment"):
        points = (value,) if row.kind == "vector" else value
        sizes = [len(point) for point in points if len(point) != dim]
        if sizes:
            return f"expected {dim} components, got {sizes[0]}"
        bad = [p for point in points for x in point
               if (p := _number_problem(x))]
        if bad:
            return bad[0]
        if row.kind == "box" and any(a > b for a, b in zip(*value)):
            return "min corner exceeds max corner"
    elif row.kind == "float" and (problem := _number_problem(value)):
        return problem
    elif row.kind == "int" and (isinstance(value, bool) or
                                not isinstance(value, numbers.Integral)):
        return f"must be an integer, got {value!r}"
    rule, *args = row.check or (None,)
    if rule == "positive" and not (value is not None and value > 0):
        return "must be positive"
    if rule == "at_least" and (value is None or value < args[0]):
        return f"must be >= {args[0]}, got {value}"
    if rule == "nonempty" and not value:
        return "must not be empty"
    if rule == "one_of":
        for item in value if row.kind == "names" else (value,):
            if item not in args:
                return f"expected {' or '.join(map(str, args))}, got {item!r}"
    return None


def validate_config(cfg: SimulationConfig):
    """The table's field checks, then the cross-field rules; raises
    ConfigError listing every violation."""
    dim = cfg.dim
    if dim not in (2, 3):  # every other rule reads the dimension
        raise ConfigError([f"geometry.box: dimension must be 2 or 3, got {dim}"])
    field_problems = [f"{section}.{key}: {problem}"
                      for section, key, row, value in _entries(cfg)
                      if (problem := _field_problem(row, value, dim))]
    failed = {problem.partition(":")[0] for problem in field_problems}
    if "geometry.box" in failed:  # the cross-field rules read the box
        raise ConfigError(field_problems)
    p = []  # the cross-field rules; a key that failed its own check is skipped
    g = cfg.geometry
    if any(b <= a for a, b in zip(g.box_min, g.box_max)):
        p.append("geometry.box: extents must be positive")
    if dim == 2 and (g.thickness is None or g.thickness <= 0):
        p.append("geometry.thickness: required and positive in 2D")
    if dim == 3 and g.thickness is not None:
        p.append("geometry.thickness: applies only to 2D")
    if cfg.fracture.precrack is not None and dim != 2:
        p.append("fracture.precrack: pre-cracks are only supported in 2D")
    for k, (lo, hi) in enumerate(cfg.mts.fine_boxes, 1):
        if any(a < b - 1e-12 for a, b in zip(lo, g.box_min)) or \
                any(a > b + 1e-12 for a, b in zip(hi, g.box_max)):
            p.append(f"mts.fine_box.{k}: lies outside the geometry box")
    if cfg.output.cadence > 0 and cfg.time.n_steps and \
            cfg.time.n_steps % cfg.output.cadence != 0:
        p.append(
            f"output.cadence: {cfg.output.cadence} does not divide "
            f"n_steps = {cfg.time.n_steps}")
    if cfg.error_component not in _AXES or _AXES[cfg.error_component] >= dim:
        p.append(f"analysis.error_component: invalid axis "
                 f"{cfg.error_component!r} for {dim}D")
    p = field_problems + [q for q in p if q.partition(":")[0] not in failed]
    if p:
        raise ConfigError(p)
    return cfg


def _fmt_vec(vec) -> str:
    return ", ".join(repr(float(v)) for v in vec)


def _fmt_pair(pair) -> str:
    return f"{_fmt_vec(pair[0])} ; {_fmt_vec(pair[1])}"


_WRITERS = {"str": str, "int": str, "float": lambda v: repr(float(v)),
            "box": _fmt_pair, "segment": _fmt_pair, "vector": _fmt_vec,
            "names": ",".join}


def serialize_config(cfg: SimulationConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) is stable."""
    lines, current = ["[scenario]", "name = custom"], "scenario"
    for section, key, row, value in _entries(cfg):
        if value is None:
            continue  # an optional key left out
        if section != current:
            lines += ["", f"[{section}]"]
            current = section
        lines.append(f"{key} = {_WRITERS[row.kind](value)}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets

def _loaded_body(box_max: tuple, dx: float, E: float,
                 thickness: float | None) -> SimulationConfig:
    """The plate2d/block3d scenario: a linear body from the origin to
    ``box_max`` (x length 1.0) under a y body force b = 2e8 * 1.0 / 0.01 in
    a layer max(dx, 0.01) deep at x = 1, with the fine region the last two
    horizons (delta = 3 dx) in x; 40 steps of 1e-5 s, MTS order 4, K = 2,
    and no snapshots."""
    delta = 3 * dx
    layer_w = max(dx, 0.01)
    b_p = 2.0e8 * 1.0 / 0.01
    origin = (0.0,) * len(box_max)
    far = (1.0,) + tuple(box_max[1:])
    fine_lo = 1.0 - 2 * delta
    return SimulationConfig(
        geometry=GeometrySpec(box_min=origin, box_max=box_max,
                              dx=dx, thickness=thickness),
        material=Material(E=E, rho=8000.0),
        delta=delta, law="linear",
        loads=[LoadSpec(kind="body_force",
                        box=((1.0 - layer_w,) + origin[1:], far),
                        value=(0.0, b_p) + origin[2:])],
        fracture=FractureSpec(),
        time=TimeSpec(dt=1.0e-5, n_steps=40),
        mts=MtsSpec(scheme="mts", order=4, K=2,
                    fine_boxes=[((fine_lo,) + origin[1:], far)]),
        output=OutputSpec(directory="out", cadence=0, formats=()),
        error_component="y")


def _plate2d(paper_scale: bool) -> SimulationConfig:
    # Full scale: E = 1.92e11, 100x50 mesh, delta = 0.03, load 2e8 * W / d
    # (d = 0.01, the plate's thickness).  Desk scale softens E by 100x so
    # the mandated dt sweep (1e-5 s down) stays inside the RK3 stability
    # region on the 40x20 mesh.
    dx, E = (0.01, 1.92e11) if paper_scale else (0.025, 1.92e9)
    return _loaded_body((1.0, 0.5), dx, E, thickness=0.01)


def _block3d(paper_scale: bool) -> SimulationConfig:
    # Full scale: 1.0 x 0.3 x 0.3 m block, 100x30x30 mesh, E quoted as
    # 2.0e5 MPa.  Desk scale reshapes to 1.0 x 0.5 x 0.5 so dx = 0.05
    # tiles a 20x10x10 mesh, and softens E by 100x (stability, as above).
    if paper_scale:
        box_max, dx, E = (1.0, 0.3, 0.3), 0.01, 2.0e11
    else:
        box_max, dx, E = (1.0, 0.5, 0.5), 0.05, 2.0e9
    return _loaded_body(box_max, dx, E, thickness=None)


def _crack2d(paper_scale: bool) -> SimulationConfig:
    # 0.05 x 0.05 m plate, center crack of length 0.01, +-20 m/s velocity
    # layers of depth delta, s0 = 0.01.  The desk mesh is 100x100; its E is
    # 2.5x the printed value so the superposed clamp-wave strain (2v/c)
    # stays at ~0.5 s0 and fracture is driven by the crack-tip
    # concentration, not by midline wave crossing or clamp tear-off.
    dx = 1.0e-4 if paper_scale else 5.0e-4
    delta = 3 * dx
    dt = 0.5e-5 if paper_scale else 1.75e-8
    n_steps = 1500 if paper_scale else 300
    E = 1.92e11 if paper_scale else 4.8e11
    side = 0.05
    return SimulationConfig(
        geometry=GeometrySpec(box_min=(0.0, 0.0), box_max=(side, side),
                              dx=dx, thickness=0.01),
        material=Material(E=E, rho=8000.0),
        delta=delta, law="linear",
        loads=[
            LoadSpec(kind="velocity",
                     box=((0.0, side - delta), (side, side)),
                     value=(0.0, 20.0)),
            LoadSpec(kind="velocity",
                     box=((0.0, 0.0), (side, delta)),
                     value=(0.0, -20.0)),
        ],
        fracture=FractureSpec(s0=0.01,
                              precrack=((0.02, 0.025), (0.03, 0.025))),
        time=TimeSpec(dt=dt, n_steps=n_steps),
        mts=MtsSpec(scheme="mts", order=4, K=2,
                    fine_boxes=[((0.0, 0.02), (side, 0.03))]),
        output=OutputSpec(directory="out", cadence=50, formats=("vtk",)),
        error_component="y")


PRESETS = {"plate2d": _plate2d, "block3d": _block3d, "crack2d": _crack2d}


def preset_config(name: str, paper_scale: bool = False) -> SimulationConfig:
    if name not in PRESETS:
        raise ConfigError([f"unknown preset {name!r}"])
    return validate_config(PRESETS[name](paper_scale))


def apply_overrides(cfg: SimulationConfig, scheme=None, order=None,
                    dt=None, K=None, out=None) -> SimulationConfig:
    """cfg with the given values; an argument left None keeps cfg's."""
    def given(spec, **values):
        return dataclasses.replace(spec, **{key: value for key, value
                                            in values.items() if value is not None})

    return validate_config(dataclasses.replace(
        cfg, mts=given(cfg.mts, scheme=scheme, order=order, K=K),
        time=given(cfg.time, dt=dt), output=given(cfg.output, directory=out)))


# ---------------------------------------------------------------------------
# scenario assembly

class Scenario:
    """A config resolved onto a concrete cloud, neighbor list, and operator.

    Damage flags are per-run state: each operator holds its own copy of
    the scenario's (post-precrack) flags, read through `op.nbrs`.  The
    scenario's own flags must not change after assembly, as its text keys
    cached references; `fresh_operator()` raises if they did.
    """

    def __init__(self, cfg: SimulationConfig):
        validate_config(cfg)
        self.cfg = cfg
        self.cloud = build_grid((cfg.geometry.box_min, cfg.geometry.box_max),
                                cfg.geometry.dx, cfg.geometry.thickness)
        self.nbrs = build_neighbor_list(self.cloud, cfg.delta)
        if cfg.fracture.precrack is not None:
            break_precrack_bonds(self.cloud, self.nbrs, cfg.fracture.precrack)
        self._mu_version = self.nbrs.version
        self.labels = classify_subdomains(self.cloud, self.nbrs,
                                          cfg.mts.fine_boxes)
        self.loadings = []
        for spec in cfg.loads:
            idx = select_layer(self.cloud, spec.box)
            kind = "body_force_layer" if spec.kind == "body_force" \
                else "velocity_constraint"
            self.loadings.append(Loading(kind=kind, indices=idx,
                                         value=np.asarray(spec.value)))
        self.error_axis = _AXES[cfg.error_component]

    @property
    def s0(self) -> float | None:
        return self.cfg.fracture.s0

    @property
    def final_time(self) -> float:
        return self.cfg.time.dt * self.cfg.time.n_steps

    @property
    def canonical_text(self) -> str:
        return serialize_config(self.cfg)

    def fresh_operator(self) -> PDOperator:
        if self.nbrs.version != self._mu_version:
            raise SimulationError(
                "the scenario's bond flags changed after assembly; an "
                "operator must break bonds in its own copy")
        return PDOperator(self.cloud, self.nbrs, self.cfg.material,
                          self.loadings, self.cfg.law)

    def initial_state(self) -> FieldState:
        n, dim = self.cloud.n_points, self.cloud.dim
        u = np.zeros((n, dim))
        v = np.zeros((n, dim))
        for load in self.loadings:
            if load.kind == "velocity_constraint":
                v[load.indices] = load.value
        return FieldState(u=u, v=v, t=0.0)

    def mts_config(self, dt=None, K=None) -> MtsConfig:
        """The MTS configuration; an argument left None takes the config's
        value, and an explicit one is validated (K=0 raises)."""
        cfg = self.cfg
        return MtsConfig(order=cfg.mts.order,
                         dt=cfg.time.dt if dt is None else dt,
                         K=cfg.mts.K if K is None else K,
                         labels=self.labels).validate()


# ---------------------------------------------------------------------------
# orchestration

def run_scheme(scenario: Scenario, op, scheme: str, dt: float, n_steps: int,
               K=None, on_step=None):
    """One run of the scenario on ``op`` from its initial state, by UPD at
    dt or by MTS at (dt, K); returns (trajectory, timing).  The trajectory
    holds the initial and final states.  UPD times the whole run as one
    "upd" phase."""
    state0 = scenario.initial_state()
    if scheme == "upd":
        timing = TimingReport()
        with timing.phase("upd"):
            traj = upd_run(op, state0, dt, n_steps,
                           tableau(scenario.cfg.mts.order), s0=scenario.s0,
                           on_step=on_step)
        return traj, timing
    return mts_run(op, state0, scenario.mts_config(dt=dt, K=K), n_steps,
                   s0=scenario.s0, on_step=on_step)


def run(cfg: SimulationConfig):
    """Execute the configured scheme; write snapshots and the timing report.

    Returns (trajectory, timing, artifact_paths).  The VTK snapshots are
    the cadenced record; the trajectory holds the initial and final states.
    """
    scenario = Scenario(cfg)
    op = scenario.fresh_operator()  # a refused config leaves no directory
    out_dir = cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)
    cadence = cfg.output.cadence
    paths = []
    want_vtk = "vtk" in cfg.output.formats

    def snap_path(step):
        return os.path.join(out_dir, f"snapshot_{step:06d}.vtk")

    if want_vtk:
        pio.write_vtk(scenario.cloud, scenario.initial_state(),
                      damage_index(op.nbrs), snap_path(0))
        paths.append(snap_path(0))

    def on_step(step, t, y):
        if want_vtk and (step == cfg.time.n_steps
                         or (cadence and step % cadence == 0)):
            pio.write_vtk(scenario.cloud, FieldState.from_packed(y, t),
                          damage_index(op.nbrs), snap_path(step))
            paths.append(snap_path(step))

    traj, timing = run_scheme(scenario, op, cfg.mts.scheme, cfg.time.dt,
                              cfg.time.n_steps, on_step=on_step)
    if cfg.time.n_steps > 0:
        tpath = os.path.join(out_dir, "timing.txt")
        pio.write_timing(timing, tpath)
        paths.append(tpath)
    return traj, timing, paths


def converge(cfg: SimulationConfig, dt_list, k_list, reference_dt=None,
             out_csv=None, cache_dir=None):
    """Sweep dt x K, measure final-time errors against a UPD reference, and
    attach observed orders.

    K = 1 rows run the UPD scheme (the undecomposed baseline); K > 1 rows
    run MTS.  Each run reports the scopes ``analysis.scoped_errors``
    returns: "all", then "coarse" and "fine" when the split has points on
    both sides.  Returns the ConvergenceRow list, ordered by dt, then K,
    then scope.
    """
    dt_list = sorted(dt_list, reverse=True)
    problems = []
    dt_problem = halving_violation(dt_list)
    if dt_problem:
        problems.append(f"dt list: {dt_problem}")
    bad_k = [problem for K in k_list if (problem := refinement_violation(K))]
    if bad_k:
        problems.append(f"K list: {bad_k[0]}")
    repeated = [K for n, K in enumerate(k_list) if K in k_list[:n]]
    if repeated:
        problems.append(f"K list: K {repeated[0]} is repeated")
    if isinstance(reference_dt, (bool, np.bool_)):
        problems.append(f"reference dt: {_number_problem(reference_dt)}")
    elif reference_dt is not None and not (math.isfinite(reference_dt)
                                           and reference_dt > 0):
        problems.append("reference dt: must be positive and finite, "
                        f"got {reference_dt}")
    elif not dt_problem and reference_dt is not None \
            and reference_dt > dt_list[-1]:
        problems.append(f"reference dt {reference_dt} is coarser than the "
                        f"finest swept dt {dt_list[-1]}")
    if problems:
        raise ConfigError(problems)
    scenario = Scenario(cfg)
    final_time = scenario.final_time
    if final_time <= 0:
        raise ConfigError(["time.n_steps: convergence sweeps need n_steps > 0"])
    if reference_dt is None:
        reference_dt = min(dt_list) / 16.0

    try:
        steps = {dt: step_count(final_time, dt) for dt in dt_list}
        step_count(final_time, reference_dt, "reference dt")
    except ValueError as err:
        raise ConfigError([str(err)]) from None

    tab = tableau(cfg.mts.order)
    reference = reference_solution(scenario, tab, reference_dt,
                                   cache_dir=cache_dir)
    errors = {}  # (K, scope) -> list aligned with dt_list
    for dt in dt_list:
        for K in k_list:
            traj, _ = run_scheme(scenario, scenario.fresh_operator(),
                                 "upd" if K == 1 else "mts", dt, steps[dt], K=K)
            scoped = scoped_errors(traj.final, reference, scenario.labels,
                                   scenario.error_axis)
            for scope, error in scoped.items():
                errors.setdefault((K, scope), []).append(error)

    crs = {key: observed_order(errs, dt_list) for key, errs in errors.items()}
    rows = [ConvergenceRow(dt=dt, K=K, scope=scope, error=errs[i],
                           cr=crs[(K, scope)][i - 1] if i > 0 else None)
            for i, dt in enumerate(dt_list)
            for (K, scope), errs in errors.items()]
    if out_csv:
        os.makedirs(os.path.dirname(out_csv) or ".", exist_ok=True)
        pio.write_csv(rows, out_csv)
    return rows


def compare(cfg: SimulationConfig, out_dir=None):
    """MTS at the config's (dt, K) against UPD at dt/K over the same final
    time.

    Returns (mts_seconds, upd_seconds, ratio, model_ratio, l2_difference),
    in compare.txt's row order: the wall times of the two runs (phases
    "mts" and "upd" of one TimingReport), their ratio, the cost model's
    ratio (``mts.cost_model``) and the final-time L2 difference.  With
    out_dir, also writes the MTS timing report and compare.txt.  Raises
    ConfigError when n_steps is 0: no run to time.
    """
    scenario = Scenario(cfg)
    dt, n_steps, K = cfg.time.dt, cfg.time.n_steps, cfg.mts.K
    model = cost_model(scenario.nbrs, scenario.mts_config())
    if n_steps == 0:
        raise ConfigError(["time.n_steps: comparisons need n_steps > 0"])

    timing = TimingReport()
    op = scenario.fresh_operator()
    with timing.phase("mts"):
        mts_traj, mts_timing = run_scheme(scenario, op, "mts", dt, n_steps)
    op = scenario.fresh_operator()
    with timing.phase("upd"):
        upd_traj, _ = run_scheme(scenario, op, "upd", dt / K, n_steps * K)
    mts_seconds, upd_seconds = timing.seconds("mts"), timing.seconds("upd")

    axis = scenario.error_axis
    diff = l2_error(mts_traj.final.u[:, axis], upd_traj.final.u[:, axis])
    ratio = mts_seconds / upd_seconds
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        pio.write_timing(mts_timing, os.path.join(out_dir, "timing_mts.txt"))
        with open(os.path.join(out_dir, "compare.txt"), "w") as fp:
            fp.write(f"mts_seconds,{mts_seconds:.6f}\n"
                     f"upd_seconds,{upd_seconds:.6f}\n"
                     f"ratio,{ratio:.6f}\n"
                     f"model_ratio,{model:.6f}\n"
                     f"l2_difference,{diff:.6e}\n")
    return mts_seconds, upd_seconds, ratio, model, diff
