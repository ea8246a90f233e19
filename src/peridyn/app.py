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
import os
from dataclasses import dataclass, field

import numpy as np

from . import io as pio
from .analysis import ConvergenceRow, halving_violation, l2_error, \
    observed_order, reference_solution, scoped_errors
from .forces import FieldState, Loading, Material, PDOperator, \
    break_precrack_bonds, damage_index, poisson_violation
from .geometry import GeometryError, build_grid, build_neighbor_list, \
    classify_subdomains, select_layer
from .integrator import tableau, upd_run
from .mts import MtsConfig, mts_run

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
    thickness: float | None = None


@dataclass
class MaterialSpec:
    E: float
    nu: float
    rho: float


@dataclass
class LoadSpec:
    kind: str  # "body_force" | "velocity"
    box: tuple  # (min_corner, max_corner)
    value: tuple


@dataclass
class FractureSpec:
    enabled: bool = False
    s0: float | None = None
    precrack: tuple | None = None  # (endpoint_a, endpoint_b)


@dataclass
class TimeSpec:
    dt: float
    n_steps: int


@dataclass
class MtsSpec:
    scheme: str = "mts"  # "upd" | "mts"
    order: int = 4
    K: int = 1
    fine_boxes: list = field(default_factory=list)


@dataclass
class OutputSpec:
    directory: str = "out"
    cadence: int = 0  # 0: record initial and final only
    formats: tuple = ("vtk",)


@dataclass
class SimulationConfig:
    name: str
    geometry: GeometrySpec
    material: MaterialSpec
    delta: float
    law: str
    loads: list
    fracture: FractureSpec
    time: TimeSpec
    mts: MtsSpec
    output: OutputSpec
    error_component: str = "y"

    @property
    def dim(self) -> int:
        return len(self.geometry.box_min)


# ---------------------------------------------------------------------------
# parsing

def _parse_floats(text: str, path: str, problems: list, n=None):
    try:
        values = tuple(float(tok) for tok in text.split(","))
    except ValueError:
        problems.append(f"{path}: cannot parse {text!r} as numbers")
        return None
    if n is not None and len(values) != n:
        problems.append(f"{path}: expected {n} components, got {len(values)}")
        return None
    return values


def _parse_segment(text: str, path: str, problems: list, dim=None):
    """A 'point ; point' pair; endpoints need not be ordered."""
    halves = text.split(";")
    if len(halves) != 2:
        problems.append(f"{path}: expected 'min ; max', got {text!r}")
        return None
    lo = _parse_floats(halves[0], path, problems, dim)
    hi = _parse_floats(halves[1], path, problems, dim)
    if lo is None or hi is None:
        return None
    if len(lo) != len(hi):
        problems.append(f"{path}: the two corners have different dimensions")
        return None
    return (lo, hi)


def _parse_box(text: str, path: str, problems: list, dim=None):
    pair = _parse_segment(text, path, problems, dim)
    if pair is not None and any(a > b for a, b in zip(*pair)):
        problems.append(f"{path}: min corner exceeds max corner")
        return None
    return pair


_REQUIRED = object()


def _get(section, key, path, problems, cast=str, default=_REQUIRED):
    if key not in section:
        if default is not _REQUIRED:
            return default
        problems.append(f"{path}.{key}: missing required key")
        return None
    raw = section.pop(key)
    try:
        if cast is bool:
            if raw.lower() in ("true", "yes", "1"):
                return True
            if raw.lower() in ("false", "no", "0"):
                return False
            raise ValueError(raw)
        return cast(raw)
    except ValueError:
        problems.append(f"{path}.{key}: cannot parse {raw!r}")
        return None


def parse_config(source: str) -> SimulationConfig:
    """Parse a config from a file path or from literal config text.

    Preset configs contain only a [scenario] section naming the preset;
    custom configs spell out every section.  All violations are collected
    and reported together; unknown sections or keys are rejected.
    """
    if "\n" not in source and "[" not in source and os.path.exists(source):
        with open(source) as fp:
            text = fp.read()
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

    scenario = sections.pop("scenario", {})
    name = scenario.pop("name", "custom")
    paper_scale = scenario.pop("paper_scale", "false").lower() in ("true", "yes", "1")
    for key in scenario:
        problems.append(f"scenario.{key}: unknown key")

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
    geo = sections.pop("geometry", None)
    mat = sections.pop("material", None)
    hor = sections.pop("horizon", None)
    frc = sections.pop("forces", None)
    fra = sections.pop("fracture", {})
    tim = sections.pop("time", None)
    mts = sections.pop("mts", {})
    out = sections.pop("output", {})
    ana = sections.pop("analysis", {})
    loads_raw = {k: sections.pop(k) for k in sorted(sections)
                 if k.startswith("load.")}

    for missing, label in ((geo, "geometry"), (mat, "material"),
                           (hor, "horizon"), (frc, "forces"), (tim, "time")):
        if missing is None:
            problems.append(f"{label}: missing required section")
    for extra in sections:
        if not extra.startswith("load."):
            problems.append(f"{extra}: unknown section")
    if problems:
        raise ConfigError(problems)

    dim = None
    box = _parse_box(geo.pop("box", ""), "geometry.box", problems) \
        if "box" in geo else problems.append("geometry.box: missing required key")
    if box:
        dim = len(box[0])
        if dim not in (2, 3):
            problems.append(f"geometry.box: dimension must be 2 or 3, got {dim}")
            dim = None
    dx = _get(geo, "dx", "geometry", problems, float)
    thickness = _get(geo, "thickness", "geometry", problems, float, None)
    for key in geo:
        problems.append(f"geometry.{key}: unknown key")

    E = _get(mat, "E", "material", problems, float)
    nu = _get(mat, "nu", "material", problems, float)
    rho = _get(mat, "rho", "material", problems, float)
    for key in mat:
        problems.append(f"material.{key}: unknown key")

    delta = _get(hor, "delta", "horizon", problems, float)
    for key in hor:
        problems.append(f"horizon.{key}: unknown key")

    law = _get(frc, "law", "forces", problems, str)
    for key in frc:
        problems.append(f"forces.{key}: unknown key")

    loads = []
    for sec_name, sec in loads_raw.items():
        kind = _get(sec, "kind", sec_name, problems, str)
        lbox = _parse_box(sec.pop("box", ""), f"{sec_name}.box", problems, dim) \
            if "box" in sec else problems.append(f"{sec_name}.box: missing required key")
        value = _parse_floats(sec.pop("value", ""), f"{sec_name}.value",
                              problems, dim) \
            if "value" in sec else problems.append(f"{sec_name}.value: missing required key")
        for key in sec:
            problems.append(f"{sec_name}.{key}: unknown key")
        if kind not in ("body_force", "velocity"):
            problems.append(f"{sec_name}.kind: expected body_force or velocity, "
                            f"got {kind!r}")
        elif lbox and value:
            loads.append(LoadSpec(kind=kind, box=lbox, value=value))

    enabled = _get(fra, "enabled", "fracture", problems, bool, False)
    s0 = _get(fra, "s0", "fracture", problems, float, None)
    precrack = None
    if "precrack" in fra:
        precrack = _parse_segment(fra.pop("precrack"), "fracture.precrack",
                                  problems, dim)
    for key in fra:
        problems.append(f"fracture.{key}: unknown key")

    dt = _get(tim, "dt", "time", problems, float)
    n_steps = _get(tim, "n_steps", "time", problems, int)
    for key in tim:
        problems.append(f"time.{key}: unknown key")

    scheme = _get(mts, "scheme", "mts", problems, str, "upd")
    order = _get(mts, "order", "mts", problems, int, 4)
    K = _get(mts, "K", "mts", problems, int, 1)
    fine_boxes = []
    for key in sorted(k for k in mts if k.startswith("fine_box")):
        fb = _parse_box(mts.pop(key), f"mts.{key}", problems, dim)
        if fb:
            fine_boxes.append(fb)
    for key in mts:
        problems.append(f"mts.{key}: unknown key")

    directory = _get(out, "directory", "output", problems, str, "out")
    cadence = _get(out, "cadence", "output", problems, int, 0)
    formats_raw = _get(out, "formats", "output", problems, str, "vtk")
    formats = tuple(f.strip() for f in formats_raw.split(",") if f.strip()) \
        if formats_raw else ("vtk",)
    for key in out:
        problems.append(f"output.{key}: unknown key")

    error_component = _get(ana, "error_component", "analysis", problems, str, "y")
    for key in ana:
        problems.append(f"analysis.{key}: unknown key")

    if problems:
        raise ConfigError(problems)

    cfg = SimulationConfig(
        name="custom",
        geometry=GeometrySpec(box_min=box[0], box_max=box[1], dx=dx,
                              thickness=thickness),
        material=MaterialSpec(E=E, nu=nu, rho=rho),
        delta=delta, law=law, loads=loads,
        fracture=FractureSpec(enabled=enabled, s0=s0, precrack=precrack),
        time=TimeSpec(dt=dt, n_steps=n_steps),
        mts=MtsSpec(scheme=scheme, order=order, K=K, fine_boxes=fine_boxes),
        output=OutputSpec(directory=directory, cadence=cadence,
                          formats=formats),
        error_component=error_component)
    validate_config(cfg)
    return cfg


def validate_config(cfg: SimulationConfig):
    """Cross-field checks; raises ConfigError listing every violation."""
    p: list[str] = []
    dim = cfg.dim
    if dim not in (2, 3):
        p.append(f"geometry.box: dimension must be 2 or 3, got {dim}")
    if len(cfg.geometry.box_max) != dim:
        p.append("geometry.box: min and max dimensions differ")
    if any(b <= a for a, b in zip(cfg.geometry.box_min, cfg.geometry.box_max)):
        p.append("geometry.box: extents must be positive")
    if cfg.geometry.dx is None or cfg.geometry.dx <= 0:
        p.append("geometry.dx: must be positive")
    if dim == 2 and (cfg.geometry.thickness is None or cfg.geometry.thickness <= 0):
        p.append("geometry.thickness: required and positive in 2D")
    if cfg.material.E is None or cfg.material.E <= 0:
        p.append("material.E: must be positive")
    if cfg.material.rho is None or cfg.material.rho <= 0:
        p.append("material.rho: must be positive")
    nu_problem = poisson_violation(cfg.material.nu, dim)
    if nu_problem:
        p.append(f"material.nu: {nu_problem}")
    if cfg.delta is None or cfg.delta <= 0:
        p.append("horizon.delta: must be positive")
    if cfg.law not in ("linear", "nonlinear"):
        p.append(f"forces.law: expected linear or nonlinear, got {cfg.law!r}")
    for k, load in enumerate(cfg.loads, 1):
        if len(load.value) != dim:
            p.append(f"load.{k}.value: expected {dim} components")
    if cfg.fracture.enabled and (cfg.fracture.s0 is None or cfg.fracture.s0 <= 0):
        p.append("fracture.s0: must be positive when fracture is enabled")
    if cfg.fracture.precrack is not None and dim != 2:
        p.append("fracture.precrack: pre-cracks are only supported in 2D")
    if cfg.time.dt is None or cfg.time.dt <= 0:
        p.append("time.dt: must be positive")
    if cfg.time.n_steps is None or cfg.time.n_steps < 0:
        p.append("time.n_steps: must be >= 0")
    if cfg.mts.scheme not in ("upd", "mts"):
        p.append(f"mts.scheme: expected upd or mts, got {cfg.mts.scheme!r}")
    if cfg.mts.order not in (3, 4):
        p.append(f"mts.order: expected 3 or 4, got {cfg.mts.order}")
    if cfg.mts.K < 1:
        p.append(f"mts.K: must be >= 1, got {cfg.mts.K}")
    lo = np.array(cfg.geometry.box_min)
    hi = np.array(cfg.geometry.box_max)
    for k, fb in enumerate(cfg.mts.fine_boxes, 1):
        if np.any(np.array(fb[0]) < lo - 1e-12) or np.any(np.array(fb[1]) > hi + 1e-12):
            p.append(f"mts.fine_box.{k}: lies outside the geometry box")
    if cfg.output.cadence < 0:
        p.append("output.cadence: must be >= 0")
    if cfg.output.cadence > 0 and cfg.time.n_steps and \
            cfg.time.n_steps % cfg.output.cadence != 0:
        p.append(
            f"output.cadence: {cfg.output.cadence} does not divide "
            f"n_steps = {cfg.time.n_steps}")
    for fmt in cfg.output.formats:
        if fmt not in ("vtk", "csv"):
            p.append(f"output.formats: unknown format {fmt!r}")
    if cfg.error_component not in _AXES or _AXES[cfg.error_component] >= dim:
        p.append(f"analysis.error_component: invalid axis "
                 f"{cfg.error_component!r} for {dim}D")
    if p:
        raise ConfigError(p)
    return cfg


def _fmt_vec(vec) -> str:
    return ", ".join(repr(float(v)) for v in vec)


def _fmt_box(box) -> str:
    return f"{_fmt_vec(box[0])} ; {_fmt_vec(box[1])}"


def serialize_config(cfg: SimulationConfig) -> str:
    """Canonical text form; parse(serialize(parse(x))) is stable."""
    lines = ["[scenario]", "name = custom", ""]
    g = cfg.geometry
    lines += ["[geometry]", f"box = {_fmt_box((g.box_min, g.box_max))}",
              f"dx = {g.dx!r}"]
    if g.thickness is not None:
        lines.append(f"thickness = {g.thickness!r}")
    lines += ["", "[material]", f"E = {cfg.material.E!r}",
              f"nu = {cfg.material.nu!r}", f"rho = {cfg.material.rho!r}",
              "", "[horizon]", f"delta = {cfg.delta!r}",
              "", "[forces]", f"law = {cfg.law}"]
    for k, load in enumerate(cfg.loads, 1):
        lines += ["", f"[load.{k}]", f"kind = {load.kind}",
                  f"box = {_fmt_box(load.box)}",
                  f"value = {_fmt_vec(load.value)}"]
    lines += ["", "[fracture]", f"enabled = {str(cfg.fracture.enabled).lower()}"]
    if cfg.fracture.s0 is not None:
        lines.append(f"s0 = {cfg.fracture.s0!r}")
    if cfg.fracture.precrack is not None:
        lines.append(f"precrack = {_fmt_box(cfg.fracture.precrack)}")
    lines += ["", "[time]", f"dt = {cfg.time.dt!r}",
              f"n_steps = {cfg.time.n_steps}",
              "", "[mts]", f"scheme = {cfg.mts.scheme}",
              f"order = {cfg.mts.order}", f"K = {cfg.mts.K}"]
    for k, fb in enumerate(cfg.mts.fine_boxes, 1):
        lines.append(f"fine_box.{k} = {_fmt_box(fb)}")
    lines += ["", "[output]", f"directory = {cfg.output.directory}",
              f"cadence = {cfg.output.cadence}",
              f"formats = {','.join(cfg.output.formats)}",
              "", "[analysis]", f"error_component = {cfg.error_component}"]
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# presets

def _plate2d(paper_scale: bool) -> SimulationConfig:
    # Full scale: E = 1.92e11, 100x50 mesh, delta = 0.03, load 2e8 * W / d.
    # Desk scale softens E by 100x so the mandated dt sweep (1e-5 s down)
    # stays inside the RK3 stability region on the 40x20 mesh.
    dx = 0.01 if paper_scale else 0.025
    E = 1.92e11 if paper_scale else 1.92e9
    delta = 3 * dx
    thickness = 0.01
    layer_w = max(dx, thickness)
    b_p = 2.0e8 * 1.0 / thickness
    fine_lo = 1.0 - 2 * delta
    return SimulationConfig(
        name="plate2d",
        geometry=GeometrySpec(box_min=(0.0, 0.0), box_max=(1.0, 0.5),
                              dx=dx, thickness=thickness),
        material=MaterialSpec(E=E, nu=1.0 / 3.0, rho=8000.0),
        delta=delta, law="linear",
        loads=[LoadSpec(kind="body_force",
                        box=((1.0 - layer_w, 0.0), (1.0, 0.5)),
                        value=(0.0, b_p))],
        fracture=FractureSpec(enabled=False),
        time=TimeSpec(dt=1.0e-5, n_steps=40),
        mts=MtsSpec(scheme="mts", order=4, K=2,
                    fine_boxes=[((fine_lo, 0.0), (1.0, 0.5))]),
        output=OutputSpec(directory="out", cadence=0, formats=("csv",)),
        error_component="y")


def _block3d(paper_scale: bool) -> SimulationConfig:
    # Full scale: 1.0 x 0.3 x 0.3 m block, 100x30x30 mesh, E quoted as
    # 2.0e5 MPa.  Desk scale reshapes to 1.0 x 0.5 x 0.5 so dx = 0.05
    # tiles a 20x10x10 mesh, and softens E by 100x (stability, as above).
    if paper_scale:
        box_max = (1.0, 0.3, 0.3)
        dx = 0.01
        E = 2.0e11
    else:
        box_max = (1.0, 0.5, 0.5)
        dx = 0.05
        E = 2.0e9
    delta = 3 * dx
    layer_w = max(dx, 0.01)
    b_p = 2.0e8 * 1.0 / 0.01
    fine_lo = 1.0 - 2 * delta
    return SimulationConfig(
        name="block3d",
        geometry=GeometrySpec(box_min=(0.0, 0.0, 0.0), box_max=box_max,
                              dx=dx, thickness=None),
        material=MaterialSpec(E=E, nu=0.25, rho=8000.0),
        delta=delta, law="linear",
        loads=[LoadSpec(kind="body_force",
                        box=((1.0 - layer_w, 0.0, 0.0), (1.0,) + box_max[1:]),
                        value=(0.0, b_p, 0.0))],
        fracture=FractureSpec(enabled=False),
        time=TimeSpec(dt=1.0e-5, n_steps=40),
        mts=MtsSpec(scheme="mts", order=4, K=2,
                    fine_boxes=[((fine_lo, 0.0, 0.0), (1.0,) + box_max[1:])]),
        output=OutputSpec(directory="out", cadence=0, formats=("csv",)),
        error_component="y")


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
        name="crack2d",
        geometry=GeometrySpec(box_min=(0.0, 0.0), box_max=(side, side),
                              dx=dx, thickness=0.01),
        material=MaterialSpec(E=E, nu=1.0 / 3.0, rho=8000.0),
        delta=delta, law="linear",
        loads=[
            LoadSpec(kind="velocity",
                     box=((0.0, side - delta), (side, side)),
                     value=(0.0, 20.0)),
            LoadSpec(kind="velocity",
                     box=((0.0, 0.0), (side, delta)),
                     value=(0.0, -20.0)),
        ],
        fracture=FractureSpec(enabled=True, s0=0.01,
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
    mts = dataclasses.replace(
        cfg.mts,
        scheme=scheme if scheme is not None else cfg.mts.scheme,
        order=order if order is not None else cfg.mts.order,
        K=K if K is not None else cfg.mts.K)
    time = dataclasses.replace(
        cfg.time, dt=dt if dt is not None else cfg.time.dt)
    output = dataclasses.replace(
        cfg.output, directory=out if out is not None else cfg.output.directory)
    return validate_config(dataclasses.replace(cfg, mts=mts, time=time,
                                               output=output))


# ---------------------------------------------------------------------------
# scenario assembly

class Scenario:
    """A config resolved onto a concrete cloud, neighbor list, and operator.

    Damage flags are per-run state: `fresh_operator()` hands out an operator
    backed by a pristine copy of the (post-precrack) bond flags, so repeated
    runs from one scenario are independent.
    """

    def __init__(self, cfg: SimulationConfig):
        validate_config(cfg)
        self.cfg = cfg
        self.cloud = build_grid((cfg.geometry.box_min, cfg.geometry.box_max),
                                cfg.geometry.dx, cfg.geometry.thickness)
        self.nbrs = build_neighbor_list(self.cloud, cfg.delta)
        self.precracked_bonds = 0
        if cfg.fracture.precrack is not None:
            self.precracked_bonds = break_precrack_bonds(
                self.cloud, self.nbrs, cfg.fracture.precrack)
        self._mu0 = self.nbrs.mu.copy()
        self.labels = classify_subdomains(self.cloud, self.nbrs,
                                          cfg.mts.fine_boxes)
        self.material = Material(E=cfg.material.E, nu=cfg.material.nu,
                                 rho=cfg.material.rho, s0=cfg.fracture.s0)
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
        return self.cfg.fracture.s0 if self.cfg.fracture.enabled else None

    @property
    def final_time(self) -> float:
        return self.cfg.time.dt * self.cfg.time.n_steps

    @property
    def canonical_text(self) -> str:
        return serialize_config(self.cfg)

    def fresh_operator(self) -> PDOperator:
        nbrs = dataclasses.replace(self.nbrs, mu=self._mu0.copy())
        return PDOperator(self.cloud, nbrs, self.material,
                          self.loadings, self.cfg.law)

    def initial_state(self) -> FieldState:
        n, dim = self.cloud.n_points, self.cloud.dim
        u = np.zeros((n, dim))
        v = np.zeros((n, dim))
        for load in self.loadings:
            if load.kind == "velocity_constraint":
                v[load.indices] = load.value
        return FieldState(u=u, v=v, t=0.0)

    def mts_config(self, order=None, dt=None, K=None) -> MtsConfig:
        """The MTS configuration; an argument left None takes the config's
        value, and an explicit one is validated (K=0 raises)."""
        cfg = self.cfg
        return MtsConfig(order=cfg.mts.order if order is None else order,
                         dt=cfg.time.dt if dt is None else dt,
                         K=cfg.mts.K if K is None else K,
                         labels=self.labels).validate()


# ---------------------------------------------------------------------------
# orchestration

def run(cfg: SimulationConfig, out_dir=None):
    """Execute the configured scheme; write snapshots and the timing report.

    Returns (trajectory, timing, artifact_paths).
    """
    scenario = Scenario(cfg)
    out_dir = out_dir or cfg.output.directory
    os.makedirs(out_dir, exist_ok=True)
    op = scenario.fresh_operator()
    state0 = scenario.initial_state()
    cadence = cfg.output.cadence
    paths = []
    want_vtk = "vtk" in cfg.output.formats

    def snap_path(step):
        return os.path.join(out_dir, f"snapshot_{step:06d}.vtk")

    if want_vtk:
        pio.write_vtk(scenario.cloud, state0, damage_index(op.nbrs),
                      snap_path(0))
        paths.append(snap_path(0))

    def on_step(step, t, y):
        if want_vtk and (step == cfg.time.n_steps
                         or (cadence and step % cadence == 0)):
            pio.write_vtk(scenario.cloud, FieldState.from_packed(y, t),
                          damage_index(op.nbrs), snap_path(step))
            paths.append(snap_path(step))

    if cfg.mts.scheme == "upd" or cfg.time.n_steps == 0:
        from .mts import TimingReport

        timing = TimingReport()
        with timing.phase("upd"):
            traj = upd_run(op, state0, cfg.time.dt, cfg.time.n_steps,
                           tableau(cfg.mts.order), s0=scenario.s0,
                           record_every=cadence or None, on_step=on_step)
    else:
        traj, timing = mts_run(op, state0, scenario.mts_config(),
                               cfg.time.n_steps, s0=scenario.s0,
                               record_every=cadence or None, on_step=on_step)
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
    run MTS.  When the scenario has a fine region, each run also reports
    coarse- and fine-scope errors.  Returns the ConvergenceRow list.
    """
    dt_list = sorted(dt_list, reverse=True)
    problems = []
    dt_problem = halving_violation(dt_list)
    if dt_problem:
        problems.append(f"dt list: {dt_problem}")
    bad_k = [K for K in k_list if int(K) != K or K < 1]
    if bad_k:
        problems.append(f"K list: K must be an integer >= 1, got {bad_k[0]}")
    if problems:
        raise ConfigError(problems)
    scenario = Scenario(cfg)
    final_time = scenario.final_time
    if final_time <= 0:
        raise ConfigError(["time.n_steps: convergence sweeps need n_steps > 0"])
    steps = {}
    for dt in dt_list:
        n = round(final_time / dt)
        if abs(n * dt - final_time) > 1e-9 * final_time:
            raise ConfigError(
                [f"dt {dt!r} does not divide the final time {final_time!r}"])
        steps[dt] = n
    if reference_dt is None:
        reference_dt = min(dt_list) / 16.0

    tab = tableau(cfg.mts.order)
    reference = reference_solution(scenario, tab, reference_dt,
                                   cache_dir=cache_dir)
    axis = scenario.error_axis
    has_fine = len(scenario.labels.omega_hat_f) > 0
    scopes = ("all", "coarse", "fine") if has_fine else ("all",)

    errors = {}  # (K, scope) -> list aligned with dt_list
    for dt in dt_list:
        for K in k_list:
            op = scenario.fresh_operator()
            if K == 1:
                traj = upd_run(op, scenario.initial_state(), dt, steps[dt],
                               tab, s0=scenario.s0)
            else:
                traj, _ = mts_run(op, scenario.initial_state(),
                                  scenario.mts_config(dt=dt, K=K),
                                  steps[dt], s0=scenario.s0)
            final = traj.final
            if has_fine:
                e_all, e_c, e_f = scoped_errors(final, reference,
                                                scenario.labels, axis)
                vals = {"all": e_all, "coarse": e_c, "fine": e_f}
            else:
                vals = {"all": l2_error(final.u[:, axis],
                                        reference.u[:, axis])}
            for scope in scopes:
                errors.setdefault((K, scope), []).append(vals[scope])

    crs = {key: observed_order(errs, dt_list) for key, errs in errors.items()}

    rows = []
    for i, dt in enumerate(dt_list):
        for K in k_list:
            for scope in scopes:
                cr = crs[(K, scope)][i - 1] if i > 0 else None
                rows.append(ConvergenceRow(dt=dt, K=K, scope=scope,
                                           error=errors[(K, scope)][i],
                                           cr=cr))
    if out_csv:
        os.makedirs(os.path.dirname(out_csv) or ".", exist_ok=True)
        pio.write_csv(rows, out_csv)
    return rows


def compare(cfg: SimulationConfig, K=None, out_dir=None):
    """MTS at (dt, K) against UPD at dt/K over the same final time.

    Returns (mts_seconds, upd_seconds, ratio, l2_difference) and writes the
    two timing reports when out_dir is given.
    """
    import time as _time

    scenario = Scenario(cfg)
    K = cfg.mts.K if K is None else K
    dt = cfg.time.dt
    n_steps = cfg.time.n_steps
    tab = tableau(cfg.mts.order)

    op = scenario.fresh_operator()
    t0 = _time.perf_counter()
    mts_traj, mts_timing = mts_run(op, scenario.initial_state(),
                                   scenario.mts_config(K=K), n_steps,
                                   s0=scenario.s0)
    mts_seconds = _time.perf_counter() - t0

    op = scenario.fresh_operator()
    t0 = _time.perf_counter()
    upd_traj = upd_run(op, scenario.initial_state(), dt / K, n_steps * K,
                       tab, s0=scenario.s0)
    upd_seconds = _time.perf_counter() - t0

    axis = scenario.error_axis
    diff = l2_error(mts_traj.final.u[:, axis], upd_traj.final.u[:, axis])
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        pio.write_timing(mts_timing, os.path.join(out_dir, "timing_mts.txt"))
        with open(os.path.join(out_dir, "compare.txt"), "w") as fp:
            fp.write(f"mts_seconds,{mts_seconds:.6f}\n"
                     f"upd_seconds,{upd_seconds:.6f}\n"
                     f"ratio,{mts_seconds / upd_seconds:.6f}\n"
                     f"l2_difference,{diff:.6e}\n")
    return mts_seconds, upd_seconds, mts_seconds / upd_seconds, diff
