"""Per-layer tracing from outside the library.

The tracer replaces each traced function of peridyn with a timing wrapper,
in every module namespace that binds it (``peridyn.mts.update_damage`` and
``peridyn.integrator.update_damage`` are separate bindings of one function)
and, for methods, on the class.  Spans nest: a wrapper charges its duration
to the enclosing span's child time, so a layer's self time is its
inclusive time minus the time spent in traced callees.  Nothing under
``src/`` is modified; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

import peridyn
from peridyn import analysis, app, forces, geometry, integrator, mts
from peridyn import io as pio

_MODULES = (peridyn, geometry, forces, integrator, mts, analysis, app, pio)

# Per-layer metrics in report order: (name, unit, better).  Names ending in
# _s are inclusive seconds of the span of the same stem, _self_s subtract
# traced callees, _calls count entries; the rest are counters.
LAYER_METRICS = [
    ("geometry.build_grid_s", "s", "lower"),
    ("geometry.build_neighbor_list_s", "s", "lower"),
    ("geometry.classify_subdomains_s", "s", "lower"),
    ("geometry.bonds", "count", "lower"),
    ("app.scenario_s", "s", "lower"),
    ("forces.operator_init_s", "s", "lower"),
    ("forces.break_precrack_bonds_s", "s", "lower"),
    ("forces.rates.full_s", "s", "lower"),
    ("forces.rates.full_calls", "count", "lower"),
    ("forces.rates.coarse_s", "s", "lower"),
    ("forces.rates.coarse_calls", "count", "lower"),
    ("forces.rates.fine_s", "s", "lower"),
    ("forces.rates.fine_calls", "count", "lower"),
    ("forces.rates.bonds", "count", "lower"),
    ("forces.rates.ns_per_bond", "ns", "lower"),
    ("forces.update_damage.full_s", "s", "lower"),
    ("forces.update_damage.full_calls", "count", "lower"),
    ("forces.update_damage.fine_s", "s", "lower"),
    ("forces.update_damage.fine_calls", "count", "lower"),
    ("forces.update_damage.coarse_s", "s", "lower"),
    ("forces.update_damage.coarse_calls", "count", "lower"),
    ("forces.update_damage.bonds_checked", "count", "lower"),
    ("forces.update_damage.bonds_broken", "count", "higher"),
    ("forces.damage_index_s", "s", "lower"),
    ("io.write_vtk_s", "s", "lower"),
    ("io.write_vtk_bytes", "bytes", "lower"),
    ("integrator.rk_step_s", "s", "lower"),
    ("integrator.rk_step_calls", "count", "lower"),
    ("integrator.rk_step_self_s", "s", "lower"),
    ("integrator.combine_s", "s", "lower"),
    ("integrator.combine_calls", "count", "lower"),
    ("integrator.upd_run_self_s", "s", "lower"),
    ("mts.plan_s", "s", "lower"),
    ("mts.coarse_advance_s", "s", "lower"),
    ("mts.coarse_advance_self_s", "s", "lower"),
    ("mts.fine_advance_s", "s", "lower"),
    ("mts.fine_advance_self_s", "s", "lower"),
    ("mts.build_interpolant_s", "s", "lower"),
    ("mts.interpolant_evaluate_s", "s", "lower"),
    ("mts.interpolant_evaluate_calls", "count", "lower"),
    ("mts.history_push_s", "s", "lower"),
    ("mts.run_self_s", "s", "lower"),
    ("mts.phase.startup_s", "s", "lower"),
    ("mts.phase.coarse_s", "s", "lower"),
    ("mts.phase.fine_s", "s", "lower"),
    ("mts.phase.interpolant_s", "s", "lower"),
    ("mts.phase.damage_s", "s", "lower"),
    ("mts.phase.history_s", "s", "lower"),
    ("analysis.reference_solution_s", "s", "lower"),
    ("analysis.scoped_errors_s", "s", "lower"),
    ("analysis.l2_error_s", "s", "lower"),
    ("io.save_reference_s", "s", "lower"),
    ("io.load_reference_s", "s", "lower"),
    ("io.write_csv_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]


def _arg(args, kwargs, pos, name, default=None):
    return args[pos] if len(args) > pos else kwargs.get(name, default)


class Tracer:
    """Span and counter recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, child
        self.counts = defaultdict(int)
        self.phases = defaultdict(float)
        self.overhead_s = 0.0  # time spent in wrappers and hooks, not in fn
        self._stack = []
        self._undo = []
        self._view_kind = {}  # id(view) -> "coarse" | "fine"
        self._mask_kind = {}  # id(bond mask) -> "coarse" | "fine"
        self._plans = []      # keeps registered views and masks alive

    # -- span machinery ----------------------------------------------------

    def _wrap(self, fn, label, before=None, after=None):
        stack, spans = self._stack, self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = time.perf_counter()
            name = label(args, kwargs) if callable(label) else label
            if before:
                before(args, kwargs)
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                child = stack.pop()
                span = spans[name]
                span[0] += 1
                span[1] += t1 - t0
                span[2] += child
            if after:
                after(result, args, kwargs)
            cost = (t0 - t_in) + (time.perf_counter() - t1)
            self.overhead_s += cost
            if stack:  # the tracer's own cost is not the caller's self time
                stack[-1] += t1 - t0 + cost
            return result
        return wrapper

    def _patch_function(self, fn, label, before=None, after=None):
        wrapper = self._wrap(fn, label, before, after)
        bound = 0
        for module in _MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    bound += 1
        if not bound:
            raise RuntimeError(f"no module binds {fn.__qualname__}")

    def _patch_method(self, cls, attr, label, before=None, after=None):
        fn = vars(cls)[attr]
        self._undo.append((cls, attr, fn))
        setattr(cls, attr, self._wrap(fn, label, before, after))

    def install(self):
        """Wrap every traced function and method; uninstall restores them."""
        P = self._patch_function
        M = self._patch_method
        P(geometry.build_grid, "geometry.build_grid")
        P(geometry.build_neighbor_list, "geometry.build_neighbor_list",
          after=self._count_bonds)
        P(geometry.classify_subdomains, "geometry.classify_subdomains")
        M(app.Scenario, "__init__", "app.scenario")
        M(forces.PDOperator, "__init__", "forces.operator_init")
        P(forces.break_precrack_bonds, "forces.break_precrack_bonds")
        M(forces.PDOperator, "rates", self._rates_label,
          before=self._rates_bonds)
        P(forces.update_damage, self._damage_label,
          before=self._damage_checked, after=self._damage_broken)
        P(forces.damage_index, "forces.damage_index")
        P(pio.write_vtk, "io.write_vtk", after=self._vtk_bytes)
        P(integrator.rk_step, "integrator.rk_step")
        P(integrator.combine, "integrator.combine")
        P(integrator.upd_run, "integrator.upd_run")
        M(mts.MtsPlan, "__init__", "mts.plan", after=self._register_plan)
        P(mts.coarse_advance, "mts.coarse_advance")
        P(mts.fine_advance, "mts.fine_advance")
        P(mts.build_interpolant, "mts.build_interpolant")
        M(mts.Interpolant, "evaluate", "mts.interpolant_evaluate")
        M(mts.OperatorHistory, "push", "mts.history_push")
        P(mts.mts_run, "mts.run", after=self._add_phases)
        P(analysis.reference_solution, "analysis.reference_solution")
        P(analysis.scoped_errors, "analysis.scoped_errors")
        P(analysis.l2_error, "analysis.l2_error")
        P(pio.save_reference, "io.save_reference")
        P(pio.load_reference, "io.load_reference")
        P(pio.write_csv, "io.write_csv")

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- labels and counters -----------------------------------------------

    def _count_bonds(self, nbrs, _args, _kwargs):
        self.counts["geometry.bonds"] = nbrs.n_bonds

    def _register_plan(self, _result, args, _kwargs):
        plan = args[0]
        self._plans.append(plan)
        for kind in ("coarse", "fine"):
            view = getattr(plan, f"{kind}_view")
            mask = getattr(plan, f"{kind}_bond_mask")
            if view is not None:
                self._view_kind[id(view)] = kind
            if mask is not None:
                self._mask_kind[id(mask)] = kind

    def _view(self, args, kwargs):
        view = _arg(args, kwargs, 3, "view")
        return args[0].full_view if view is None else view

    def _rates_label(self, args, kwargs):
        view = self._view(args, kwargs)
        if view is args[0].full_view:
            return "forces.rates.full"
        return "forces.rates." + self._view_kind.get(id(view), "other")

    def _rates_bonds(self, args, kwargs):
        self.counts["forces.rates.bonds"] += len(self._view(args, kwargs).bond_sel)

    def _damage_label(self, args, kwargs):
        mask = _arg(args, kwargs, 3, "bond_mask")
        if mask is None:
            return "forces.update_damage.full"
        return "forces.update_damage." + self._mask_kind.get(id(mask), "other")

    def _damage_checked(self, args, kwargs):
        alive = args[0].mu > 0.0
        mask = _arg(args, kwargs, 3, "bond_mask")
        if mask is not None:
            alive &= mask
        self.counts["forces.update_damage.bonds_checked"] += \
            int(alive.sum())

    def _damage_broken(self, newly, _args, _kwargs):
        # update_damage returns undirected bonds; both directions break.
        self.counts["forces.update_damage.bonds_broken"] += 2 * newly

    def _vtk_bytes(self, _result, args, kwargs):
        self.counts["io.write_vtk_bytes"] += \
            os.path.getsize(_arg(args, kwargs, 3, "path"))

    def _add_phases(self, result, _args, _kwargs):
        for name, _calls, secs in result[1].rows():
            self.phases[name] += secs

    # -- report ------------------------------------------------------------

    def value(self, name: str) -> float:
        """The per-layer metric ``name``."""
        if name == "trace.overhead_s":
            return self.overhead_s
        if name == "forces.rates.ns_per_bond":
            secs = sum(self.spans[f"forces.rates.{k}"][1]
                       for k in ("full", "coarse", "fine"))
            bonds = self.counts["forces.rates.bonds"]
            return 1e9 * secs / bonds if bonds else 0.0
        if name.startswith("mts.phase."):
            return self.phases[name[len("mts.phase."):-len("_s")]]
        if name.endswith("_self_s"):
            calls, incl, child = self.spans[name[:-len("_self_s")]]
            return incl - child
        if name.endswith("_calls"):
            return self.spans[name[:-len("_calls")]][0]
        if name.endswith("_s"):
            return self.spans[name[:-len("_s")]][1]
        return self.counts[name]

    def unexpected_spans(self) -> list:
        """Spans whose view or mask was not registered by any MtsPlan."""
        return sorted(name for name in self.spans if name.endswith(".other"))
