"""Writers: legacy ASCII VTK snapshots, convergence CSV, timing reports,
and the reference-solution cache (numpy .npy arrays).

All output is deterministic: no wall-clock time stamps appear in any data
section, and floats are printed with 17 significant digits (VTK) so parsed
values round-trip bit-exactly.
"""

from __future__ import annotations

import hashlib
import os

import numpy as np

from .forces import FieldState
from .geometry import PointCloud

# Part of every reference cache key.  Bump it whenever a change alters
# trajectory bits (a new summation order, say), so that references cached
# by the old solver are recomputed instead of served stale, and whenever
# the canonical text of a preset changes.
REFERENCE_VERSION = 5


def _rows(a: np.ndarray) -> str:
    """The rows of a 1-D or 2-D float array as lines of space-separated
    "%.17g" values, formatted by one template string."""
    a = np.asarray(a, dtype=float)
    line = " ".join(["%.17g"] * (a.shape[1] if a.ndim == 2 else 1))
    return "\n".join([line] * len(a)) % tuple(a.ravel().tolist())


def _pad3(cloud: PointCloud, a: np.ndarray) -> np.ndarray:
    """A (N, dim) array padded with zero columns to (N, 3)."""
    out = np.zeros((cloud.n_points, 3))
    out[:, :cloud.dim] = a
    return out


def _vtk_head(cloud: PointCloud) -> str:
    """The header, POINTS, CELLS and CELL_TYPES text of a cloud's snapshots,
    up to and including the POINT_DATA line; formatted once per cloud and
    kept on it."""
    if cloud.vtk_head is None:
        n = cloud.n_points
        parts = [
            "# vtk DataFile Version 3.0",
            "peridyn snapshot",
            "ASCII",
            "DATASET UNSTRUCTURED_GRID",
            f"POINTS {n} double",
            _rows(_pad3(cloud, cloud.positions)),
            f"CELLS {n} {2 * n}",
            "\n".join([f"1 {i}" for i in range(n)]),
            f"CELL_TYPES {n}",
            "\n".join(["1"] * n),
            f"POINT_DATA {n}",
        ]
        # an empty cloud has no row lines at all
        cloud.vtk_head = "\n".join(p for p in parts if p)
    return cloud.vtk_head


def write_vtk(cloud: PointCloud, state: FieldState, damage: np.ndarray,
              path):
    """Legacy ASCII VTK unstructured grid of vertices with point data
    arrays 'displacement', 'velocity' (padded to 3 components) and the
    scalar 'damage'."""
    parts = [_vtk_head(cloud)]
    for name, arr in (("displacement", state.u), ("velocity", state.v)):
        parts += [f"VECTORS {name} double", _rows(_pad3(cloud, arr))]
    parts += ["SCALARS damage double 1", "LOOKUP_TABLE default",
              _rows(damage)]
    with open(path, "w") as fp:
        fp.write("\n".join(p for p in parts if p) + "\n")


def write_csv(rows, path):
    """Convergence rows as CSV: header dt,K,scope,error,CR; scientific
    notation with 6 significant digits; CR empty on first rows."""
    lines = ["dt,K,scope,error,CR"]
    for row in rows:
        cr = "" if row.cr is None else f"{row.cr:.5e}"
        lines.append(f"{row.dt:.5e},{row.K},{row.scope},{row.error:.5e},{cr}")
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")


def write_timing(timing, path):
    """Flat text record of the phase timings: phase,calls,seconds."""
    lines = ["phase,calls,seconds"]
    for name, calls, secs in timing.rows():
        lines.append(f"{name},{calls},{secs:.6f}")
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")


def reference_cache_key(canonical_text: str, order: int, dt_ref: float) -> str:
    """Hash of the scenario, the order, the reference step and
    REFERENCE_VERSION; a step keys as the Python float of its value."""
    payload = (f"{canonical_text}\norder={order}\n"
               f"dt_ref={float(dt_ref).hex()}"
               f"\nversion={REFERENCE_VERSION}")
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def reference_cache_path(cache_dir, key: str) -> str:
    return os.path.join(cache_dir, f"ref_{key}.npy")


def save_reference(path, state: FieldState):
    """Two .npy arrays in one file: the time, then u and v stacked."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "wb") as fp:
        np.save(fp, np.float64(state.t))
        np.save(fp, np.stack([state.u, state.v]))


class ReferenceCacheError(OSError):
    """A reference cache file that is truncated or not a cache file."""


def load_reference(path) -> FieldState | None:
    """Read a cached reference; None when the file does not exist.

    Raises ReferenceCacheError, naming the file, unless it holds exactly a
    0-d float64 time and a (2, N, dim) float64 array of u and v.  np.load
    checks each array's magic, header and length, and refuses pickles.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path, "rb") as fp:
            t, uv = np.load(fp), np.load(fp)
            if fp.read(1) or not all(isinstance(a, np.ndarray) and
                                     a.dtype == np.float64 for a in (t, uv)) \
                    or t.ndim != 0 or uv.ndim != 3 or len(uv) != 2:
                raise ValueError("expected a float64 time, then u and v as "
                                 "one (2, N, dim) float64 array, and no more")
    except (ValueError, EOFError) as err:
        raise ReferenceCacheError(
            f"{path}: corrupt reference cache file ({err})") from None
    return FieldState(u=uv[0], v=uv[1], t=float(t))
