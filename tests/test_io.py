import numpy as np
import pytest

from peridyn import io as pio
from peridyn.forces import FieldState
from peridyn.io import _rows, write_vtk
from tests.test_forces import make_cloud

# Values whose text is easy to get wrong: signed zero, the smallest
# subnormal, the largest magnitudes, integers and short decimals.
SPECIAL = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, -3.0,
                    2.0 ** 53, 1e16, 0.1, 1.7976931348623157e308])


def per_float_vtk(cloud, state, damage, path):
    """The writer as it was: one f-string per float."""
    def _fmt(x):
        return f"{x:.17g}"

    n = cloud.n_points
    pos3 = np.zeros((n, 3))
    pos3[:, :cloud.dim] = cloud.positions

    def pad(a):
        out = np.zeros((n, 3))
        out[:, :cloud.dim] = a
        return out

    lines = [
        "# vtk DataFile Version 3.0",
        "peridyn snapshot",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {n} double",
    ]
    lines += [" ".join(_fmt(v) for v in row) for row in pos3]
    lines.append(f"CELLS {n} {2 * n}")
    lines += [f"1 {i}" for i in range(n)]
    lines.append(f"CELL_TYPES {n}")
    lines += ["1"] * n
    lines.append(f"POINT_DATA {n}")
    for name, arr in (("displacement", pad(state.u)),
                      ("velocity", pad(state.v))):
        lines.append(f"VECTORS {name} double")
        lines += [" ".join(_fmt(v) for v in row) for row in arr]
    lines.append("SCALARS damage double 1")
    lines.append("LOOKUP_TABLE default")
    lines += [_fmt(v) for v in damage]
    with open(path, "w") as fp:
        fp.write("\n".join(lines) + "\n")


def random_field(rng, n, dim):
    """Normal values over many decades with the special values mixed in."""
    a = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-300, 300,
                                                         size=(n, dim))
    flat = a.reshape(-1)
    k = min(flat.size, len(SPECIAL))
    flat[rng.choice(flat.size, size=k, replace=False)] = SPECIAL[:k]
    return a


@pytest.mark.parametrize("dim, n, seed", [(2, 1, 1), (2, 257, 2),
                                          (3, 64, 3), (3, 1000, 4)])
def test_write_vtk_matches_per_float_writer(tmp_path, dim, n, seed):
    rng = np.random.default_rng(seed)
    cloud = make_cloud(rng.uniform(-1.0, 1.0, size=(n, dim)))
    integer_valued = np.rint(1e3 * rng.normal(size=(n, dim)))
    state = FieldState(u=random_field(rng, n, dim), v=integer_valued, t=0.25)
    damage = random_field(rng, n, 1)[:, 0]
    write_vtk(cloud, state, damage, tmp_path / "new.vtk")
    per_float_vtk(cloud, state, damage, tmp_path / "old.vtk")
    new = (tmp_path / "new.vtk").read_bytes()
    assert new == (tmp_path / "old.vtk").read_bytes()
    if n >= len(SPECIAL):
        words = set(new.split())
        assert {b"-0", b"4.9406564584124654e-324", b"-1e+308"} <= words


def test_static_text_cached_per_cloud(tmp_path, monkeypatch):
    # two snapshots of one cloud, then one of another cloud of the same size
    rng = np.random.default_rng(5)
    first = make_cloud(rng.uniform(-1.0, 1.0, size=(40, 2)))
    second = make_cloud(rng.uniform(-1.0, 1.0, size=(40, 2)))
    formatted = []

    def rows(a):
        formatted.append(len(a))
        return _rows(a)

    monkeypatch.setattr(pio, "_rows", rows)
    for k, cloud in enumerate((first, first, second)):
        state = FieldState(u=random_field(rng, 40, 2),
                           v=random_field(rng, 40, 2), t=0.5 * k)
        damage = rng.uniform(size=40)
        formatted.clear()
        write_vtk(cloud, state, damage, tmp_path / f"new{k}.vtk")
        # positions, u, v and damage; the second snapshot reuses positions
        assert len(formatted) == (3 if k == 1 else 4)
        per_float_vtk(cloud, state, damage, tmp_path / f"old{k}.vtk")
        assert (tmp_path / f"new{k}.vtk").read_bytes() == \
            (tmp_path / f"old{k}.vtk").read_bytes()
