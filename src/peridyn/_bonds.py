"""Builds and loads the compiled bond loop of ``PDOperator.rates``.

``_bonds.c`` is compiled once with fixed flags into the package's
``__pycache__``, under a name keyed by the SHA-256 of the source, the
flags and the interpreter's extension suffix, so a later import loads it
without compiling.  A build writes a temporary file and renames it into
place, so processes that build at once each load a whole library.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shlex
import subprocess
import sysconfig
import tempfile
from pathlib import Path

SOURCE = Path(__file__).with_name("_bonds.c")
CACHE = Path(__file__).with_name("__pycache__")

# Fixed, whatever CFLAGS says: no contraction into FMA, so every product is
# rounded before it is added, and no fast-math, which would reorder sums.
FLAGS = ("-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")
_SUFFIX = sysconfig.get_config_var("EXT_SUFFIX") or ".so"

_P, _I64, _F = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
# peridyn_rates(law, dim, n_points, n_bonds, offsets, neighbors, table,
# body, constrained, v_prescribed, vol, rho, alpha, tol, collapsed, rows,
# n_rows, mu, y, out)
_ARGTYPES = (ctypes.c_int, ctypes.c_int, _I64, _I64, _P, _P, _P, _P, _P, _P,
             _F, _F, _F, _F, _P, _P, _I64, _P, _P, _P)


def compiler() -> list[str]:
    """The command that compiled the interpreter, as its words."""
    return shlex.split(sysconfig.get_config_var("CC") or "cc")


def library_path(source: Path = SOURCE, cache: Path = CACHE) -> Path:
    """Where the library built from ``source`` lives in ``cache``."""
    key = hashlib.sha256(b"\0".join(
        [Path(source).read_bytes(), " ".join(FLAGS).encode(),
         _SUFFIX.encode()])).hexdigest()
    return Path(cache) / f"_bonds.{key[:16]}{_SUFFIX}"


def _build(source: Path, path: Path, cc: list[str]):
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix=path.name + ".", dir=path.parent)
        os.close(fd)
    except OSError as err:
        raise ImportError(f"cannot write the compiled bond kernel into "
                          f"{path.parent}: {err}") from err
    command = [*cc, *FLAGS, "-o", tmp, str(source), "-lm"]
    try:
        try:
            done = subprocess.run(command, capture_output=True, text=True)
        except OSError as err:
            raise ImportError(f"cannot run the C compiler {shlex.join(cc)}"
                              f" to build {source.name}: {err}") from err
        if done.returncode:
            raise ImportError(f"{shlex.join(command)} failed:\n"
                              f"{done.stderr}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def load(source: Path = SOURCE, cache: Path = CACHE,
         cc: list[str] | None = None) -> ctypes.CDLL:
    """The library built from ``source``, compiled by ``cc`` (by default
    the interpreter's compiler) into ``cache`` unless it is there already.
    Raises ImportError when the compiler cannot be run or fails, or the
    cache cannot be written."""
    source = Path(source)
    path = library_path(source, cache)
    if not path.exists():
        _build(source, path, compiler() if cc is None else list(cc))
    lib = ctypes.CDLL(str(path))
    lib.peridyn_rates.argtypes = _ARGTYPES
    lib.peridyn_rates.restype = _I64
    return lib
