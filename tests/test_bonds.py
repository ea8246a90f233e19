"""The loader of the compiled bond loop: one build per source, flags and
interpreter, safe under concurrent builds, and an ImportError that names
what it could not use."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from peridyn import _bonds

# A child process that loads the library from the cache directory argv[1]
# and calls it on no rows: a whole library returns -1 and writes -1.
LOAD_AND_CALL = """
import ctypes, sys
from peridyn import _bonds
lib = _bonds.load(cache=sys.argv[1])
collapsed = ctypes.c_int64(5)
bad = lib.peridyn_rates(0, 2, 0, 0, None, None, None, None, None, None,
                        1.0, 1.0, 1.0, 1e-12, ctypes.addressof(collapsed),
                        None, 0, None, None, None)
print(bad, collapsed.value)
"""


def test_a_second_load_does_not_compile(tmp_path):
    _bonds.load(cache=tmp_path)
    path = _bonds.library_path(cache=tmp_path)
    built = path.stat()
    # the library is there: no compiler is run, not even a missing one
    lib = _bonds.load(cache=tmp_path, cc=["no-such-compiler"])
    assert lib.peridyn_rates.restype is not None
    again = path.stat()
    assert (again.st_ino, again.st_mtime_ns) == (built.st_ino,
                                                 built.st_mtime_ns)
    assert list(tmp_path.iterdir()) == [path]


def test_the_key_follows_the_source_bytes(tmp_path):
    source = tmp_path / "_bonds.c"
    text = _bonds.SOURCE.read_bytes()
    source.write_bytes(text)
    cache = tmp_path / "cache"
    same = _bonds.library_path(source, cache)
    assert same == _bonds.library_path(_bonds.SOURCE, cache)
    source.write_bytes(text + b"\n/* one more line */\n")
    changed = _bonds.library_path(source, cache)
    assert changed != same and changed.parent == same.parent
    assert changed.name.endswith(same.name[len("_bonds.") + 16:])
    _bonds.load(source, cache)
    assert [p.name for p in cache.iterdir()] == [changed.name]


def test_concurrent_builds_each_load_a_whole_library(tmp_path):
    src = str(Path(_bonds.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    children = [subprocess.Popen([sys.executable, "-c", LOAD_AND_CALL,
                                  str(tmp_path)], env=env,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.PIPE, text=True)
                for _ in range(2)]
    for child in children:
        out, err = child.communicate(timeout=300)
        assert child.returncode == 0, err
        assert out.split() == ["-1", "-1"]
    # one library and no temporary file left behind
    assert [p.name for p in tmp_path.iterdir()] == \
        [_bonds.library_path(cache=tmp_path).name]


def test_a_missing_compiler_is_named(tmp_path):
    with pytest.raises(ImportError, match="no-such-compiler"):
        _bonds.load(cache=tmp_path, cc=["no-such-compiler", "-q"])
    assert not any(tmp_path.iterdir())


def test_an_unwritable_cache_is_named(tmp_path):
    blocked = tmp_path / "a-file"
    blocked.write_text("")
    with pytest.raises(ImportError, match=str(blocked / "cache")):
        _bonds.load(cache=blocked / "cache")


def test_a_failed_build_shows_the_command(tmp_path):
    source = tmp_path / "broken.c"
    source.write_text("this is not C\n")
    with pytest.raises(ImportError, match="-ffp-contract=off"):
        _bonds.load(source, tmp_path / "cache")
    assert not any((tmp_path / "cache").iterdir())
