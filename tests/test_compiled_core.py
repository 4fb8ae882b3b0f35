"""Building and loading the compiled supernode loop.

``repro.numeric.compiled.build`` compiles ``_core.c`` into a cache keyed
by the hash of its source and loads it from there; each test points the
cache at its own directory through the function's argument.
"""

import os
import subprocess
import sys
from pathlib import Path

import cffi
import pytest

from repro.numeric import compiled

SRC = str(Path(compiled.__file__).resolve().parents[2])


def _modules(cache: Path) -> list[Path]:
    return sorted(cache.glob("_repro_core_*.so"))


def test_second_build_runs_no_compiler(tmp_path, monkeypatch):
    first = compiled.build(tmp_path)
    assert [Path(first.__file__)] == _modules(tmp_path)

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran for a cached source")

    monkeypatch.setattr(cffi.FFI, "compile", no_compiler)
    second = compiled.build(tmp_path)
    assert second.__name__ == first.__name__
    assert _modules(tmp_path) == [Path(first.__file__)]
    assert second.lib.repro_job_pending


def test_changed_source_builds_a_new_module(tmp_path):
    source = compiled.SOURCE_PATH.read_text()
    old = compiled.build(tmp_path, source)
    new = compiled.build(tmp_path, source + "\n/* changed */\n")
    assert old.__name__ != new.__name__
    assert _modules(tmp_path) == sorted([Path(old.__file__),
                                         Path(new.__file__)])


def test_concurrent_first_builds_both_succeed(tmp_path):
    """Two processes building into one empty cache at once: each
    compiles privately, one copy is published, both load it, and no
    scratch directory is left behind."""
    code = ("import sys; from repro.numeric.compiled import build; "
            "print(build(sys.argv[1]).__file__)")
    env = dict(os.environ, PYTHONPATH=SRC)
    procs = [subprocess.Popen([sys.executable, "-c", code, str(tmp_path)],
                              env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True)
             for _ in range(2)]
    outs = [proc.communicate(timeout=300) for proc in procs]
    assert [proc.returncode for proc in procs] == [0, 0], outs
    paths = {Path(out.strip().splitlines()[-1]) for out, _ in outs}
    assert paths == set(_modules(tmp_path))
    assert len(paths) == 1
    assert [p for p in tmp_path.iterdir() if p.is_dir()] == []


def test_missing_compiler_is_one_clear_error(tmp_path, monkeypatch):
    monkeypatch.setenv("CC", str(tmp_path / "no-such-cc"))
    with pytest.raises(ImportError, match="a C compiler and the Python "
                                          "headers are needed"):
        compiled.build(tmp_path / "cache")
    assert _modules(tmp_path / "cache") == []
