"""Run pytest or the ``repro`` CLI on an AddressSanitizer + UBSan build of
the compiled core (``repro/numeric/_core.c``).

The core is built with the flags below into its own cache directory
(``<cache>/sanitized``; the flags are part of the module's cache key
too), bound in place of the regular build before anything calls it, and
the command runs in this process.  Python itself is not instrumented,
so the sanitizer runtimes must be preloaded; leak detection is off
because the interpreter's own allocations would drown it.  A finding
aborts the process (``-fno-sanitize-recover=undefined`` makes UBSan stop
at its first report, as ASan does), so a clean run is exit status 0.

    LD_PRELOAD="$(gcc -print-file-name=libasan.so) \\
        $(gcc -print-file-name=libubsan.so)" \\
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src \\
        python scripts/sanitized.py pytest -q tests/test_ordering_oracle.py
    ... python scripts/sanitized.py repro verify --seed 1 --cases 800

Worker processes the command forks (``repro verify --jobs``) inherit the
sanitized build; subprocesses it starts afresh load the regular one.
"""

from __future__ import annotations

import os
import sys

SANITIZE_ARGS = ["-O1", "-g", "-fno-omit-frame-pointer",
                 "-fsanitize=address,undefined",
                 "-fno-sanitize-recover=undefined", "-ffp-contract=off"]


def main(argv: list[str]) -> int:
    if len(argv) < 1 or argv[0] not in ("pytest", "repro"):
        print(__doc__, file=sys.stderr)
        return 2
    if "libasan" not in os.environ.get("LD_PRELOAD", ""):
        print("sanitized.py: the sanitizer runtimes are not preloaded\n"
              + __doc__, file=sys.stderr)
        return 2
    from repro.numeric import compiled

    core = compiled.build(compiled.default_cache_dir() / "sanitized",
                          compile_args=SANITIZE_ARGS)
    compiled._bind(core)
    print(f"sanitized.py: running on {core.__file__}", file=sys.stderr)
    if argv[0] == "pytest":
        import pytest

        # Capture sys.stdout/err only: a report the runtime writes to
        # file descriptor 2 as it aborts must reach the terminal.
        return int(pytest.main(["--capture=sys", *argv[1:]]))
    from repro.cli import main as repro_main

    return repro_main(argv[1:])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
