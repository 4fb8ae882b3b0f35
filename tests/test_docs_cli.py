"""Docs name only CLI surface and library names that exist.

Every ``repro <cmd> ... --flag`` / ``python -m repro[.cli] <cmd> ...``
invocation in the user-facing docs and the CI workflow must name a
subcommand and flags that :func:`repro.cli.build_parser` defines.
Markdown is checked inside code only (fenced blocks and inline spans:
"a repro" is also a noun); shell lines continued with ``\\`` are joined.
Every backticked dotted ``repro.…`` name in the docs must import, also
when it is written as a call (``repro.….f(x)``).
"""

import importlib
import re
from pathlib import Path

import pytest

from repro.cli import build_parser

ROOT = Path(__file__).resolve().parents[1]
FILES = [ROOT / "README.md", *sorted((ROOT / "docs").glob("*.md")),
         ROOT / ".claude/skills/verify/SKILL.md",
         ROOT / ".github/workflows/ci.yml"]
INVOCATION = re.compile(r"(?:python3? -m repro(?:\.cli)?"
                        r"|(?<![\w/.-])(?<!from )repro) +([a-z][\w-]*)(.*)")
NAME_FILES = [ROOT / "README.md", ROOT / "DESIGN.md", ROOT / "PAPER.md",
              *sorted((ROOT / "docs").glob("*.md"))]
DOC_NAME = re.compile(r"`(repro(?:\.\w+)+)(?:\([^`]*\))?`")
FENCE = re.compile(r"^```[^\n]*\n(.*?)^```", re.S | re.M)


def code_lines(path):
    """The file's code, one (continuation-joined) shell line per entry."""
    text = re.sub(r"\\\n\s*", " ", path.read_text())
    if path.suffix != ".md":
        return text.splitlines()
    return [line for block in FENCE.findall(text)
            for line in block.splitlines()] \
        + [span.replace("\n", " ")
           for span in re.findall(r"`([^`]+)`", FENCE.sub("", text))]


def problems(paths):
    parser = build_parser()
    commands = parser._subparsers._group_actions[0].choices
    found = []
    for path in paths:
        for m in (m for line in code_lines(path)
                  for m in INVOCATION.finditer(line)):
            command = m.group(1)
            if command not in commands:
                found.append(f"{path.name}: no command `repro {command}`")
                continue
            known = set(commands[command]._option_string_actions) \
                | set(parser._option_string_actions)
            rest = re.split(r"\||;|&&|\s#", m.group(2))[0]
            found += [f"{path.name}: `repro {command}` has no {flag}"
                      for flag in re.findall(r"(?<!\S)(--[\w-]+)", rest)
                      if flag not in known]
    return found


def test_docs_invocations_match_the_parser():
    found = problems(FILES)
    assert not found, "\n".join(found)


def resolve(name):
    """Import the longest module prefix of the dotted ``name``, then
    look up the rest as attributes."""
    parts = name.split(".")
    for i in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ModuleNotFoundError:
            continue
        for attr in parts[i:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(name)


def test_doc_names_resolve():
    missing = []
    for path in NAME_FILES:
        for name in sorted(set(DOC_NAME.findall(path.read_text()))):
            try:
                resolve(name)
            except (ImportError, AttributeError):
                missing.append(f"{path.name}: `{name}`")
    assert not missing, "\n".join(missing)


@pytest.mark.parametrize("name", ["repro.numeric.no_such_module",
                                  "repro.numeric.engine.NoSuchName",
                                  "repro.numeric.engine.no_such_call(tree)"])
def test_resolve_rejects_a_missing_name(name):
    (found,) = DOC_NAME.findall(f"see `{name}` here")
    with pytest.raises((ImportError, AttributeError)):
        resolve(found)


@pytest.mark.parametrize("text, n_problems", [
    ("run `repro solve suite:x --workers 2 | tail` here", 0),
    ("a repro is shrunk; `repro solve suite:x --no-such-flag d`", 1),
    ("```\npython -m repro no-such-cmd suite:x \\\n    --budget 1\n```", 1),
    ("```bash\nPYTHONPATH=src python -m repro.cli serve \\\n"
     "    --no-such-flag 4 --workers 2\n```", 1),
])
def test_checker_flags_what_it_should(tmp_path, text, n_problems):
    doc = tmp_path / "doc.md"
    doc.write_text(text)
    assert len(problems([doc])) == n_problems
