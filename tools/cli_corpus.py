"""Digest of every CLI command's stdout over the CLI tests' problem documents.

Runs ``lapdual.cli.main`` in-process for each command, in JSON and in CSV,
over every problem document that ``tests/test_cli.py`` defines, plus
``bench-fig1`` on both variants with few samples.  It prints one line per
case: the sha256 of stdout, the exit code and the case name.  Two runs
whose lines are identical printed the same bytes on every case, so a
change that must move no bit is checked by diffing the lines at the parent
and at the change:

    PYTHONPATH=src python tools/cli_corpus.py > head.txt

The documents always come from this checkout's tests; PYTHONPATH chooses
the lapdual that runs them, whose path is written to stderr.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

import lapdual  # noqa: E402
from lapdual import cli  # noqa: E402

import test_cli  # noqa: E402

COMMANDS = (
    ["integrate"],
    ["sweep"],
    ["laplace-check"],
    ["mvt"],
    ["find-lambda", "--target", "1.0"],
)
FIG1 = ["--samples", "2000", "--nodes", "16", "--rel-tol", "1e-6"]


def _is_problem(doc) -> bool:
    return isinstance(doc, dict) and ("y" in doc or "y_grid" in doc) and ("g" in doc or "simplex" in doc)


def problem_documents() -> dict:
    """name -> document: the module-level documents of test_cli, then those
    inside its dicts of cases (a case may be a tuple that starts with its
    document), each content once, under its first name."""
    names = sorted(vars(test_cli).items())
    found = [(name, value) for name, value in names if _is_problem(value)]
    for name, value in names:
        if isinstance(value, dict) and not _is_problem(value):
            found += [(f"{name}[{key}]", case[0] if isinstance(case, tuple) and case else case)
                      for key, case in sorted(value.items())]
    docs, seen = {}, set()
    for name, doc in found:
        text = json.dumps(doc, sort_keys=True) if _is_problem(doc) else None
        if text is not None and text not in seen:
            seen.add(text)
            docs[name] = doc
    return docs


def run(argv) -> tuple[str, int]:
    """sha256 of what ``cli.main(argv)`` writes to stdout, and its exit code;
    an exception that escapes main counts as exit code 1."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            code = 1
    return hashlib.sha256(out.getvalue().encode()).hexdigest(), code


def cases(tmp: Path):
    """(name, argv) of every case."""
    for i, (name, doc) in enumerate(problem_documents().items()):
        path = tmp / f"{i}.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        for command in COMMANDS:
            for output in ("json", "csv"):
                yield f"{command[0]} {output} {name}", [*command, "--input", str(path), "--output", output]
    for variant in ("quartic", "sextic"):
        for output in ("json", "csv"):
            yield f"bench-fig1 {output} {variant}", ["bench-fig1", "--variant", variant, *FIG1, "--output", output]


def main() -> int:
    sys.stderr.write(f"lapdual from {Path(lapdual.__file__).parent}\n")
    with tempfile.TemporaryDirectory() as tmp:
        for name, argv in cases(Path(tmp)):
            digest, code = run(argv)
            print(digest, code, name, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
