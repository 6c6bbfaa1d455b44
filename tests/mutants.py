"""Run the one-line mutants of ``tests/mutants.json`` against the tests named for each.

A mutant replaces one piece of one line of a program file (``old``, which
must occur exactly once in ``file``) with ``new``.  The runner copies the
repository's ``pyproject.toml``, ``src``, ``tests`` and ``perfbench`` into a
temporary directory, where pyproject's ``pythonpath = ["src"]`` puts the
copy's package first on the path.  It runs every mutant's tests once on the
unmutated copy, which must pass; then, for each mutant, it writes the mutated
file, runs that mutant's tests and restores the file.  A mutant whose tests
all pass survived, and the runner exits 1.

    python tests/mutants.py             # every mutant
    python tests/mutants.py ID [ID ...] # the named ones
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("pyproject.toml", "src", "tests", "perfbench")


def load(ids=()):
    mutants = json.loads((ROOT / "tests" / "mutants.json").read_text())
    unknown = set(ids) - {m["id"] for m in mutants}
    if unknown:
        raise SystemExit(f"error: no mutant {', '.join(sorted(unknown))}")
    return [m for m in mutants if not ids or m["id"] in ids]


def mutated(text, mutant):
    """``text`` with the mutant's one-line change; a SystemExit unless ``old`` is one
    line's text and occurs exactly once."""
    old = mutant["old"]
    if "\n" in old or "\n" in mutant["new"] or text.count(old) != 1:
        raise SystemExit(f"error: mutant {mutant['id']}: its old text must be on one line and occur once")
    return text.replace(old, mutant["new"])


def run_tests(copy, tests):
    """pytest on ``tests`` in the copy: (passed, seconds)."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(copy / "src"))
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
        cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=600,
    )
    return done.returncode == 0, time.perf_counter() - start


def main(ids):
    mutants = load(ids)
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
            else:
                shutil.copy2(source, copy / name)
        originals = {m["file"]: (copy / m["file"]).read_text() for m in mutants}
        for m in mutants:
            mutated(originals[m["file"]], m)  # every mutant applies before any runs
        tests = sorted({t for m in mutants for t in m["tests"]})
        passed, seconds = run_tests(copy, tests)
        if not passed:
            print(f"error: the mutants' tests fail on the unmutated copy ({seconds:.1f} s)")
            return 1
        print(f"unmutated: {len(tests)} tests pass ({seconds:.1f} s)")
        survivors = []
        for m in mutants:
            path = copy / m["file"]
            path.write_text(mutated(originals[m["file"]], m))
            try:
                passed, seconds = run_tests(copy, m["tests"])
            finally:
                path.write_text(originals[m["file"]])
            print(f"{'SURVIVED' if passed else 'killed':8} {m['id']} ({seconds:.1f} s)")
            if passed:
                survivors.append(m["id"])
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
