"""Golden command-line output on the bundled catalog.

Every case runs one CLI command in a scratch directory on a catalog file,
on its float form (``scalar numeric 1e-09``, which takes the floating-point
graph path), or on a small unpruned file (for the error paths), and
compares its exit status, stdout, stderr and any written file with
``golden_cli.json``, line by line.  Only the floating-point ``trial`` and
``max_deviation`` values of ``evaluate`` are compared to within 1e-12;
everything else, witnesses and node counts included, must match exactly.

Regenerate the golden file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

from __future__ import annotations

import io
import json
import os
import sys
from contextlib import redirect_stderr
from pathlib import Path

import pytest

from kscertify.catalog import catalog_entries, load_rayset, load_text
from kscertify.cli import run_command

GOLDEN = Path(__file__).with_name("golden_cli.json")
FLOAT_KEYS = ("trial", "max_deviation")
FLOAT_TOLERANCE = 1e-12

LOOSE = """\
ksset 1
name loose
dim 3
scalar int
ray 1 0 0
ray 0 1 0
ray 0 0 1
ray 1 1 1
"""


def _numeric_text(entry_id: str) -> str:
    """A catalog set with every coordinate written as its float ``repr``."""
    rayset = load_rayset(entry_id)
    lines = ["ksset 1", f"name {rayset.name}", f"dim {rayset.dimension}", "scalar numeric 1e-09"]
    for ray in rayset.rays:
        lines.append("ray " + " ".join(repr(x) for x in ray.to_floats()))
    return "\n".join(lines) + "\n"


def _inputs() -> dict[str, str]:
    texts = {}
    for entry in catalog_entries():
        texts[f"{entry.id}.ks"] = load_text(entry.id)
        texts[f"{entry.id}-numeric.ks"] = _numeric_text(entry.id)
    texts["loose.ks"] = LOOSE
    return texts


def _cases() -> dict[str, list[str]]:
    cases = {}
    for entry in catalog_entries():
        f = f"{entry.id}.ks"
        cases[f"{entry.id} verify original"] = ["verify", f, "--mode", "original"]
        cases[f"{entry.id} verify extended"] = ["verify", f, "--mode", "extended"]
        cases[f"{entry.id} info"] = ["info", f]
        cases[f"{entry.id} inequality"] = ["inequality", f]
        cases[f"{entry.id} inequality --out"] = ["inequality", f, "--out", f"{entry.id}.ineq"]
        cases[f"{entry.id} prune"] = ["prune", f]
        cases[f"{entry.id} evaluate random"] = [
            "evaluate", f, "--state", "random", "--trials", "3", "--seed", "4",
        ]
        f = f"{entry.id}-numeric.ks"
        cases[f"{entry.id} numeric verify original"] = ["verify", f, "--mode", "original"]
        cases[f"{entry.id} numeric verify extended"] = ["verify", f, "--mode", "extended"]
        cases[f"{entry.id} numeric info"] = ["info", f]
        cases[f"{entry.id} numeric inequality"] = ["inequality", f]
        cases[f"{entry.id} numeric prune"] = ["prune", f]
    cases["loose inequality"] = ["inequality", "loose.ks"]
    cases["loose evaluate"] = ["evaluate", "loose.ks"]
    return cases


def _run_case(argv: list[str], workdir: Path) -> dict:
    """Run one command inside ``workdir``; record everything it printed or wrote."""
    for name, text in _inputs().items():
        (workdir / name).write_text(text, encoding="utf-8")
    before = set(os.listdir(workdir))
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stderr(err):
            status = run_command(argv, out=out)
    finally:
        os.chdir(cwd)
    files = {
        name: (workdir / name).read_text(encoding="utf-8").splitlines()
        for name in sorted(set(os.listdir(workdir)) - before)
    }
    return {
        "argv": argv,
        "status": status,
        "stdout": out.getvalue().splitlines(),
        "stderr": err.getvalue().splitlines(),
        "files": files,
    }


def _lines_match(actual: list[str], expected: list[str]) -> bool:
    if len(actual) != len(expected):
        return False
    for a, e in zip(actual, expected):
        if a == e:
            continue
        a_tok, e_tok = a.split(), e.split()
        if not (a_tok and e_tok and a_tok[0] in FLOAT_KEYS and a_tok[:-1] == e_tok[:-1]):
            return False
        if abs(float(a_tok[-1]) - float(e_tok[-1])) > FLOAT_TOLERANCE:
            return False
    return True


GOLDEN_CASES = json.loads(GOLDEN.read_text(encoding="utf-8")) if GOLDEN.exists() else {}


def test_golden_covers_every_case():
    assert sorted(GOLDEN_CASES) == sorted(_cases())


@pytest.mark.parametrize("case", sorted(_cases()))
def test_golden_cli_output(case, tmp_path):
    expected = GOLDEN_CASES[case]
    actual = _run_case(_cases()[case], tmp_path)
    assert actual["argv"] == expected["argv"]
    assert actual["status"] == expected["status"]
    for stream in ("stdout", "stderr"):
        assert _lines_match(actual[stream], expected[stream]), (
            f"{stream} differs:\n" + "\n".join(actual[stream])
        )
    assert sorted(actual["files"]) == sorted(expected["files"])
    for name, lines in expected["files"].items():
        assert actual["files"][name] == lines


def _regenerate() -> None:
    import tempfile

    golden = {}
    for case, argv in _cases().items():
        with tempfile.TemporaryDirectory() as scratch:
            golden[case] = _run_case(argv, Path(scratch))
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
