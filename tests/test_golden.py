"""Byte-equal snapshot of the command line on every fixture.

Each case runs one `topinv` verb with `--json` on the files written by
`scripts/export_fixtures.py` and compares stdout, stderr and the exit
code with the files under tests/golden/.  The snapshot was written from
the code before any refactor of the F2 and quadratic-form internals, and
is not to be regenerated to make a change pass.

tests/golden/text.json holds the text mode of the same cases, plus `-h`
of the parser and of each verb and a few usage errors, all at an
80-column help width.  It was written from the code before the verb
handlers were rewritten to return their report, under the same rule:

    PYTHONPATH=src python tests/test_golden.py    # rewrites tests/golden/
"""

import contextlib
import io
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import pytest

from topinv import catalog, cli

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"

SINGLE_VERBS = [("homology-Z", ["homology", "--ring", "Z"]),
                ("homology-F2", ["homology", "--ring", "F2"]),
                ("wu", ["wu"]), ("sw", ["sw"]), ("sw-numbers", ["sw-numbers"]),
                ("obstructions", ["obstructions"]),
                ("intersection", ["intersection"]), ("panel", ["panel"])]
PAIRS = [("S2", "RP2"), ("S2", "T2"), ("RP2", "T2"), ("RP2", "K2"),
         ("T2", "K2"), ("S2", "K2"), ("S4", "CP2"), ("S4", "S2xS2"),
         ("CP2", "S2xS2"), ("CP2", "CP2"), ("S2", "S4"), ("S4", "S5")]
GRAMS = ["I2", "I8", "E8", "hyperbolic", "diag_1_3", "diag_1_m1"]
VERBS = ["homology", "wu", "sw", "sw-numbers", "obstructions", "cobordant",
         "intersection", "qf", "qf-equiv", "panel", "compare"]
USAGE = {"usage__no-verb": [], "usage__bad-verb": ["no-such-verb"],
         "usage__no-input": ["homology"],
         "usage__bad-ring": ["homology", "--ring", "Q", "S2.cx"],
         "usage__extra-input": ["panel", "S2.cx", "extra"]}


def cases() -> dict[str, list[str]]:
    """Case id -> argv, with inputs named by their fixture file names."""
    out = {}
    for name in catalog.manifold_fixtures():
        for tag, verb in SINGLE_VERBS:
            out[f"{tag}__{name}"] = verb + [f"{name}.cx"]
    for a, b in PAIRS:
        for verb in ("cobordant", "compare"):
            out[f"{verb}__{a}__{b}"] = [verb, f"{a}.cx", f"{b}.cx"]
    for g in GRAMS:
        out[f"qf__{g}"] = ["qf", f"{g}.qf"]
    for f, g in itertools.product(GRAMS, repeat=2):
        out[f"qf-equiv__{f}__{g}"] = ["qf-equiv", f"{f}.qf", f"{g}.qf"]
    return out


def text_cases() -> dict[str, list[str]]:
    """Case id -> argv for the text snapshot: every golden case, plus
    `-h` of the parser and of each verb, plus the usage errors."""
    out = {**cases(), "help": ["-h"], **USAGE}
    for verb in VERBS:
        out[f"help__{verb}"] = [verb, "-h"]
    return out


def export_fixtures(outdir: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, str(ROOT / "scripts" / "export_fixtures.py"),
                    str(outdir)], check=True, env=env, capture_output=True)


def run_case(argv: list[str], fixture_dir: Path, as_json=True) -> dict:
    args = [str(fixture_dir / a) if a.endswith((".cx", ".qf")) else a
            for a in argv] + (["--json"] if as_json else [])
    out, err = io.StringIO(), io.StringIO()
    # argparse wraps help and usage to the terminal width it reads here
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"COLUMNS": "80"}):
        code = cli.main(args)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.fixture(scope="module")
def fixture_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fixtures")
    export_fixtures(d)
    return d


@pytest.fixture(scope="module")
def index():
    return json.loads((GOLDEN / "index.json").read_text())


def test_golden_cases_listed(index):
    assert sorted(index) == sorted(cases())


@pytest.mark.parametrize("case", sorted(cases()))
def test_golden(case, fixture_dir, index):
    got = run_case(index[case]["argv"], fixture_dir)
    assert got["exit"] == index[case]["exit"]
    assert got["stderr"] == index[case]["stderr"]
    assert got["stdout"] == (GOLDEN / f"{case}.json").read_text()


@pytest.fixture(scope="module")
def text_snapshot():
    return json.loads((GOLDEN / "text.json").read_text())


def test_text_cases_listed(text_snapshot):
    assert sorted(text_snapshot) == sorted(text_cases())


@pytest.mark.parametrize("case", sorted(text_cases()))
def test_text(case, fixture_dir, text_snapshot):
    want = text_snapshot[case]
    got = run_case(want["argv"], fixture_dir, as_json=False)
    assert got == {k: want[k] for k in ("exit", "stdout", "stderr")}


def write_snapshot() -> None:
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    with tempfile.TemporaryDirectory() as tmp:
        export_fixtures(Path(tmp))
        for case, argv in sorted(cases().items()):
            got = run_case(argv, Path(tmp))
            (GOLDEN / f"{case}.json").write_text(got["stdout"])
            index[case] = {"argv": argv, "exit": got["exit"],
                           "stderr": got["stderr"]}
        text = {case: {"argv": argv, **run_case(argv, Path(tmp), False)}
                for case, argv in sorted(text_cases().items())}
    (GOLDEN / "index.json").write_text(
        json.dumps(index, sort_keys=True, indent=2) + "\n")
    (GOLDEN / "text.json").write_text(
        json.dumps(text, sort_keys=True, indent=2) + "\n")


if __name__ == "__main__":
    write_snapshot()
