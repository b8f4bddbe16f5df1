"""The bundled sweep commands print what the benchmark's reference pins.

``bench/reference/bundled.json`` records, for every bundled algebra, the exit
code and the stdout sha256 of ``compare`` and ``axioms --framework both``
under both competitor policies in machine format, and the machine stdout of
``vectors`` verbatim.  The file is only read here.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from aprop.cli import main
from aprop.verify import bundled_algebra_names

REFERENCE = json.loads(
    (Path(__file__).resolve().parents[1] / "bench" / "reference" / "bundled.json").read_text()
)


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("command", [key for key in REFERENCE["cli"] if key != "vectors"])
def test_sweep_output_matches_the_reference(command):
    want = REFERENCE["cli"][command]
    code, out, err = run(command.split())
    assert (code, err) == (want["exit"], "")
    assert hashlib.sha256(out.encode()).hexdigest() == want["sha256"]
    assert len(out.splitlines()) == want["lines"]


def test_vectors_output_matches_the_reference():
    want = REFERENCE["cli"]["vectors"]
    assert run(["--format", "machine", "vectors"]) == (want["exit"], want["stdout"], "")


def test_every_bundled_algebra_is_pinned():
    assert REFERENCE["names"] == bundled_algebra_names()
    commands = set(REFERENCE["cli"])
    for name in REFERENCE["names"]:
        for policy in ("literal", "all"):
            for command in ("compare", "axioms --framework both"):
                assert f"{command} --competitors {policy} --format machine {name}" in commands
