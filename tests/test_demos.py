"""Every demo script and tool runs to completion against the current
package."""

import re
import runpy
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.name)
def test_demo_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()


def test_digests_tool_repeats_one_digest_per_artefact(capsys):
    # two runs in one process print the same lines, one per artefact
    main = runpy.run_path(str(ROOT / "tools" / "digests.py"))["main"]
    runs = []
    for _ in range(2):
        assert main(["--tiny"]) == 0
        runs.append(capsys.readouterr().out.splitlines())
    assert runs[0] == runs[1]
    assert all(re.fullmatch(r"\S+ [0-9a-f]{64}", line) for line in runs[0])
    names = [line.split()[0] for line in runs[0]]
    assert len(set(names)) == len(names)
    assert {"losses.lstm2", "model.adrnn", "forecast.adrnn",
            "check_model.lstm2", "check_cell.adrnn.d2.t3", "cli.m.model",
            "cli.f.csv", "cli.report/report.json"} <= set(names)


@pytest.mark.skipif(
    shutil.which("git") is None or not (ROOT / ".git").exists(),
    reason="needs git and the repository's history")
def test_digests_tool_reports_each_artefact_once_against_a_revision(capsys):
    main = runpy.run_path(str(ROOT / "tools" / "digests.py"))["main"]
    assert main(["--tiny"]) == 0
    names = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "digests.py"),
                          "--tiny", "--against", "HEAD"],
                         capture_output=True, text=True)
    assert run.returncode in (0, 1), run.stderr
    lines = run.stdout.splitlines()
    assert all(re.fullmatch(r"\S+ (same|differs|only here|only in HEAD)",
                            line) for line in lines)
    reported = [line.split()[0] for line in lines]
    assert len(set(reported)) == len(reported)
    assert set(names) <= set(reported)
    assert run.returncode == any(line.endswith(" differs") for line in lines)
