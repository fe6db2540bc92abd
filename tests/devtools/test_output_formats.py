"""JSON/SARIF output and the CLI modes."""

import json
import shutil
import subprocess

import pytest

from repro.devtools.diagnostics import Diagnostic
from repro.devtools.lint import changed_files, main
from repro.devtools.output import render_json, render_sarif

SAMPLE = [
    Diagnostic(
        path="src/repro/core/a.py",
        line=12,
        col=5,
        code="FRQ-S901",
        message="plaintext reaches the wire",
    ),
    Diagnostic(
        path="src/repro/core/b.py",
        line=3,
        col=1,
        code="FRQ-P311",
        message="ungranted epsilon",
    ),
]

CODES = {
    "FRQ-S901": ("security-dataflow", "plaintext to sink"),
    "FRQ-P311": ("budget-flow", "ungranted epsilon"),
}


def test_render_json_is_stable_and_parseable():
    document = json.loads(render_json(SAMPLE, CODES))
    assert document["tool"] == "fresque-lint"
    assert [f["code"] for f in document["findings"]] == [
        "FRQ-S901",
        "FRQ-P311",
    ]
    assert document["findings"][0]["family"] == "security-dataflow"
    assert document["findings"][0]["line"] == 12


def test_render_sarif_rules_and_results_line_up():
    document = json.loads(render_sarif(SAMPLE, CODES))
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    rule_ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
    for result in run["results"]:
        assert rule_ids[result["ruleIndex"]] == result["ruleId"]
    region = run["results"][0]["locations"][0]["physicalLocation"]["region"]
    assert region == {"startLine": 12, "startColumn": 5}


def test_render_sarif_empty_findings_is_valid():
    document = json.loads(render_sarif([], CODES))
    assert document["runs"][0]["results"] == []


def make_repo(tmp_path):
    (tmp_path / "pyproject.toml").write_text("[project]\nname='t'\n")
    package = tmp_path / "src"
    package.mkdir()
    clean = package / "clean.py"
    clean.write_text("def ok():\n    return 1\n")
    dirty = package / "dirty.py"
    dirty.write_text(
        "def bad(items=[]):\n    return items\n"
    )
    return clean, dirty


def test_cli_json_format_end_to_end(tmp_path, monkeypatch, capsys):
    make_repo(tmp_path)
    monkeypatch.chdir(tmp_path)
    status = main(["--format", "json", "src"])
    document = json.loads(capsys.readouterr().out)
    assert status == 1
    codes = {finding["code"] for finding in document["findings"]}
    assert "FRQ-H402" in codes


def test_cli_sarif_format_end_to_end(tmp_path, monkeypatch, capsys):
    make_repo(tmp_path)
    monkeypatch.chdir(tmp_path)
    status = main(["--format", "sarif", "src"])
    document = json.loads(capsys.readouterr().out)
    assert status == 1
    assert document["runs"][0]["results"]


@pytest.mark.skipif(shutil.which("git") is None, reason="git unavailable")
def test_changed_only_filters_to_uncommitted_files(tmp_path, monkeypatch, capsys):
    clean, dirty = make_repo(tmp_path)
    git_env = {
        "GIT_AUTHOR_NAME": "t", "GIT_AUTHOR_EMAIL": "t@t",
        "GIT_COMMITTER_NAME": "t", "GIT_COMMITTER_EMAIL": "t@t",
    }

    def git(*args):
        subprocess.run(
            ["git", *args], cwd=tmp_path, check=True,
            capture_output=True, env={"PATH": "/usr/bin:/bin", **git_env},
        )

    git("init", "-q")
    git("add", "-A")
    git("commit", "-qm", "seed")
    changed = changed_files(tmp_path)
    assert changed == set()

    monkeypatch.chdir(tmp_path)
    # dirty.py is committed and unchanged: its finding must be filtered.
    status = main(["--changed-only", "src"])
    assert status == 0
    capsys.readouterr()

    # Touching the file's *content* brings its findings back.
    dirty.write_text("def bad(items=[], more={}):\n    return items\n")
    assert changed_files(tmp_path) == {"src/dirty.py"}
    status = main(["--changed-only", "src"])
    out = capsys.readouterr().out
    assert status == 1
    assert "dirty.py" in out and "clean.py" not in out
