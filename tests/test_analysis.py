"""The static analyzer: rules, suppressions, output, and the self-check.

Fixture modules live in ``tests/analysis_fixtures/`` -- each rule has a
``*_bad`` module seeding at least two violations and a clean
counterpart. They are analyzed as *paths*, never imported.
"""

from __future__ import annotations

import json
import shutil
import subprocess
from pathlib import Path

import pytest

from repro.analysis import RULES, render_human, render_json, run_check
from repro.cli import main

REPO = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "analysis_fixtures"


def check_fixture(name: str, rule: str):
    return run_check([str(FIXTURES / name)], rules=[rule])


# ---------------------------------------------------------------------------
# per-rule fixtures: >= 2 seeded violations, clean counterpart at zero
# ---------------------------------------------------------------------------
BAD_FIXTURES = [
    ("R001", "r001_bad.py", 2),
    ("R002", "r002_bad.py", 3),
    ("R004", "r004_bad.py", 5),
    ("R005", "r005_bad.py", 3),
    ("R006", "r006_bad.py", 4),
]

CLEAN_FIXTURES = [
    ("R001", "r001_clean.py"),
    ("R002", "r002_clean.py"),
    ("R004", "r004_clean.py"),
    ("R005", "r005_clean.py"),
    ("R006", "r006_clean.py"),
]


@pytest.mark.parametrize("rule,fixture,expected", BAD_FIXTURES)
def test_bad_fixture_is_caught(rule, fixture, expected):
    result = check_fixture(fixture, rule)
    assert len(result.findings) == expected, [
        f.location() + " " + f.message for f in result.findings
    ]
    assert all(f.rule == rule for f in result.findings)
    assert not result.ok
    # Findings carry real locations inside the fixture.
    for finding in result.findings:
        assert fixture.split(".")[0] in finding.path
        assert finding.line >= 1


@pytest.mark.parametrize("rule,fixture", CLEAN_FIXTURES)
def test_clean_fixture_passes(rule, fixture):
    result = check_fixture(fixture, rule)
    assert result.findings == [], [
        f.location() + " " + f.message for f in result.findings
    ]
    assert result.ok


def test_rule_registry_is_complete():
    assert sorted(RULES) == ["R001", "R002", "R004", "R005", "R006"]
    for rule in RULES.values():
        assert rule.title


# ---------------------------------------------------------------------------
# specific findings worth pinning
# ---------------------------------------------------------------------------
def test_r001_names_the_missing_attributes():
    result = check_fixture("r001_bad.py", "R001")
    messages = " ".join(f.message for f in result.findings)
    assert "window" in messages and "high_water" in messages


def test_r006_distinguishes_live_from_final_reports():
    bad = check_fixture("r006_bad.py", "R006")
    assert any("live reporter" in f.message for f in bad.findings)
    clean = check_fixture("r006_clean.py", "R006")
    assert clean.findings == []  # _final may draw; only live= must be pure


# ---------------------------------------------------------------------------
# suppressions
# ---------------------------------------------------------------------------
def test_suppression_is_applied_and_staleness_is_flagged():
    result = run_check([str(FIXTURES / "suppressed.py")])
    assert [f.rule for f in result.suppressed] == ["R002"]
    assert [f.rule for f in result.findings] == ["W000"]
    assert "allow[R005]" in result.findings[0].message
    assert not result.ok  # a stale allowance blocks like a finding


def test_unused_suppressions_stay_quiet_on_filtered_runs():
    result = run_check([str(FIXTURES / "suppressed.py")], rules=["R002"])
    assert result.findings == []
    assert [f.rule for f in result.suppressed] == ["R002"]
    assert result.ok


def test_unknown_rule_id_raises():
    with pytest.raises(ValueError, match="R999"):
        run_check([str(FIXTURES)], rules=["R999"])


# ---------------------------------------------------------------------------
# runner output
# ---------------------------------------------------------------------------
def test_json_schema():
    result = run_check([str(FIXTURES / "r002_bad.py")], rules=["R002"])
    payload = json.loads(render_json(result))
    assert payload["version"] == 1
    assert payload["rules"] == ["R002"]
    assert payload["files_checked"] == 1
    assert payload["summary"]["ok"] is False
    assert payload["summary"]["findings"] == len(payload["findings"])
    for finding in payload["findings"]:
        assert set(finding) == {"rule", "path", "line", "col", "message"}
        assert finding["rule"] == "R002"


def test_human_rendering_has_locations_and_summary():
    result = run_check([str(FIXTURES / "r002_bad.py")], rules=["R002"])
    text = render_human(result)
    assert "r002_bad.py:" in text
    assert "repro check:" in text.splitlines()[-1]


def test_unreadable_path_is_an_error_finding():
    result = run_check([str(FIXTURES / "no_such_file.py")])
    assert result.findings == []
    assert len(result.errors) == 1
    assert result.errors[0].rule == "E000"
    assert not result.ok


def test_syntax_error_is_reported_not_raised(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n", encoding="utf-8")
    result = run_check([str(bad)])
    assert [f.rule for f in result.errors] == ["E000"]
    assert "syntax error" in result.errors[0].message


# ---------------------------------------------------------------------------
# the CLI surface
# ---------------------------------------------------------------------------
def test_cli_exits_nonzero_on_findings(capsys):
    code = main(["check", str(FIXTURES / "r001_bad.py"), "--rule", "R001"])
    out = capsys.readouterr().out
    assert code == 1
    assert "R001" in out and "r001_bad.py:" in out


def test_cli_exits_zero_on_clean_tree(capsys):
    code = main(["check", str(FIXTURES / "r001_clean.py"), "--rule", "R001"])
    assert code == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_cli_json_format_and_report_artifact(tmp_path, capsys):
    report = tmp_path / "report.json"
    code = main(
        [
            "check",
            str(FIXTURES / "r002_bad.py"),
            "--rule",
            "R002",
            "--format",
            "json",
            "--json-report",
            str(report),
        ]
    )
    assert code == 1
    stdout_payload = json.loads(capsys.readouterr().out)
    file_payload = json.loads(report.read_text(encoding="utf-8"))
    assert stdout_payload == file_payload
    assert file_payload["summary"]["findings"] == 3


def test_cli_rejects_unknown_rule(capsys):
    code = main(["check", "--rule", "R999", str(FIXTURES)])
    assert code == 2
    assert "unknown rule" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["check", "--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in RULES:
        assert rule_id in out


# ---------------------------------------------------------------------------
# the analyzer on the real tree
# ---------------------------------------------------------------------------
def test_repo_source_tree_is_clean(capsys):
    """The PR's contract: `repro check src/ benchmarks/` stays at zero."""
    code = main(
        ["check", str(REPO / "src" / "repro"), str(REPO / "benchmarks")]
    )
    assert code == 0, capsys.readouterr().out


def test_ruff_layer_is_clean_when_available():
    """The generic lint layer (pyproject [tool.ruff]) also passes.

    Skipped on boxes without ruff -- CI installs the pinned version and
    runs this for real in the static-analysis job.
    """
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed")
    proc = subprocess.run(
        ["ruff", "check", "src", "tests", "benchmarks"],
        cwd=REPO,
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_r001_catches_injected_checkpoint_omission(tmp_path):
    """Dropping tau from TriestFdSampler's checkpoint surface must fire.

    Both sides go: the ``state_dict`` entry *and* the
    ``load_state_dict`` restore (either alone still counts as
    coverage, by design -- one side present means the field is part of
    the checkpoint conversation).
    """
    source = (REPO / "src" / "repro" / "core" / "triest_fd.py").read_text(
        encoding="utf-8"
    )
    assert '"tau": self.tau,' in source
    assert 'self.tau = int(state["tau"])' in source
    mutated = source.replace('"tau": self.tau,', "").replace(
        'self.tau = int(state["tau"])', "pass"
    )
    target = tmp_path / "triest_fd.py"
    target.write_text(mutated, encoding="utf-8")

    clean = run_check(
        [str(REPO / "src" / "repro" / "core" / "triest_fd.py")], rules=["R001"]
    )
    assert clean.findings == []

    result = run_check([str(target)], rules=["R001"])
    assert any(
        "tau" in f.message and f.rule == "R001" for f in result.findings
    ), [f.message for f in result.findings]
