"""The merge gate: the repository's own source tree is reprolint-clean.

This is the same check CI runs via ``python -m repro lint --graph``;
keeping it in the suite means a hazard introduced by any PR fails
tier-1 locally, not just in the lint job.
"""

from __future__ import annotations

from pathlib import Path

from repro.lint.core import all_rules, lint_paths
from repro.lint.graph import GRAPH_RULE_CATALOGUE, GRAPH_RULE_IDS

REPO = Path(__file__).resolve().parents[2]
TREES = [str(REPO / name)
         for name in ("src", "tests", "benchmarks", "examples")
         if (REPO / name).is_dir()]


def test_repository_is_lint_clean():
    report = lint_paths(TREES)
    assert not report.parse_errors, report.parse_errors
    assert report.clean, "\n".join(f.format() for f in report.findings)
    assert report.files_checked > 100


def test_repository_is_clean_under_graph_tier():
    report = lint_paths(TREES, graph=True)
    assert not report.parse_errors, report.parse_errors
    assert report.clean, "\n".join(f.format() for f in report.findings)
    # The deliberate in-tree patterns are suppressed, not absent: the
    # graph passes really did look at them.
    assert report.suppressed.get("SIM401", 0) >= 1
    assert report.suppressed.get("SIM402", 0) >= 1


def test_rule_catalogue_is_complete_and_id_ordered():
    ids = [rule.id for rule in all_rules()]
    assert ids == sorted(ids)
    assert ids == ["DET101", "DET102", "DET103", "LINT001", "LINT002",
                   "PERF401", "PERF402", "PERF403", "PERF404", "PERF405",
                   "PERF406", "PERF407", "PERF408",
                   "RAS501",
                   "SIM201", "SIM202", "SIM203", "SIM204", "UNIT301",
                   "UNIT302"]
    assert all(rule.summary for rule in all_rules())


def test_graph_rule_catalogue_is_complete_and_id_ordered():
    assert list(GRAPH_RULE_IDS) == sorted(GRAPH_RULE_IDS)
    assert list(GRAPH_RULE_IDS) == [
        "DET201", "DET202", "DET203", "DET204",
        "SIM401", "SIM402", "SIM403",
        "UNIT401", "UNIT402", "UNIT403"]
    assert all(summary for _, summary in GRAPH_RULE_CATALOGUE)
    # No overlap with the per-file tier.
    assert not set(GRAPH_RULE_IDS) & {r.id for r in all_rules()}
