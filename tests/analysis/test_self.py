"""The analyzer run against this repository itself.

These are the gating properties CI relies on: the real ``src/repro``
tree is clean with no inline suppressions, the examples/benchmarks
findings are all accounted for by the checked-in baseline, and the
whole run stays fast.
"""

from pathlib import Path

from repro.analysis import Baseline, analyze, build_index
from repro.analysis.rules.reg import _registered_impls

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestSrcTreeIsClean:
    def test_no_findings_no_suppressions(self):
        result = analyze([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert result.findings == [], [
            f"{f.location()}: {f.rule} {f.message}" for f in result.findings
        ]
        # Zero inline suppressions in src: every accepted violation must
        # live in the baseline file, where it carries a note.
        assert result.suppressed == []
        assert result.exit_code == 0

    def test_reg001_discovers_every_registered_implementation(self):
        # REG001 returns early when discovery finds nothing, so a
        # renamed register_* call would make it pass vacuously.
        impls = _registered_impls(build_index([REPO_ROOT / "src" / "repro"]))
        assert set(impls) == {
            "FrameSimulator",
            "TableauSampler",
            "MatchingDecoder",
            "CompiledMatchingDecoder",
            "LookupDecoder",
        }

    def test_full_rule_set_runs_fast(self):
        result = analyze([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert len(result.rules_run) >= 8
        assert result.files_analyzed >= 50
        assert result.seconds < 10.0


class TestBaselinedTrees:
    def test_examples_and_benchmarks_match_baseline(self):
        baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
        result = analyze(
            [REPO_ROOT / "examples", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
            baseline=baseline,
        )
        assert result.findings == [], [
            f"{f.location()}: {f.rule} {f.message}" for f in result.findings
        ]
        assert result.suppressed == []
        assert result.baselined, "baseline should be exercised"

    def test_baseline_has_no_stale_entries(self):
        baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
        analyze(
            [REPO_ROOT / "examples", REPO_ROOT / "benchmarks"],
            root=REPO_ROOT,
            baseline=baseline,
        )
        assert baseline.stale_entries() == []

    def test_every_baseline_entry_has_a_note(self):
        baseline = Baseline.load(REPO_ROOT / "analysis-baseline.json")
        for entry in baseline.entries:
            assert entry["note"].strip()
