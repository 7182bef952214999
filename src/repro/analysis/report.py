"""Text, JSON, and GitHub-annotation reporters over an
:class:`AnalysisResult`.

The JSON report is a pure function of the findings — deliberately no
timings — so two runs of the same tree are byte-identical (wall-clock
numbers live in the text reporter and the CLI only).
"""

from __future__ import annotations

import json

from repro.analysis.core import AnalysisResult, Finding, sort_findings
from repro.analysis.rules import all_rules

#: Bumped when the JSON layout changes incompatibly; CI consumers pin
#: it.  v2: dropped the non-deterministic "seconds" field (run-to-run
#: byte-identity).
JSON_SCHEMA_VERSION = 2


def render_text(result: AnalysisResult, verbose: bool = False) -> str:
    lines: list[str] = []
    for finding in sort_findings(result.findings):
        lines.append(
            f"{finding.location()}: {finding.rule} [{finding.severity}] "
            f"{finding.message}"
        )
        if finding.hint:
            lines.append(f"    hint: {finding.hint}")
    if verbose:
        for finding in sort_findings(result.baselined):
            lines.append(
                f"{finding.location()}: {finding.rule} baselined: "
                f"{finding.message}"
            )
        for finding in sort_findings(result.suppressed):
            lines.append(
                f"{finding.location()}: {finding.rule} suppressed inline"
            )
    for entry in result.stale_baseline:
        lines.append(
            f"stale baseline entry (matched nothing): "
            f"{entry['rule']} {entry['path']} — consider deleting it"
        )
    counts = result.counts()
    summary = (
        ", ".join(f"{rule}: {n}" for rule, n in sorted(counts.items()))
        if counts
        else "clean"
    )
    lines.append(
        f"{len(result.findings)} finding(s) "
        f"({summary}) in {result.files_analyzed} file(s), "
        f"{len(result.rules_run)} rule(s), {result.seconds:.2f}s"
        + (
            f"; {len(result.suppressed)} suppressed, "
            f"{len(result.baselined)} baselined"
            if result.suppressed or result.baselined
            else ""
        )
    )
    return "\n".join(lines)


def render_json(result: AnalysisResult) -> str:
    rules = {
        rule.id: {
            "severity": rule.severity,
            "title": rule.title,
            "rationale": rule.rationale,
        }
        for rule in all_rules()
        if rule.id in result.rules_run
    }
    payload = {
        "version": JSON_SCHEMA_VERSION,
        "rules": rules,
        "findings": [f.to_dict() for f in sort_findings(result.findings)],
        "suppressed": [f.to_dict() for f in sort_findings(result.suppressed)],
        "baselined": [f.to_dict() for f in sort_findings(result.baselined)],
        "stale_baseline": result.stale_baseline,
        "counts": dict(sorted(result.counts().items())),
        "files_analyzed": result.files_analyzed,
        "exit_code": result.exit_code,
    }
    return json.dumps(payload, indent=2)


def _annotation_property(value: str) -> str:
    """GitHub workflow-command property escaping."""
    return (
        value.replace("%", "%25")
        .replace("\r", "%0D")
        .replace("\n", "%0A")
        .replace(":", "%3A")
        .replace(",", "%2C")
    )


def _annotation_message(value: str) -> str:
    """GitHub workflow-command message escaping."""
    return value.replace("%", "%25").replace("\r", "%0D").replace("\n", "%0A")


def _annotation(finding: Finding) -> str:
    level = "error" if finding.severity == "error" else "warning"
    message = finding.message
    if finding.hint:
        message = f"{message} — hint: {finding.hint}"
    return (
        f"::{level} "
        f"file={_annotation_property(finding.path)},"
        f"line={finding.line},"
        f"title={_annotation_property(finding.rule)}"
        f"::{_annotation_message(message)}"
    )


def render_github(result: AnalysisResult) -> str:
    """GitHub Actions ``::error``/``::warning`` annotations — one per
    finding, so violations render inline on the PR diff.  A trailing
    plain summary line keeps the raw log readable."""
    lines = [_annotation(f) for f in sort_findings(result.findings)]
    lines.append(
        f"{len(result.findings)} finding(s) in "
        f"{result.files_analyzed} file(s), "
        f"{len(result.rules_run)} rule(s)"
    )
    return "\n".join(lines)
