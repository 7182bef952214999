"""SEED001 — unseeded entropy must not reach identity or seeds.

The derived-seed scheme (:mod:`repro.rng`) makes every count a pure
function of ``(base_seed, task_entropy, chunk_index)``; task identity
(``strong_id``) is a pure function of the task's content.  Entropy
from the environment — wall clocks, ``os.urandom``, an *unseeded*
``default_rng()``, set iteration order — flowing into either silently
breaks resume and the serial == pooled guarantee.  This rule taints
such sources and follows the taint flow-sensitively through
assignments, arithmetic, and function returns (via interprocedural
summaries) into the fingerprint/seed sinks.

Intentional entropy stays allowed: drawing a *fresh base seed* for an
unseeded run (``fresh_base_seed``) is fine because the drawn value is
recorded and only ever passed onward as an explicit seed argument —
the taint only trips when it reaches identity/seed *construction*.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding
from repro.analysis.dataflow import EMPTY_MARKS
from repro.analysis.index import SourceFile, SourceIndex, dotted_tail
from repro.analysis.rules.flow import (
    FlowRule,
    calls_in,
    describe_expr,
    element_exprs,
    resolved_callable,
)
from repro.analysis.summaries import DataflowContext, SummaryAnalysis

_ENTROPY = frozenset({"entropy"})
_UNORDERED = frozenset({"unordered"})

#: Modules whose every call yields environment entropy.
_ENTROPY_MODULES = frozenset({"time", "secrets", "uuid"})

#: Repo-specific identity/seed constructors: any tainted argument is a
#: reproducibility break.
_SINK_TAILS = frozenset({
    "strong_id", "circuit_fingerprint", "entropy_from_hex",
    "seed_entropy", "chunk_seed_sequence", "chunk_generator",
})

#: ``hashlib`` digests feed ``strong_id``-style content identity.
_HASH_FUNCTIONS = frozenset({
    "sha256", "sha224", "sha384", "sha512", "sha1", "md5",
    "blake2b", "blake2s",
})

#: Builtins whose result carries their arguments' taint.
_PASSTHROUGH_BUILTINS = frozenset({
    "int", "float", "str", "bytes", "bool", "abs", "round",
    "min", "max", "sum", "repr", "hex", "oct", "format", "divmod",
})


class SeedTaintAnalysis(SummaryAnalysis):
    """Marks: ``entropy`` (environment randomness), ``unordered``
    (set-typed value — becomes entropy when iterated)."""

    domain_name = "seed"

    def intrinsic_call_marks(
        self, state, call: ast.Call
    ) -> frozenset[str] | None:
        module, fn = resolved_callable(self.file, call)
        if module in _ENTROPY_MODULES:
            return _ENTROPY
        if module == "os" and fn == "urandom":
            return _ENTROPY
        if module == "numpy.random" and fn in ("default_rng", "SeedSequence"):
            if not call.args and not call.keywords:
                return _ENTROPY  # unseeded: fresh OS entropy every call
            return EMPTY_MARKS  # explicitly seeded
        if module is None and fn in ("set", "frozenset"):
            return _UNORDERED
        if module is None and fn in ("list", "tuple"):
            marks = EMPTY_MARKS
            for arg in call.args:
                marks |= self.expr_marks(state, arg)
            if "unordered" in marks:
                return (marks - _UNORDERED) | _ENTROPY
            return marks
        if module is None and fn == "sorted":
            return EMPTY_MARKS  # sanitizer: order is now deterministic
        if module is None and fn in _PASSTHROUGH_BUILTINS:
            marks = EMPTY_MARKS
            for arg in call.args:
                marks |= self.expr_marks(state, arg)
            return marks
        return None

    def literal_marks(self, expr: ast.expr) -> frozenset[str]:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return _UNORDERED
        return EMPTY_MARKS

    def iteration_marks(self, state, iter_expr: ast.expr) -> frozenset[str]:
        marks = self.expr_marks(state, iter_expr)
        if "unordered" in marks:
            return (marks - _UNORDERED) | _ENTROPY
        return marks


def _sink_label(
    file: SourceFile, call: ast.Call
) -> str | None:
    tail = dotted_tail(call.func)
    if tail in _SINK_TAILS:
        return tail
    module, fn = resolved_callable(file, call)
    if module == "hashlib" and fn in _HASH_FUNCTIONS:
        return f"hashlib.{fn}"
    if module == "numpy.random" and fn == "SeedSequence" and (
        call.args or call.keywords
    ):
        return "SeedSequence"
    return None


class SeedTaintRule(FlowRule):
    """SEED001: no environment entropy into identity/seed construction."""

    id = "SEED001"
    severity = "error"
    title = "unseeded entropy flows into identity/seed construction"
    rationale = (
        "strong_id, fingerprints and derived seeds must be pure "
        "functions of task content and the explicit base seed; wall "
        "clocks, os.urandom, unseeded default_rng() and set iteration "
        "order make them run-dependent and break resume."
    )
    domain = SeedTaintAnalysis

    def check_file(
        self,
        index: SourceIndex,
        context: DataflowContext,
        file: SourceFile,
        resolved,
    ) -> Iterator[Finding]:
        for info in file.functions.values():
            analysis = SeedTaintAnalysis(file, index, resolved)
            cfg = context.cfg(info)
            for element, state in analysis.walk(cfg):
                for call in calls_in(element_exprs(element)):
                    sink = _sink_label(file, call)
                    if sink is None:
                        continue
                    args = list(call.args) + [
                        kw.value for kw in call.keywords
                    ]
                    for arg in args:
                        if "entropy" in analysis.expr_marks(state, arg):
                            yield self.finding(
                                index, file, call,
                                f"entropy-tainted value "
                                f"{describe_expr(arg)} reaches "
                                f"{sink}() in {info.qualname}()",
                                hint=(
                                    "identity and seeds must derive "
                                    "from task content and the "
                                    "explicit base seed (repro.rng "
                                    "derived-seed scheme); sort "
                                    "iteration, seed the generator, "
                                    "or drop the clock"
                                ),
                            )
