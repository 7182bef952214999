"""EXC001 — no silent exception swallowing in the engine.

The supervised executor's whole contract is that failures are *loud*:
a worker crash becomes a counted death, a failed chunk becomes a retry
or a structured quarantine row.  A ``try/except: pass`` inside
:mod:`repro.engine` undoes that — the failure vanishes before the
supervisor can count, retry, or surface it, and the resulting
"recovered" run lies about what happened.

Two shapes are flagged, in engine modules only:

* a handler whose body does nothing (``pass``/``...``/a bare constant)
  — the error is dropped on the floor with no record;
* a bare ``except:`` that does not re-raise — it catches
  ``KeyboardInterrupt``/``SystemExit`` too, so even a well-meaning
  cleanup handler turns Ctrl-C into a swallowed event.

The sanctioned spelling for genuinely-ignorable errors is
``contextlib.suppress(...)``: it names the exception types at the call
site, reads as a deliberate decision, and cannot silently widen into a
catch-all.  Handlers that raise, log through :mod:`repro.obs`, or do
any real work are untouched.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.analysis.core import Finding, Rule
from repro.analysis.index import SourceFile, SourceIndex

#: Only the engine is held to the loud-failure contract; the rest of
#: the package has no supervisor owed a report.
_ENGINE_PREFIX = "repro.engine"


def _is_silent_body(body: list[ast.stmt]) -> bool:
    """True when the handler body does nothing observable."""
    return all(
        isinstance(stmt, ast.Pass)
        or (isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant))
        for stmt in body
    )


def _reraises(body: list[ast.stmt]) -> bool:
    """True when any statement in the handler (re-)raises."""
    return any(
        isinstance(sub, ast.Raise)
        for stmt in body
        for sub in ast.walk(stmt)
    )


class SilentExceptionRule(Rule):
    """EXC001: engine code may not swallow exceptions silently."""

    id = "EXC001"
    severity = "error"
    title = "silent exception swallowing in engine code"
    rationale = (
        "the supervised executor turns failures into retries, metrics "
        "and quarantine rows; an except-pass in repro.engine drops the "
        "failure before the supervisor can count it.  Use "
        "contextlib.suppress(ExcType) for deliberately-ignorable "
        "errors, or report through repro.obs."
    )

    def check(self, index: SourceIndex) -> Iterator[Finding]:
        for file in index.target_files():
            if "tests" in file.path.parts:
                continue
            if not self._is_engine_module(file):
                continue
            for node in ast.walk(file.tree):
                if not isinstance(node, ast.ExceptHandler):
                    continue
                finding = self._check_handler(index, file, node)
                if finding is not None:
                    yield finding

    @staticmethod
    def _is_engine_module(file: SourceFile) -> bool:
        module = file.module
        return module == _ENGINE_PREFIX or module.startswith(
            _ENGINE_PREFIX + "."
        )

    def _check_handler(
        self, index: SourceIndex, file: SourceFile, node: ast.ExceptHandler
    ) -> Finding | None:
        if _is_silent_body(node.body):
            caught = (
                ast.unparse(node.type) if node.type is not None else "all"
            )
            return self.finding(
                index, file, node,
                f"exception handler for {caught} swallows the error "
                f"silently (body does nothing)",
                hint=(
                    "use contextlib.suppress(ExcType) to make the "
                    "ignore explicit, or record the failure (obs.event, "
                    "a metric, a retry/quarantine path) before moving on"
                ),
            )
        if node.type is None and not _reraises(node.body):
            return self.finding(
                index, file, node,
                "bare except: catches KeyboardInterrupt/SystemExit and "
                "does not re-raise",
                hint=(
                    "name the exception types being handled (except "
                    "Exception at the broadest), or re-raise after "
                    "cleanup"
                ),
            )
        return None
