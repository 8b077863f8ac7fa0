"""Report containers shared by the property checkers and literal-clause suites."""

from __future__ import annotations

from .elements import _Frozen, _set, format_element

PASS = "PASS"
FAIL_LITERAL = "FAIL-LITERAL"


class AxiomResult(_Frozen):
    """Outcome of one sampled axiom: pass count out of total, first counterexample."""

    __slots__ = ("name", "passed", "total", "counterexample")

    def __init__(
        self, name: str, passed: int, total: int, counterexample: str | None = None
    ) -> None:
        _set(self, "name", name)
        _set(self, "passed", passed)
        _set(self, "total", total)
        _set(self, "counterexample", counterexample)

    @property
    def ok(self) -> bool:
        return self.passed == self.total and self.counterexample is None

    def render(self) -> str:
        line = f"axiom={self.name} pass={self.passed}/{self.total}"
        if self.counterexample is not None:
            line += f" counterexample={self.counterexample}"
        return line


class CheckReport(_Frozen):
    __slots__ = ("results",)

    def __init__(self, results: tuple[AxiomResult, ...]) -> None:
        _set(self, "results", results)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        return "\n".join(r.render() for r in self.results)

    def to_flat_dict(self) -> dict:
        out: dict = {}
        for r in self.results:
            out[f"{r.name}.pass"] = str(r.passed)
            out[f"{r.name}.total"] = str(r.total)
            if r.counterexample is not None:
                out[f"{r.name}.counterexample"] = r.counterexample
        out["ok"] = self.ok
        return out


class ClauseStatus(_Frozen):
    """Verdict for one clause of a literal-semantics suite."""

    __slots__ = ("clause", "status", "witness")

    def __init__(self, clause: str, status: str, witness: str | None = None) -> None:
        _set(self, "clause", clause)
        _set(self, "status", status)
        _set(self, "witness", witness)

    @property
    def ok(self) -> bool:
        return self.status == PASS

    def render(self) -> str:
        line = f"clause={self.clause} status={self.status}"
        if self.witness is not None:
            line += f" witness={self.witness}"
        return line


class StatusReport(_Frozen):
    __slots__ = ("clauses",)

    def __init__(self, clauses: tuple[ClauseStatus, ...]) -> None:
        _set(self, "clauses", clauses)

    @property
    def all_pass(self) -> bool:
        return all(c.ok for c in self.clauses)

    def status_map(self) -> dict:
        return {c.clause: c.status for c in self.clauses}

    def render(self) -> str:
        return "\n".join(c.render() for c in self.clauses)

    def to_flat_dict(self) -> dict:
        out: dict = {}
        for c in self.clauses:
            out[f"{c.clause}.status"] = c.status
            if c.witness is not None:
                out[f"{c.clause}.witness"] = c.witness
        out["all_pass"] = self.all_pass
        return out


class _Tally:
    """Pass count, total and first counterexample of one sampled law or clause.

    ``check(holds, witness, *case)`` counts one case; ``witness(*case)``
    formats the case, and runs only for the first case that fails.
    """

    __slots__ = ("name", "passed", "failed", "first")

    def __init__(self, name: str) -> None:
        self.name = name
        self.passed = self.failed = 0
        self.first = None

    def check(self, holds: bool, witness, *case) -> None:
        if holds:
            self.passed += 1
        else:
            if self.first is None:
                self.first = witness(*case)
            self.failed += 1

    def axiom(self) -> AxiomResult:
        return AxiomResult(self.name, self.passed, self.passed + self.failed, self.first)

    def clause(self, failures) -> ClauseStatus:
        """The verdict of a literal clause.  ``failures`` yields the samples
        that break it; only the first is drawn, and it is the witness."""
        x = next(failures, None)
        if x is not None:
            self.check(False, format_element, x)
        return ClauseStatus(self.name, PASS if self.first is None else FAIL_LITERAL, self.first)
