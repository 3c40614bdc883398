"""Shared datatypes for the lint engine: violations, rules, file context.

Both the engine and the rule modules import from here, so this module
must stay dependency-free (stdlib only) and must not import either of
them.
"""

from __future__ import annotations

import ast
import hashlib
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path

# ``# lint: disable=LOCK-GUARD,NO-PRINT (reason why)`` on a statement,
# def, or class line suppresses those rules for that line / that scope.
_DISABLE_RE = re.compile(
    r"#\s*lint:\s*(?P<kind>file-disable|disable)=(?P<rules>[A-Z0-9,\- ]+)"
    r"(?:\s*\((?P<reason>[^)]*)\))?"
)
# ``# justified: reason`` on an ``except`` line satisfies EXC-SWALLOW.
_JUSTIFIED_RE = re.compile(r"justified:\s*(?P<reason>\S.*)")

#: Rule name reserved for engine-level problems with suppression
#: comments themselves (e.g. a disable without a reason).
SUPPRESSION_RULE = "LINT-SUPPRESS"


@dataclass(frozen=True)
class Violation:
    """One finding: a named rule fired at a specific line of a file."""

    rule: str
    path: str  # logical path, e.g. "repro/serving/service.py"
    line: int
    message: str
    source_line: str = ""

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule}: {self.message}"


def fingerprint_violations(violations: list[Violation]) -> list[tuple[Violation, str]]:
    """Pair each violation with a content fingerprint for reports.

    ``sha1(rule | logical path | stripped source line | occurrence
    index)`` survives line-number drift; the occurrence index
    disambiguates identical lines within one file (e.g. two
    ``time.time()`` calls on textually equal lines).
    """
    seen: dict[tuple[str, str, str], int] = {}
    out: list[tuple[Violation, str]] = []
    for v in violations:
        key = (v.rule, v.path, v.source_line)
        index = seen.get(key, 0)
        seen[key] = index + 1
        raw = f"{v.rule}|{v.path}|{v.source_line}|{index}"
        out.append((v, hashlib.sha1(raw.encode("utf-8")).hexdigest()[:16]))
    return out


@dataclass(frozen=True)
class Suppression:
    """A parsed ``lint: disable`` comment covering a line range."""

    rules: tuple[str, ...]
    start: int
    end: int
    reason: str


class Rule:
    """Base class for lint rules.

    ``check_file`` runs once per file; ``finalize`` runs after every
    file has been seen and is where cross-file rules (METRICS-REG)
    report.  Whole-program rules set ``requires_project`` and implement
    ``check_project`` instead — the engine builds one shared
    :class:`~repro.analysis.graph.ProjectContext` from the already
    parsed files and hands the same instance to each of them.  Rule
    instances are created fresh for every engine run, so they may
    accumulate state across ``check_file`` calls.
    """

    name: str = ""
    description: str = ""
    #: Set True for whole-program rules; the engine then calls
    #: ``check_project`` once with the shared project graph.
    requires_project: bool = False

    def check_file(self, ctx: "FileContext") -> list[Violation]:
        return []

    def check_project(self, project) -> list[Violation]:
        return []

    def finalize(self) -> list[Violation]:
        return []


class FileContext:
    """Parsed view of one source file handed to every rule.

    Builds the AST, a child→parent map, the per-line comment table
    (via :mod:`tokenize`, so strings containing ``#`` are not
    misread), and the suppression ranges.
    """

    def __init__(self, path: Path, logical_path: str, source: str):
        self.path = path
        self.logical_path = logical_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent
        self.comments = self._collect_comments(source)
        self.suppressions: list[Suppression] = []
        self.suppression_problems: list[Violation] = []
        self._collect_suppressions()

    # ------------------------------------------------------------ comments

    @staticmethod
    def _collect_comments(source: str) -> dict[int, str]:
        comments: dict[int, str] = {}
        try:
            tokens = tokenize.generate_tokens(io.StringIO(source).readline)
            for tok in tokens:
                if tok.type == tokenize.COMMENT:
                    comments[tok.start[0]] = tok.string
        except tokenize.TokenError:
            pass  # unterminated source: lint what the AST could parse
        return comments

    def comment_on(self, line: int) -> str:
        return self.comments.get(line, "")

    def justification_on(self, line: int) -> str | None:
        match = _JUSTIFIED_RE.search(self.comment_on(line))
        return match.group("reason").strip() if match else None

    # -------------------------------------------------------- suppressions

    def _scope_end(self, line: int) -> int:
        """End line of the def/class starting at ``line`` (else ``line``)."""
        for node in ast.walk(self.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.lineno == line
            ):
                return node.end_lineno or line
        return line

    def _collect_suppressions(self) -> None:
        for line, comment in sorted(self.comments.items()):
            match = _DISABLE_RE.search(comment)
            if match is None:
                continue
            rules = tuple(
                r.strip() for r in match.group("rules").split(",") if r.strip()
            )
            reason = (match.group("reason") or "").strip()
            if not reason:
                self.suppression_problems.append(
                    Violation(
                        rule=SUPPRESSION_RULE,
                        path=self.logical_path,
                        line=line,
                        message=(
                            "suppression without a justification — write "
                            "`# lint: disable=RULE (reason)`"
                        ),
                        source_line=self.source_line(line),
                    )
                )
                continue
            if match.group("kind") == "file-disable":
                start, end = 1, max(1, len(self.lines))
            else:
                start, end = line, self._scope_end(line)
            self.suppressions.append(
                Suppression(rules=rules, start=start, end=end, reason=reason)
            )

    def is_suppressed(self, rule: str, line: int) -> bool:
        return any(
            rule in s.rules and s.start <= line <= s.end for s in self.suppressions
        )

    # ------------------------------------------------------------- helpers

    def source_line(self, line: int) -> str:
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1].strip()
        return ""

    def ancestors(self, node: ast.AST):
        """Yield ancestors from the immediate parent up to the module."""
        current = self.parents.get(node)
        while current is not None:
            yield current
            current = self.parents.get(current)

    def enclosing_function(self, node: ast.AST) -> ast.AST | None:
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None
