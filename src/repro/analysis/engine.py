"""The lint engine: file discovery, rule dispatch, suppression filtering.

Keeps zero policy of its own — every check lives in
:mod:`repro.analysis.rules`; every justified exemption is a
``# lint: disable=RULE (reason)`` comment at the site.  The engine walks
the files, builds one :class:`~repro.analysis.core.FileContext` each
(each file is read and parsed exactly once per run — the per-file rules,
the whole-program rules, and the suppression table all share the same
AST), runs every registered rule, filters suppressed findings, and
returns the rest sorted by location.

Whole-program rules (``requires_project = True``) additionally receive a
single shared :class:`~repro.analysis.graph.ProjectContext` built from
those same parsed trees.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.core import FileContext, Rule, Violation

#: Directories never worth linting.
_SKIP_DIRS = {"__pycache__", ".git", ".hypothesis", ".pytest_cache"}


def iter_python_files(paths: list[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: set[Path] = set()
    for path in paths:
        if path.is_file() and path.suffix == ".py":
            found.add(path.resolve())
        elif path.is_dir():
            for candidate in path.rglob("*.py"):
                if not any(part in _SKIP_DIRS for part in candidate.parts):
                    found.add(candidate.resolve())
    return sorted(found)


def logical_path(path: Path) -> str:
    """Stable repo-relative identifier for reports and fingerprints.

    Anchored at the rightmost ``repro`` path component so the same file
    fingerprints identically from any checkout location (and so test
    fixtures placed under ``tmp/.../repro/...`` exercise scoped rules
    like GRAD-SAFE).
    """
    parts = path.parts
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            return "/".join(parts[i:])
    return path.name


@dataclass
class AnalysisResult:
    violations: list[Violation]
    files_checked: int
    parse_errors: list[str]
    #: How many source files were actually fed to ``ast.parse`` — the
    #: parse-once guarantee test asserts this equals ``files_checked``
    #: even with every per-file AND whole-program rule enabled.
    files_parsed: int = 0
    #: logical path -> real filesystem path (for ``--format github``).
    real_paths: dict[str, Path] = field(default_factory=dict)


def analyze_paths(
    paths: list[Path], rules: list[Rule] | None = None
) -> AnalysisResult:
    """Run ``rules`` (default: the full registry) over ``paths``."""
    if rules is None:
        from repro.analysis.rules import all_rules

        rules = all_rules()

    contexts: dict[str, FileContext] = {}
    real_paths: dict[str, Path] = {}
    violations: list[Violation] = []
    parse_errors: list[str] = []

    files = iter_python_files(paths)
    for path in files:
        try:
            source = path.read_text(encoding="utf-8")
            ctx = FileContext(path, logical_path(path), source)
        except (OSError, SyntaxError, ValueError) as exc:
            parse_errors.append(f"{path}: {exc}")
            continue
        contexts[ctx.logical_path] = ctx
        real_paths[ctx.logical_path] = path
        violations.extend(ctx.suppression_problems)
        for rule in rules:
            violations.extend(rule.check_file(ctx))

    if any(rule.requires_project for rule in rules):
        from repro.analysis.graph import ProjectContext

        project = ProjectContext(contexts)
        for rule in rules:
            if rule.requires_project:
                violations.extend(rule.check_project(project))

    for rule in rules:
        violations.extend(rule.finalize())

    kept = [
        v
        for v in violations
        if not (
            v.path in contexts and contexts[v.path].is_suppressed(v.rule, v.line)
        )
    ]
    kept.sort(key=lambda v: (v.path, v.line, v.rule))
    return AnalysisResult(
        violations=kept,
        files_checked=len(files),
        parse_errors=parse_errors,
        files_parsed=len(contexts),
        real_paths=real_paths,
    )
