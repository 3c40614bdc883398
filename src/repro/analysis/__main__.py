"""CLI for the lint engine: ``python -m repro.analysis``.

Exit codes: 0 clean, 1 findings (violations or parse errors), 2 usage
error.  A finding is exempted only in the source, by a
``# lint: disable=RULE (reason)`` comment.  All terminal output in
the analysis package lives here — the engine and rules return data.

``--format`` selects the report shape: ``text`` (default, human),
``json`` (one machine-readable document on stdout), or ``github``
(GitHub Actions ``::error`` workflow commands, so findings annotate the
PR diff directly).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from repro.analysis.core import Violation, fingerprint_violations
from repro.analysis.engine import AnalysisResult, analyze_paths
from repro.analysis.rules import rule_catalog

_PACKAGE_ROOT = Path(__file__).resolve().parents[1]  # src/repro
_REPO_ROOT = Path(__file__).resolve().parents[3]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Project-invariant lint engine (see docs/analysis-rules.md).",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help=f"files or directories to lint (default: {_PACKAGE_ROOT})",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json", "github"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule catalog and exit"
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for name, description in rule_catalog():
            print(f"{name:12s} {description}")
        return 0

    paths = args.paths or [_PACKAGE_ROOT]
    result = analyze_paths(paths)

    failed = bool(result.violations or result.parse_errors)

    if args.format == "json":
        _report_json(result, failed)
    elif args.format == "github":
        _report_github(result)
    else:
        _report_text(result, failed)
    return 1 if failed else 0


def _report_text(result, failed: bool) -> None:
    for err in result.parse_errors:
        print(f"parse error: {err}", file=sys.stderr)
    if result.violations:
        print(f"{len(result.violations)} violation(s):")
        for violation in result.violations:
            print(f"  {violation.render()}")
            if violation.source_line:
                print(f"      {violation.source_line}")
    if not failed:
        print(
            f"clean: {result.files_checked} files, {len(rule_catalog())} rules"
        )


def _report_json(result, failed: bool) -> None:
    document = {
        "ok": not failed,
        "files_checked": result.files_checked,
        "rules": [name for name, _ in rule_catalog()],
        "violations": [
            {
                "rule": v.rule,
                "path": v.path,
                "line": v.line,
                "message": v.message,
                "source_line": v.source_line,
                "fingerprint": fingerprint,
            }
            for v, fingerprint in fingerprint_violations(result.violations)
        ],
        "parse_errors": result.parse_errors,
    }
    json.dump(document, sys.stdout, indent=2)
    print()


def _github_path(result: AnalysisResult, violation: Violation) -> str:
    """Repo-relative real path for workflow annotations.

    Falls back to the logical path when the file lives outside the
    repository checkout (e.g. test fixtures under ``/tmp``).
    """
    real = result.real_paths.get(violation.path)
    if real is not None:
        try:
            return real.resolve().relative_to(_REPO_ROOT).as_posix()
        except ValueError:
            pass
    return violation.path


def _report_github(result: AnalysisResult) -> None:
    for violation in result.violations:
        path = _github_path(result, violation)
        print(
            f"::error file={path},line={violation.line},"
            f"title={violation.rule}::{violation.message}"
        )
    for err in result.parse_errors:
        print(f"::error title=parse-error::{err}")


if __name__ == "__main__":
    raise SystemExit(main())
