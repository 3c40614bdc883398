"""WALLCLOCK: `time.time()` is banned; deadlines use the monotonic clock.

Wall-clock time jumps (NTP steps, suspend/resume), and a deadline
computed from it can fire years early or never.  Every duration or
deadline in this codebase is `time.monotonic()` / `time.perf_counter()`
arithmetic.  The only legitimate `time.time()` sites are epoch
*display* values (e.g. a `started_at` timestamp shown to humans) —
each carries a `# lint: disable=WALLCLOCK (reason)` comment at the
site, so any new unexplained call site fails the build.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, Violation


class WallclockRule(Rule):
    name = "WALLCLOCK"
    description = (
        "no `time.time()` — deadlines and durations must use the "
        "monotonic clock; an epoch-display site carries a "
        "`# lint: disable=WALLCLOCK (reason)` comment"
    )

    def check_file(self, ctx: FileContext) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr == "time"
                and isinstance(func.value, ast.Name)
                and func.value.id == "time"
            ):
                violations.append(
                    Violation(
                        rule=self.name,
                        path=ctx.logical_path,
                        line=node.lineno,
                        message=(
                            "`time.time()` call — use `time.monotonic()` for "
                            "deadlines/durations (epoch display needs a "
                            "`# lint: disable=WALLCLOCK (reason)` comment)"
                        ),
                        source_line=ctx.source_line(node.lineno),
                    )
                )
        return violations
