"""TAINT-SQL: untrusted strings must not reach SQL execution unguarded.

Whole-program taint analysis over the conservative call graph in
:mod:`repro.analysis.graph`:

* **Sources** — every function defined in the modules that parse
  external input (HTTP request bodies, cluster IPC frames) or produce
  model output (the decoder — generated SQL is untrusted by
  construction), plus any function carrying a verified
  ``# taint: source`` annotation (used where a queue or thread hand-off
  breaks the static call chain).  Direct *callers* of a source are also
  tainted: the caller receives the untrusted return value.

* **Propagation** — taint flows from a tainted function to every
  project function it may call, transitively.  It does **not** flow
  through a *verified* sanitizer or trusted function (see below).

* **Sinks** — any ``*.execute(...)`` / ``*.executemany(...)`` /
  ``*.executescript(...)`` call whose first argument is not a plain
  string constant.  A sink inside a tainted function is a violation.

* **Annotations** — ``# taint:`` comments quiet the rule, but every
  annotation is *verified* against the AST rather than trusted:

  - ``# taint: sanitizer via <callee> (reason)`` on a ``def`` declares
    the function a taint barrier *because it calls* ``<callee>`` (or
    raises, for ``via raise``).  Verified iff the body really contains
    that call / a ``raise``.  A verified sanitizer's own sinks are
    considered guarded and taint does not propagate past it.  Delete
    the guarding call and the annotation fails verification — the
    barrier collapses and every downstream sink lights up (this is the
    mutation check in ``tests/test_analysis_program.py``).

  - ``# taint: trusted (reason)`` on a ``def`` declares that the
    function builds its SQL from schema metadata, not from its inputs.
    Verified iff no sink's first argument contains a bare parameter of
    the function (attribute projections like ``column.name`` and
    numeric coercions like ``int(limit)`` are allowed; assignments are
    followed so ``sql = param`` does not dodge the check).

  - ``# taint: sink (reason)`` on a sink call line marks an accepted,
    reviewed sink (e.g. the offline evaluation harness).  Verified iff
    the line really holds a sink call, a reason is given, and the file
    is not itself a source module.

  - ``# taint: source (reason)`` on a ``def`` adds a source seed.

  Unverified or unparseable annotations are themselves violations.
"""

from __future__ import annotations

import ast
from collections import deque

from repro.analysis.core import Rule, Violation
from repro.analysis.graph import FunctionInfo, ProjectContext

#: Modules whose every function is a taint source (parse external bytes
#: or emit generated SQL).
SOURCE_MODULES = {
    "repro.serving.routes",
    "repro.serving.http",
    "repro.cluster.protocol",
    "repro.model.valuenet",
}

_SINK_ATTRS = {"execute", "executemany", "executescript"}

#: Pure numeric/size coercions: a parameter passed through these cannot
#: smuggle SQL text into the statement.
_COERCIONS = {"int", "float", "bool", "len"}


def _sink_calls(fn: FunctionInfo) -> list[ast.Call]:
    """Sink-shaped calls in ``fn`` whose SQL argument is not a constant."""
    sinks = []
    for call in fn.calls:
        func = call.func
        if not (isinstance(func, ast.Attribute) and func.attr in _SINK_ATTRS):
            continue
        if not call.args:
            continue
        first = call.args[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            continue
        sinks.append(call)
    return sinks


class TaintSqlRule(Rule):
    name = "TAINT-SQL"
    description = (
        "untrusted input (HTTP, IPC, model output) must pass a verified "
        "sanitizer before reaching SQL execution"
    )
    requires_project = True

    def check_project(self, project: ProjectContext) -> list[Violation]:
        violations: list[Violation] = []
        barriers: set[str] = set()   # fids whose sinks are guarded
        sources: set[str] = set()

        # --- 1. verify every annotation; collect barriers and sources.
        for fn in project.functions.values():
            ann = fn.annotation
            if ann is None:
                if fn.module in SOURCE_MODULES:
                    sources.add(fn.fid)
                continue
            if not ann.reason:
                violations.append(self._violation(
                    fn.ctx, ann.line,
                    f"`# taint: {ann.kind}` annotation without a reason — "
                    f"write `# taint: {ann.kind} (why)`",
                ))
            if ann.kind == "source":
                sources.add(fn.fid)
            elif ann.kind == "sanitizer":
                if self._sanitizer_verified(fn, ann.via):
                    barriers.add(fn.fid)
                else:
                    violations.append(self._violation(
                        fn.ctx, fn.line,
                        f"sanitizer annotation on {fn.qualname!r} not "
                        f"verified: no "
                        + ("`raise` found in the body"
                           if ann.via == "raise"
                           else f"call to {ann.via!r} found in the body")
                        + " — the declared barrier does not exist",
                    ))
            elif ann.kind == "trusted":
                bad = self._trusted_offender(fn)
                if bad is None:
                    barriers.add(fn.fid)
                else:
                    line, param = bad
                    violations.append(self._violation(
                        fn.ctx, line,
                        f"trusted annotation on {fn.qualname!r} not "
                        f"verified: parameter {param!r} flows into the "
                        f"SQL argument of a sink call",
                    ))
            elif ann.kind == "sink":
                violations.append(self._violation(
                    fn.ctx, ann.line,
                    "`# taint: sink` belongs on the sink call line, not "
                    "on a `def`",
                ))
            if fn.module in SOURCE_MODULES:
                sources.add(fn.fid)

        # --- 2. taint closure: sources, their direct callers, then
        #        everything reachable callee-wards — stopping at barriers.
        #        Sink-shaped calls (``*.execute(...)``) never propagate
        #        taint through name matching: they are judged at the
        #        call site in pass 3, and letting ``connection.execute``
        #        on a raw sqlite3 connection taint every project method
        #        named ``execute`` would only manufacture noise.
        def propagating_callees(fn: FunctionInfo, call: ast.Call):
            func = call.func
            if isinstance(func, ast.Attribute) and func.attr in _SINK_ATTRS:
                return []
            return project.resolve_call(call, fn.module)

        tainted = set(sources)
        for fn in project.functions.values():
            for call in fn.calls:
                if any(
                    callee.fid in sources
                    for callee in propagating_callees(fn, call)
                ):
                    tainted.add(fn.fid)
        queue = deque(tainted - barriers)
        while queue:
            fid = queue.popleft()
            fn = project.functions[fid]
            for call in fn.calls:
                for callee in propagating_callees(fn, call):
                    if callee.fid in tainted:
                        continue
                    tainted.add(callee.fid)
                    if callee.fid not in barriers:
                        queue.append(callee.fid)

        # --- 3. sinks inside tainted, unguarded functions.
        used_sink_lines: set[tuple[str, int]] = set()
        for fn in project.functions.values():
            for call in _sink_calls(fn):
                key = (fn.path, call.lineno)
                ann = project.line_annotations.get(key)
                if ann is not None and ann.kind == "sink":
                    used_sink_lines.add(key)
                    if not ann.reason:
                        violations.append(self._violation(
                            fn.ctx, call.lineno,
                            "`# taint: sink` without a reason — write "
                            "`# taint: sink (why this sink is accepted)`",
                        ))
                    elif fn.module in SOURCE_MODULES:
                        violations.append(self._violation(
                            fn.ctx, call.lineno,
                            "`# taint: sink` is not allowed inside a "
                            "source module — move SQL execution out of "
                            f"{fn.module}",
                        ))
                    continue
                if fn.fid in tainted and fn.fid not in barriers:
                    violations.append(self._violation(
                        fn.ctx, call.lineno,
                        f"tainted SQL reaches {ast.unparse(call.func)}() in "
                        f"{fn.qualname!r} without passing a verified "
                        f"sanitizer (PolicyEngine.check / "
                        f"execute_with_budget) — route it through the "
                        f"budgeted executor or annotate and justify",
                    ))

        # --- 4. stale sink annotations: marked lines with no sink call.
        for (path, line), ann in project.line_annotations.items():
            if ann.kind != "sink" or (path, line) in used_sink_lines:
                continue
            ctx = project.contexts.get(path)
            if ctx is None:
                continue
            # Line annotations on defs were consumed in pass 1.
            if any(
                fn.annotation is not None and fn.annotation.line == line
                for fn in project.functions_in_path(path)
            ):
                continue
            violations.append(self._violation(
                ctx, line,
                "stale `# taint: sink` annotation: no SQL execution call "
                "on this line",
            ))
        return violations

    # ------------------------------------------------------- verification

    @staticmethod
    def _sanitizer_verified(fn: FunctionInfo, via: str | None) -> bool:
        if via is None:
            return False
        if via == "raise":
            return any(
                isinstance(node, ast.Raise) for node in ast.walk(fn.node)
            )
        for call in fn.calls:
            func = call.func
            if isinstance(func, ast.Name) and func.id == via:
                return True
            if isinstance(func, ast.Attribute) and func.attr == via:
                return True
        return False

    @staticmethod
    def _trusted_offender(fn: FunctionInfo) -> tuple[int, str] | None:
        """(line, param) of a parameter leaking into a sink, else None."""
        params = set(fn.params()) - {"self", "cls"}
        # local name -> the parameter it (transitively) leaks.
        leaked: dict[str, str] = {}

        def offenders(expr: ast.AST) -> set[str]:
            """Parameters whose *text* could reach ``expr``'s value.

            Attribute projections (``column.name``), call targets, and
            arguments to pure numeric coercions (``int(limit)``) derive
            *from* the parameter but cannot carry its text — skip them.
            Locals already known to leak a parameter count as that
            parameter.
            """
            found: set[str] = set()
            skip: set[ast.AST] = set()
            for node in ast.walk(expr):
                if node in skip:
                    continue
                if isinstance(node, ast.Attribute):
                    for inner in ast.walk(node.value):
                        skip.add(inner)
                elif isinstance(node, ast.Call):
                    for inner in ast.walk(node.func):
                        skip.add(inner)
                    if (
                        isinstance(node.func, ast.Name)
                        and node.func.id in _COERCIONS
                    ):
                        for arg in node.args:
                            for inner in ast.walk(arg):
                                skip.add(inner)
                elif isinstance(node, ast.Name):
                    if node.id in params:
                        found.add(node.id)
                    elif node.id in leaked:
                        found.add(leaked[node.id])
            return found

        # Fixpoint over assignments: ``sql = param`` (or any chain of
        # renames/concatenations) marks the local as leaking.
        changed = True
        while changed:
            changed = False
            for node in ast.walk(fn.node):
                if not isinstance(node, (ast.Assign, ast.AugAssign)):
                    continue
                names = offenders(node.value)
                if not names:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name) and target.id not in leaked:
                        leaked[target.id] = sorted(names)[0]
                        changed = True

        for call in _sink_calls(fn):
            bad = offenders(call.args[0])
            if bad:
                return call.lineno, sorted(bad)[0]
        return None

    def _violation(self, ctx, line: int, message: str) -> Violation:
        return Violation(
            rule=self.name,
            path=ctx.logical_path,
            line=line,
            message=message,
            source_line=ctx.source_line(line),
        )
