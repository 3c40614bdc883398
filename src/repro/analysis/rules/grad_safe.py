"""GRAD-SAFE: backward closures must be gated on the grad flag.

Every op in :mod:`repro.nn` that assigns ``out._backward = backward``
captures its operand tensors in that closure.  Under
``inference_mode()`` the thread-local grad flag turns ``requires_grad``
off precisely so those closures are never allocated — a serving process
that leaks one per request grows without bound.  This rule checks that
each ``._backward = ...`` assignment is reachable only when
``requires_grad`` is known true, via any of the codebase's three
established idioms:

1. early-out guard earlier in the same function::

       if not out.requires_grad:
           return out
       out._backward = backward

2. an enclosing conditional::

       if out.requires_grad:
           out._backward = backward

3. a conditional expression::

       self._backward = backward if self.requires_grad else None

Scope of the closure check: files under ``repro/nn/`` only.

The rule also keeps inference mode-free: a zero-argument ``.train()`` /
``.eval()`` call flips the ``training`` bit of a model that serving
threads share, so one request's flip lands in the middle of another's
forward pass.  Stochastic layers already key off
``training and is_grad_enabled()``; the only legitimate flips are the
trainer's and ``Module``'s own recursion, so such a call anywhere else in
the tree is a violation.
"""

from __future__ import annotations

import ast

from repro.analysis.core import FileContext, Rule, Violation


def _mentions_requires_grad(node: ast.AST) -> bool:
    return any(
        isinstance(sub, ast.Attribute) and sub.attr == "requires_grad"
        for sub in ast.walk(node)
    )


def _guarded_by_early_out(ctx: FileContext, assign: ast.Assign) -> bool:
    func = ctx.enclosing_function(assign)
    if func is None:
        return False
    for stmt in ast.walk(func):
        if not isinstance(stmt, ast.If) or stmt.lineno >= assign.lineno:
            continue
        if not _mentions_requires_grad(stmt.test):
            continue
        if any(
            isinstance(s, (ast.Return, ast.Raise))
            for body_stmt in stmt.body
            for s in ast.walk(body_stmt)
        ):
            return True
    return False


def _guarded_by_enclosing_if(ctx: FileContext, assign: ast.Assign) -> bool:
    for anc in ctx.ancestors(assign):
        if isinstance(anc, ast.If) and _mentions_requires_grad(anc.test):
            return True
        if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return False


#: The only files that may flip a module's train/eval mode.
_MODE_FLIP_ALLOWED = {"repro/model/training.py", "repro/nn/layers.py"}


def _is_mode_flip(node: ast.AST) -> bool:
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("train", "eval")
        and not node.args
        and not node.keywords
    )


class GradSafeRule(Rule):
    name = "GRAD-SAFE"
    description = (
        "every repro.nn op that allocates a backward closure must gate "
        "on the thread-local grad flag (`requires_grad`), and only the "
        "trainer may flip a module's train/eval mode"
    )

    def check_file(self, ctx: FileContext) -> list[Violation]:
        in_nn = ctx.logical_path.startswith("repro/nn/")
        flips_allowed = ctx.logical_path in _MODE_FLIP_ALLOWED
        violations: list[Violation] = []
        for node in ast.walk(ctx.tree):
            if not flips_allowed and _is_mode_flip(node):
                violations.append(
                    Violation(
                        rule=self.name,
                        path=ctx.logical_path,
                        line=node.lineno,
                        message=(
                            f"`.{node.func.attr}()` flips the shared model's "
                            "mode outside the trainer — inference must stay "
                            "mode-free"
                        ),
                        source_line=ctx.source_line(node.lineno),
                    )
                )
            if not in_nn or not isinstance(node, ast.Assign):
                continue
            if not any(
                isinstance(t, ast.Attribute) and t.attr == "_backward"
                for t in node.targets
            ):
                continue
            if isinstance(node.value, ast.IfExp) and _mentions_requires_grad(
                node.value.test
            ):
                continue
            if _guarded_by_enclosing_if(ctx, node):
                continue
            if _guarded_by_early_out(ctx, node):
                continue
            violations.append(
                Violation(
                    rule=self.name,
                    path=ctx.logical_path,
                    line=node.lineno,
                    message=(
                        "`._backward` assigned without a `requires_grad` "
                        "gate — closure leaks under inference_mode()"
                    ),
                    source_line=ctx.source_line(node.lineno),
                )
            )
        return violations
