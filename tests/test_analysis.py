"""Fixture-snippet tests for the repro.analysis lint engine.

Each rule gets a pair: a snippet that must fire and a compliant twin
that must stay quiet.  Snippets are written under ``tmp_path/repro/...``
so the path-scoped rules (GRAD-SAFE on ``repro/nn/``, NO-PRINT's
scripts exemption) see the same logical paths as the real tree.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import analyze_paths
from repro.analysis.core import fingerprint_violations


def check_snippet(tmp_path: Path, relpath: str, source: str):
    """Write one snippet under a fake ``repro`` tree and analyze it."""
    target = tmp_path / "repro" / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(source)
    return analyze_paths([tmp_path])


def rules_fired(result) -> set[str]:
    return {violation.rule for violation in result.violations}


# ------------------------------------------------------------- LOCK-GUARD


def test_lock_guard_fires_on_unguarded_access(tmp_path):
    result = check_snippet(tmp_path, "serving/thing.py", """\
from repro.concurrency import make_lock

class Thing:
    def __init__(self):
        self._lock = make_lock("Thing._lock")
        self._items = []  # guarded by: _lock

    def broken(self):
        return len(self._items)
""")
    assert "LOCK-GUARD" in rules_fired(result)
    [violation] = [v for v in result.violations if v.rule == "LOCK-GUARD"]
    assert "_items" in violation.message


def test_lock_guard_quiet_when_access_is_inside_with(tmp_path):
    result = check_snippet(tmp_path, "serving/thing.py", """\
from repro.concurrency import make_lock

class Thing:
    def __init__(self):
        self._lock = make_lock("Thing._lock")
        self._items = []  # guarded by: _lock

    def fine(self):
        with self._lock:
            return len(self._items)
""")
    assert "LOCK-GUARD" not in rules_fired(result)


def test_lock_guard_locked_suffix_functions_exempt(tmp_path):
    result = check_snippet(tmp_path, "serving/thing.py", """\
from repro.concurrency import make_lock

class Thing:
    def __init__(self):
        self._lock = make_lock("Thing._lock")
        self._items = []  # guarded by: _lock

    def _count_locked(self):
        return len(self._items)
""")
    assert "LOCK-GUARD" not in rules_fired(result)


def test_lock_guard_module_level_name(tmp_path):
    result = check_snippet(tmp_path, "serving/mod.py", """\
from repro.concurrency import make_lock

_registry = {}  # guarded by: _registry_lock
_registry_lock = make_lock("mod._registry_lock")

def broken():
    return _registry.get("x")

def fine():
    with _registry_lock:
        return _registry.get("x")
""")
    guard = [v for v in result.violations if v.rule == "LOCK-GUARD"]
    assert len(guard) == 1
    assert guard[0].line == 7


# -------------------------------------------------------------- WALLCLOCK


def test_wallclock_fires_on_time_time(tmp_path):
    result = check_snippet(tmp_path, "serving/clock.py", """\
import time

def stamp():
    return time.time()
""")
    assert "WALLCLOCK" in rules_fired(result)


def test_wallclock_quiet_on_monotonic(tmp_path):
    result = check_snippet(tmp_path, "serving/clock.py", """\
import time

def stamp():
    return time.monotonic() + time.perf_counter()
""")
    assert "WALLCLOCK" not in rules_fired(result)


# ------------------------------------------------------------ EXC-SWALLOW


def test_exc_swallow_fires_on_silent_broad_except(tmp_path):
    result = check_snippet(tmp_path, "serving/swallow.py", """\
def broken():
    try:
        risky()
    except Exception:
        pass
""")
    assert "EXC-SWALLOW" in rules_fired(result)


def test_exc_swallow_quiet_when_reraised(tmp_path):
    result = check_snippet(tmp_path, "serving/swallow.py", """\
def fine():
    try:
        risky()
    except Exception:
        cleanup()
        raise
""")
    assert "EXC-SWALLOW" not in rules_fired(result)


def test_exc_swallow_quiet_when_metric_recorded(tmp_path):
    result = check_snippet(tmp_path, "serving/swallow.py", """\
def fine(errors):
    try:
        risky()
    except Exception:
        errors.inc()
""")
    assert "EXC-SWALLOW" not in rules_fired(result)


def test_exc_swallow_quiet_with_justification(tmp_path):
    result = check_snippet(tmp_path, "serving/swallow.py", """\
def fine():
    try:
        risky()
    except Exception:  # justified: best-effort cleanup on shutdown
        pass
""")
    assert "EXC-SWALLOW" not in rules_fired(result)


def test_exc_swallow_ignores_narrow_except(tmp_path):
    result = check_snippet(tmp_path, "serving/swallow.py", """\
def fine():
    try:
        risky()
    except KeyError:
        pass
""")
    assert "EXC-SWALLOW" not in rules_fired(result)


# --------------------------------------------------------------- NO-PRINT


def test_no_print_fires_in_library_module(tmp_path):
    result = check_snippet(tmp_path, "serving/noisy.py", """\
def announce():
    print("hello")
""")
    assert "NO-PRINT" in rules_fired(result)


def test_no_print_quiet_in_main_and_scripts(tmp_path):
    for relpath in ("__main__.py", "scripts/tool.py"):
        result = check_snippet(tmp_path, relpath, """\
print("cli output is fine here")
""")
        assert "NO-PRINT" not in rules_fired(result), relpath


# -------------------------------------------------------------- GRAD-SAFE


def test_grad_safe_fires_on_ungated_backward(tmp_path):
    result = check_snippet(tmp_path, "nn/ops.py", """\
def add(a, b, out):
    def backward():
        a.grad += out.grad
    out._backward = backward
""")
    assert "GRAD-SAFE" in rules_fired(result)


def test_grad_safe_quiet_when_gated(tmp_path):
    result = check_snippet(tmp_path, "nn/ops.py", """\
def add(a, b, out, grad_enabled):
    def backward():
        a.grad += out.grad
    if a.requires_grad:
        out._backward = backward
""")
    assert "GRAD-SAFE" not in rules_fired(result)


def test_grad_safe_quiet_outside_nn(tmp_path):
    result = check_snippet(tmp_path, "serving/ops.py", """\
def attach(out, backward):
    out._backward = backward
""")
    assert "GRAD-SAFE" not in rules_fired(result)


@pytest.mark.parametrize("relpath, fires", [
    ("model/decoder.py", True),
    ("serving/runtime.py", True),
    ("model/training.py", False),
    ("nn/layers.py", False),
])
def test_grad_safe_flags_mode_flips_outside_the_trainer(tmp_path, relpath, fires):
    result = check_snippet(tmp_path, relpath, """\
def run(model, trainer, samples):
    trainer.train(samples)  # has arguments: not a mode flip
    model.eval()
""")
    assert ("GRAD-SAFE" in rules_fired(result)) == fires


# ------------------------------------------------------------ METRICS-REG


def test_metrics_reg_fires_on_kind_collision(tmp_path):
    result = check_snippet(tmp_path, "serving/m.py", """\
def setup(metrics):
    a = metrics.counter("requests_total")
    b = metrics.histogram("requests_total")
""")
    assert "METRICS-REG" in rules_fired(result)


def test_metrics_reg_fires_on_bad_counter_suffix(tmp_path):
    result = check_snippet(tmp_path, "serving/m.py", """\
def setup(metrics):
    a = metrics.counter("requests")
    b = metrics.gauge("depth_total")
""")
    assert len([v for v in result.violations if v.rule == "METRICS-REG"]) == 2


def test_metrics_reg_quiet_on_consistent_names(tmp_path):
    result = check_snippet(tmp_path, "serving/m.py", """\
def setup(metrics):
    a = metrics.counter("requests_total")
    b = metrics.counter("requests_total")
    c = metrics.histogram("latency_ms")
""")
    assert "METRICS-REG" not in rules_fired(result)


# ------------------------------------------------------------ suppression


def test_line_suppression_with_reason(tmp_path):
    result = check_snippet(tmp_path, "serving/sup.py", """\
import time

def stamp():
    return time.time()  # lint: disable=WALLCLOCK (epoch needed for display)
""")
    assert rules_fired(result) == set()


def test_suppression_without_reason_does_not_count(tmp_path):
    result = check_snippet(tmp_path, "serving/sup.py", """\
import time

def stamp():
    return time.time()  # lint: disable=WALLCLOCK
""")
    fired = rules_fired(result)
    # A reason-less disable is itself a violation AND does not suppress.
    assert "LINT-SUPPRESS" in fired
    assert "WALLCLOCK" in fired


def test_def_scope_suppression_covers_whole_function(tmp_path):
    result = check_snippet(tmp_path, "serving/sup.py", """\
import time

def stamps():  # lint: disable=WALLCLOCK (display timestamps)
    first = time.time()
    second = time.time()
    return first, second
""")
    assert rules_fired(result) == set()


def test_file_disable_covers_whole_file(tmp_path):
    result = check_snippet(tmp_path, "serving/sup.py", """\
# lint: file-disable=NO-PRINT (demo module)
print("one")

def f():
    print("two")
""")
    assert "NO-PRINT" not in rules_fired(result)


# ----------------------------------------------------------- fingerprints


def _two_violations(tmp_path):
    result = check_snippet(tmp_path, "serving/clock.py", """\
import time

def stamp():
    return time.time()

def stamp2():
    return time.time()
""")
    return [v for v in result.violations if v.rule == "WALLCLOCK"]


def test_identical_lines_get_distinct_fingerprints(tmp_path):
    violations = _two_violations(tmp_path)
    pairs = fingerprint_violations(violations)
    assert len({fp for _, fp in pairs}) == 2


# ------------------------------------------------------------- repo clean


def test_real_tree_has_no_violations():
    repo_root = Path(__file__).resolve().parents[1]
    result = analyze_paths([repo_root / "src" / "repro"])
    assert result.parse_errors == []
    assert result.violations == [], [v.render() for v in result.violations]
