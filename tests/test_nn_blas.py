"""Importing repro.nn runs OpenBLAS on one thread, whatever the import order.

Each case runs in a fresh interpreter, because the cap is process state.
The child reports every loaded OpenBLAS's count through the library's own
``get_num_threads`` entry, so a renamed entry fails here (its count is
``None``) rather than skipping.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)
BLAS_SETTINGS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")

REPORT = """
import json
from repro.nn.blas import blas_threads
print(json.dumps(blas_threads()))
"""

FORKED_REPORT = """
import json
import multiprocessing

import numpy

from repro.nn.blas import blas_threads


def child(queue):
    numpy.ones((256, 256)) @ numpy.ones((256, 256))
    queue.put(blas_threads())


context = multiprocessing.get_context("fork")
queue = context.Queue()
process = context.Process(target=child, args=(queue,))
process.start()
print(json.dumps(queue.get(timeout=60)))
process.join(timeout=60)
assert process.exitcode == 0, process.exitcode
"""


def thread_counts(script: str, **settings: str) -> list[int | None]:
    """Each loaded OpenBLAS's thread count, as ``script`` prints it."""
    env = {k: v for k, v in os.environ.items() if k not in BLAS_SETTINGS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    env.update(settings)
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    counts = json.loads(done.stdout.splitlines()[-1])
    if not counts:
        pytest.skip(
            "no OpenBLAS loaded: numpy runs on another BLAS, "
            "or the platform has no /proc/self/maps"
        )
    return list(counts.values())


def test_numpy_imported_first_still_runs_one_thread():
    counts = thread_counts("import numpy\nimport repro.nn\n" + REPORT)
    assert counts == [1] * len(counts)


@pytest.mark.parametrize("setting", BLAS_SETTINGS)
def test_an_explicit_blas_setting_is_left_alone(setting):
    counts = thread_counts("import numpy\nimport repro.nn\n" + REPORT, **{setting: "2"})
    # OpenBLAS never runs more threads than the process may use.
    assert counts == [min(2, len(os.sched_getaffinity(0)))] * len(counts)


def test_a_forked_child_runs_one_thread():
    counts = thread_counts(FORKED_REPORT)
    assert counts == [1] * len(counts)
