"""Import hygiene: no import cycles, and a serving process stays lean.

Every ``import repro.<module>`` first runs the package root, so a module
the root already loads is imported the same way whichever comes first.
``test_every_module_imports_first`` therefore imports the root once in a
fresh interpreter and forks one child per remaining module: each child
is exactly a fresh interpreter whose first ``repro`` import names that
module, which is where a cycle (``a`` imports ``b`` imports a
half-initialised ``a``) shows.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

FIRST_IMPORTS = textwrap.dedent("""
    import importlib, os, sys, traceback
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    names = sorted(
        ".".join(("repro", *path.relative_to(root).with_suffix("").parts))
        .removesuffix(".__init__")
        for path in root.rglob("*.py")
    )
    failed = []
    for name in names:
        if name in sys.modules:
            continue
        pid = os.fork()
        if pid == 0:
            try:
                importlib.import_module(name)
            except BaseException:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)
        if os.waitpid(pid, 0)[1]:
            failed.append(name)
    print("FAILED", failed)
""")

SERVE = textwrap.dedent("""
    import json, sqlite3, sys

    import repro.__main__  # what `python -m repro serve` loads first
    from repro.cluster.worker import ServingStack, WorkerSpec

    database, policy = sys.argv[1], sys.argv[2]
    connection = sqlite3.connect(database)
    connection.executescript(
        "CREATE TABLE student (stuid INTEGER PRIMARY KEY, name TEXT, home_country TEXT);"
        "CREATE TABLE pet (petid INTEGER PRIMARY KEY, pet_type TEXT);"
        "CREATE TABLE has_pet (stuid INTEGER REFERENCES student(stuid),"
        " petid INTEGER REFERENCES pet(petid));"
        "INSERT INTO student VALUES (1, 'Ann', 'France'), (2, 'Bo', 'Peru');"
        "INSERT INTO pet VALUES (1, 'dog');"
        "INSERT INTO has_pet VALUES (1, 1);"
    )
    connection.commit()
    connection.close()
    with open(policy, "w") as handle:
        json.dump({"version": 1, "default": {"read_only": True}}, handle)

    stack = ServingStack(WorkerSpec(
        worker_id=0, databases=(("pets", database),), shard=("pets",),
        threads=1, policy_path=policy,
    ))
    stack.service.translate("Which students are from France?", "pets", execute=True)
    stack.close(timeout=5.0)
    print(json.dumps(sorted(m for m in sys.argv[3:] if m in sys.modules)))
""")


def _python(code: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, env=env, timeout=300,
    )


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_every_module_imports_first():
    result = _python(FIRST_IMPORTS)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "FAILED []", result.stderr


def test_serving_stack_leaves_training_and_networkx_unloaded(tmp_path):
    watched = ["networkx", "repro.evaluation", "repro.model.training", "repro.spider"]
    result = _python(
        SERVE, str(tmp_path / "pets.sqlite"), str(tmp_path / "policy.json"), *watched
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout.strip().splitlines()[-1]) == []
