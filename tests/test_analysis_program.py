"""Tests for the whole-program analyses: TAINT-SQL, LAYERING,
DEADLINE-PROP.

Same fixture-snippet style as ``test_analysis.py`` — each rule gets
firing snippets and compliant quiet twins — plus the two guarantees
that only make sense against the real tree: the mutation checks (delete
the policy gate from an execution path and TAINT-SQL must fail) and the
parse-once/time-budget check for the shared-AST engine.
"""

from __future__ import annotations

import ast
import json
import shutil
import sqlite3
import time
from pathlib import Path

from repro.analysis import analyze_paths
from repro.analysis.graph import ProjectContext, module_name
from repro.analysis.rules.layering import _parse_layers_fallback, parse_layers_toml
from repro.analysis.__main__ import main as analysis_main

REPO_ROOT = Path(__file__).resolve().parents[1]
REAL_TREE = REPO_ROOT / "src" / "repro"


def write_tree(tmp_path: Path, files: dict[str, str]) -> Path:
    """Write snippet files under ``tmp_path/repro/`` and return the root."""
    for relpath, source in files.items():
        target = tmp_path / "repro" / relpath
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source)
    return tmp_path


def check_tree(tmp_path: Path, files: dict[str, str]):
    return analyze_paths([write_tree(tmp_path, files)])


def fired(result, rule: str) -> list:
    return [v for v in result.violations if v.rule == rule]


# ------------------------------------------------------------ module graph


def test_module_names_from_logical_paths():
    assert module_name("repro/serving/routes.py") == "repro.serving.routes"
    assert module_name("repro/__init__.py") == "repro"
    assert module_name("repro/serving/__init__.py") == "repro.serving"


def test_import_graph_records_lazy_imports(tmp_path):
    write_tree(tmp_path, {
        "a.py": "import repro.b\n",
        "b.py": "def later():\n    from repro.a import x\n",
    })
    contexts = {}
    from repro.analysis.core import FileContext
    from repro.analysis.engine import iter_python_files, logical_path

    for path in iter_python_files([tmp_path]):
        ctx = FileContext(path, logical_path(path), path.read_text())
        contexts[ctx.logical_path] = ctx
    project = ProjectContext(contexts)
    by_edge = {(r.module, r.target): r for r in project.imports}
    assert by_edge[("repro.a", "repro.b")].lazy is False
    assert by_edge[("repro.b", "repro.a")].lazy is True


# --------------------------------------------------------------- TAINT-SQL

_SINK_MODULE_UNSANITIZED = """\
def run(sql):
    import sqlite3
    conn = sqlite3.connect(":memory:")
    return conn.execute(sql).fetchall()
"""

_SINK_MODULE_SANITIZED = """\
from repro.policy.engine import PolicyEngine

# taint: sanitizer via check_sql (policy gate before execution)
def run(sql):
    import sqlite3
    PolicyEngine().check_sql(sql)
    conn = sqlite3.connect(":memory:")
    return conn.execute(sql).fetchall()
"""

_ROUTES = """\
from repro.db.runner import run

def handle(payload):
    return run(payload["sql"])
"""


def test_taint_fires_when_http_input_reaches_execute(tmp_path):
    result = check_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": _SINK_MODULE_UNSANITIZED,
    })
    [violation] = fired(result, "TAINT-SQL")
    assert violation.path == "repro/db/runner.py"
    assert "tainted SQL" in violation.message


def test_taint_quiet_when_path_passes_verified_sanitizer(tmp_path):
    result = check_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": _SINK_MODULE_SANITIZED,
    })
    assert fired(result, "TAINT-SQL") == []


def test_taint_sanitizer_annotation_is_verified_not_trusted(tmp_path):
    # Annotation claims a check_sql barrier, body never calls it: the
    # annotation itself becomes a violation AND taint flows through.
    result = check_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": """\
# taint: sanitizer via check_sql (claims a gate it does not have)
def run(sql):
    import sqlite3
    return sqlite3.connect(":memory:").execute(sql).fetchall()
""",
    })
    messages = [v.message for v in fired(result, "TAINT-SQL")]
    assert any("not verified" in m for m in messages)
    assert any("tainted SQL" in m for m in messages)


def test_taint_sink_annotation_quiets_reviewed_sink(tmp_path):
    result = check_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": """\
def run(sql):
    import sqlite3
    conn = sqlite3.connect(":memory:")
    return conn.execute(sql).fetchall()  # taint: sink (offline harness, reviewed)
""",
    })
    assert fired(result, "TAINT-SQL") == []


def test_taint_unannotated_sink_fires_where_annotated_twin_is_quiet(tmp_path):
    # Identical code to the annotated twin above, minus the annotation.
    result = check_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": """\
def run(sql):
    import sqlite3
    conn = sqlite3.connect(":memory:")
    return conn.execute(sql).fetchall()
""",
    })
    assert len(fired(result, "TAINT-SQL")) == 1


def test_taint_sink_annotation_rejected_inside_source_module(tmp_path):
    result = check_tree(tmp_path, {
        "serving/routes.py": """\
import sqlite3

def handle(payload):
    conn = sqlite3.connect(":memory:")
    return conn.execute(payload["sql"]).fetchall()  # taint: sink (nope)
""",
    })
    [violation] = fired(result, "TAINT-SQL")
    assert "source module" in violation.message


def test_taint_stale_sink_annotation_fires(tmp_path):
    result = check_tree(tmp_path, {
        "db/runner.py": """\
def run():
    total = 1 + 1  # taint: sink (there is no sink here)
    return total
""",
    })
    [violation] = fired(result, "TAINT-SQL")
    assert "stale" in violation.message


def test_taint_trusted_annotation_verified(tmp_path):
    # Quiet: SQL built from attribute projections of the parameter.
    result = check_tree(tmp_path, {
        "serving/routes.py": _ROUTES.replace("run(", "lookup("),
        "db/runner.py": """\
import sqlite3

# taint: trusted (identifiers come from schema metadata)
def lookup(column):
    conn = sqlite3.connect(":memory:")
    return conn.execute(f'SELECT "{column.name}" FROM "{column.table}"').fetchall()
""",
    })
    assert fired(result, "TAINT-SQL") == []


def test_taint_trusted_annotation_fails_on_parameter_passthrough(tmp_path):
    result = check_tree(tmp_path, {
        "serving/routes.py": _ROUTES.replace("run(", "lookup("),
        "db/runner.py": """\
import sqlite3

# taint: trusted (falsely claims the SQL is schema-derived)
def lookup(sql):
    conn = sqlite3.connect(":memory:")
    query = sql
    return conn.execute(query).fetchall()
""",
    })
    [violation] = fired(result, "TAINT-SQL")
    assert "not verified" in violation.message
    assert "'sql'" in violation.message


def test_taint_source_annotation_taints_callers(tmp_path):
    # dequeue() is annotated as a source (queue hand-off breaks the
    # static chain); its caller receives tainted data and executes it.
    source = """\
import sqlite3

# taint: source (dequeues requests produced by the HTTP thread)
def dequeue():
    return "SELECT 1"

def process():
    sql = dequeue()
    conn = sqlite3.connect(":memory:")
    return conn.execute(sql).fetchall()
"""
    result = check_tree(tmp_path, {"pipeline/worker.py": source})
    [violation] = fired(result, "TAINT-SQL")
    assert "tainted SQL" in violation.message

    quiet = source.replace(
        "# taint: source (dequeues requests produced by the HTTP thread)\n", ""
    )
    result = check_tree(tmp_path / "twin", {"pipeline/worker.py": quiet})
    assert fired(result, "TAINT-SQL") == []


# ---------------------------------------------------------------- LAYERING

_LAYERS_TOML = """\
[[layers]]
name = "low"
modules = ["repro.db"]

[[layers]]
name = "high"
modules = ["repro.serving"]

[[layers]]
name = "root"
modules = ["repro"]
"""


def layered_tree(tmp_path: Path, files: dict[str, str], toml: str = _LAYERS_TOML):
    (tmp_path / "analysis-layers.toml").write_text(toml)
    return check_tree(tmp_path, files)


def test_layering_allows_downward_and_intra_layer_imports(tmp_path):
    result = layered_tree(tmp_path, {
        "__init__.py": "",
        "db/store.py": "x = 1\n",
        "db/extra.py": "from repro.db.store import x\n",
        "serving/app.py": "from repro.db.store import x\n",
    })
    assert fired(result, "LAYERING") == []


def test_layering_flags_back_edge(tmp_path):
    result = layered_tree(tmp_path, {
        "__init__.py": "",
        "db/store.py": "from repro.serving.app import handler\n",
        "serving/app.py": "handler = object()\n",
    })
    [violation] = fired(result, "LAYERING")
    assert violation.path == "repro/db/store.py"
    assert "back-edge" in violation.message


def test_layering_flags_lazy_back_edge(tmp_path):
    result = layered_tree(tmp_path, {
        "__init__.py": "",
        "db/store.py": """\
def get():
    from repro.serving.app import handler
    return handler
""",
        "serving/app.py": "handler = object()\n",
    })
    [violation] = fired(result, "LAYERING")
    assert "lazy" in violation.message


def test_layering_flags_unlisted_module(tmp_path):
    result = layered_tree(tmp_path, {
        "__init__.py": "",
        "db/store.py": "x = 1\n",
        "serving/app.py": "x = 1\n",
        "mystery/new_thing.py": "x = 1\n",
    })
    [violation] = fired(result, "LAYERING")
    assert "repro.mystery.new_thing" in violation.message
    assert "no layer entry" in violation.message


def test_layering_flags_stale_config_entry(tmp_path):
    toml = _LAYERS_TOML + """
[[layers]]
name = "ghost"
modules = ["repro.ghost"]
"""
    result = layered_tree(
        tmp_path,
        {
            "__init__.py": "",
            "db/store.py": "x = 1\n",
            "serving/app.py": "x = 1\n",
        },
        toml,
    )
    stale = [v for v in fired(result, "LAYERING") if "stale" in v.message]
    assert len(stale) == 1
    assert "repro.ghost" in stale[0].message


def test_layering_silent_without_config(tmp_path):
    result = check_tree(tmp_path, {
        "__init__.py": "",
        "db/store.py": "from repro.serving.app import handler\n",
        "serving/app.py": "handler = object()\n",
    })
    assert fired(result, "LAYERING") == []


def test_layers_toml_fallback_parser_matches_tomllib():
    text = (REPO_ROOT / "analysis-layers.toml").read_text()
    import tomllib

    assert _parse_layers_fallback(text) == list(
        tomllib.loads(text)["layers"]
    )
    assert parse_layers_toml(text) == list(tomllib.loads(text)["layers"])


def test_layering_longest_prefix_wins():
    # The committed config places evaluation.difficulty below spider,
    # the rest of evaluation above it.
    layers = parse_layers_toml((REPO_ROOT / "analysis-layers.toml").read_text())
    index = {
        entry: i
        for i, layer in enumerate(layers)
        for entry in layer["modules"]
    }
    assert index["repro.evaluation.difficulty"] < index["repro.spider"]
    assert index["repro.spider"] < index["repro.evaluation"]


# ------------------------------------------------------------ DEADLINE-PROP

_DEADLINE_FIRE = """\
def query(sql, timeout_s=None):
    return sql

def outer(sql, timeout_s=None):
    return query(sql)
"""

_DEADLINE_QUIET = """\
def query(sql, timeout_s=None):
    return sql

def outer(sql, timeout_s=None):
    return query(sql, timeout_s=timeout_s)
"""

_DEADLINE_RENAMED = """\
def query(sql, timeout_ms=None):
    return sql

def outer(sql, budget_s=None):
    millis = budget_s * 1000.0
    return query(sql, timeout_ms=millis)
"""


def test_deadline_fires_when_budget_dropped(tmp_path):
    result = check_tree(tmp_path, {"db/exec.py": _DEADLINE_FIRE})
    [violation] = fired(result, "DEADLINE-PROP")
    assert "'timeout_s'" in violation.message
    assert "dropped" in violation.message


def test_deadline_quiet_when_forwarded(tmp_path):
    result = check_tree(tmp_path, {"db/exec.py": _DEADLINE_QUIET})
    assert fired(result, "DEADLINE-PROP") == []


def test_deadline_quiet_when_forwarded_renamed_and_converted(tmp_path):
    result = check_tree(tmp_path, {"db/exec.py": _DEADLINE_RENAMED})
    assert fired(result, "DEADLINE-PROP") == []


def test_deadline_ignores_callees_without_deadline_params(tmp_path):
    result = check_tree(tmp_path, {"db/exec.py": """\
def fmt(sql):
    return sql

def outer(sql, timeout_s=None):
    return fmt(sql)
"""})
    assert fired(result, "DEADLINE-PROP") == []


def test_deadline_exempts_init(tmp_path):
    result = check_tree(tmp_path, {"db/exec.py": """\
def query(sql, timeout_s=None):
    return sql

class Holder:
    def __init__(self, timeout_s=None):
        self.cached = query("SELECT 1")
"""})
    assert fired(result, "DEADLINE-PROP") == []


# ------------------------------------------- real-tree mutation guarantees


def _mutated_copy(tmp_path: Path, relpath: str, old: str, new: str) -> Path:
    root = tmp_path / "tree"
    shutil.copytree(
        REAL_TREE, root / "repro",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    target = root / "repro" / relpath
    source = target.read_text()
    assert old in source, f"mutation anchor missing in {relpath}"
    target.write_text(source.replace(old, new))
    return root


def test_mutation_removing_policy_gate_from_executor_fails_taint(tmp_path):
    root = _mutated_copy(
        tmp_path,
        "db/executor.py",
        """    if check_sql is not None:
        check_sql(sql)
""",
        "",
    )
    result = analyze_paths([root])
    messages = [v.message for v in fired(result, "TAINT-SQL")]
    assert any("not verified" in m for m in messages), messages
    assert any("tainted SQL" in m for m in messages), messages


def test_mutation_bypassing_executor_in_service_fails_taint(tmp_path):
    root = _mutated_copy(
        tmp_path,
        "serving/service.py",
        """                    response.rows = runtime.execute_sql(
                        sql, tenant_id=request.tenant_id
                    )""",
        "                    response.rows = runtime.database.execute(sql)",
    )
    result = analyze_paths([root])
    violations = fired(result, "TAINT-SQL")
    assert any(v.path == "repro/serving/service.py" for v in violations)


def test_mutation_reinserting_eval_into_decode_fails_grad_safe(tmp_path):
    root = _mutated_copy(
        tmp_path,
        "model/decoder.py",
        "        state = ops.initial_state()\n"
        "        prev = ops.start()\n",
        "        self.eval()\n"
        "        state = ops.initial_state()\n"
        "        prev = ops.start()\n",
    )
    result = analyze_paths([root])
    assert [v.path for v in fired(result, "GRAD-SAFE")] == ["repro/model/decoder.py"]


def test_real_tree_has_no_whole_program_findings():
    result = analyze_paths([REAL_TREE])
    for rule in ("TAINT-SQL", "LAYERING", "DEADLINE-PROP"):
        assert fired(result, rule) == []


# ------------------------------------------- parse-once + CI time budget


def test_each_file_parsed_exactly_once_with_all_rules(tmp_path, monkeypatch):
    write_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": _SINK_MODULE_SANITIZED,
        "db/exec.py": _DEADLINE_QUIET,
    })
    real_parse = ast.parse
    calls = []

    def counting_parse(source, *args, **kwargs):
        calls.append(1)
        return real_parse(source, *args, **kwargs)

    monkeypatch.setattr(ast, "parse", counting_parse)
    result = analyze_paths([tmp_path])
    assert result.files_checked == 3
    assert result.files_parsed == 3
    assert len(calls) == 3  # one parse per file, shared by all 9 rules


def test_real_tree_analysis_fits_ci_budget():
    start = time.monotonic()
    result = analyze_paths([REAL_TREE])
    elapsed = time.monotonic() - start
    assert result.files_parsed == result.files_checked
    # The whole-program pass shares one parsed AST per file; a full run
    # over the tree must stay well inside the CI job's budget.
    assert elapsed < 60.0, f"analysis took {elapsed:.1f}s"


# --------------------------------------------------------- output formats


def test_cli_json_format(tmp_path, capsys):
    write_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": _SINK_MODULE_UNSANITIZED,
    })
    code = analysis_main([
        str(tmp_path), "--format", "json",
    ])
    assert code == 1
    document = json.loads(capsys.readouterr().out)
    assert document["ok"] is False
    assert document["files_checked"] == 2
    [violation] = [
        v for v in document["violations"] if v["rule"] == "TAINT-SQL"
    ]
    assert violation["path"] == "repro/db/runner.py"
    assert violation["fingerprint"]


def test_cli_github_format(tmp_path, capsys):
    write_tree(tmp_path, {
        "serving/routes.py": _ROUTES,
        "db/runner.py": _SINK_MODULE_UNSANITIZED,
    })
    code = analysis_main([
        str(tmp_path), "--format", "github",
    ])
    assert code == 1
    out = capsys.readouterr().out
    assert "::error file=" in out
    assert "title=TAINT-SQL" in out


def test_cli_text_format_still_default(tmp_path, capsys):
    write_tree(tmp_path, {"db/clean.py": "x = 1\n"})
    code = analysis_main([str(tmp_path)])
    assert code == 0
    assert "clean:" in capsys.readouterr().out


# -------------------------------------------- refactor regression coverage


def test_db_layer_opens_and_indexes_names_containing_quotes(tmp_path):
    """The db layer's `taint: trusted` SQL escapes the identifiers a
    hostile file supplies: a quote in a table or column name."""
    from repro.db import Database
    from repro.index import InvertedIndex, ValueLocation

    path = tmp_path / "weird.sqlite"
    connection = sqlite3.connect(path)
    connection.execute('CREATE TABLE "we""ird" (x INTEGER, "na""me" TEXT)')
    connection.execute('INSERT INTO "we""ird" VALUES (1, \'Paris\')')
    connection.commit()
    connection.close()
    database = Database.open(path)
    try:
        [table] = database.schema.tables
        assert table.name == 'we"ird'
        assert [column.name for column in table.columns] == ["x", 'na"me']
        index = InvertedIndex.build(database)
        assert index.lookup("paris") == {ValueLocation('we"ird', 'na"me')}
        assert database.row_count('we"ird') == 1
        assert database.contains_value(table.columns[1], "PARIS")
    finally:
        database.close()
