"""Seeded benchmark fixture: model, databases, request pools, references.

Built once per (config, model-affecting source bytes) and cached under
``benchmarks/e2e/out/``: repeated runs of one commit train once, and two
commits share a checkpoint only when the bytes that decide the model's
behaviour are identical.  Every request the workloads can send is stored
with its *reference answer* — what the same code returns for it
in-process — so a run checks each served answer at no run-time cost.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import shutil
import time
from dataclasses import asdict, dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
SRC = REPO / "src"
OUT = HERE / "out"

#: Sources whose bytes decide what the fixture model answers.
MODEL_SOURCES = (
    "nn", "model", "semql", "text", "ner", "candidates", "index",
    "preprocessing", "spider", "schema", "sql", "config.py",
)

TENANTS = (
    # Two tenants of different priority classes; limits far above any
    # offered load, so admission is exercised and never refuses.
    {"id": "alpha", "api_key": "alpha-bench-key", "class": "gold",
     "rate": 1_000_000, "burst": 1_000_000},
    {"id": "beta", "api_key": "beta-bench-key", "class": "bronze",
     "rate": 1_000_000, "burst": 1_000_000},
)

# Twice the syllables of benchmarks/bench_value_search.py: with 26 the
# 20 000 values share so few character trigrams that one search spends
# ~13 ms walking posting lists whatever the query; with 52 it is ~7 ms,
# the regime a database of real names is in.
_SYLLABLES = (
    "an ber cor dan el fen gor hal in jor kel lum mar nor ol per qui ran "
    "sel tor ul ver win xan yor zel ab ec id ok um ax ez ip os ut bra cle "
    "dri flo gru pha sti twe vro zul mon tas rik bel cam div"
).split()


@dataclass(frozen=True)
class FixtureConfig:
    train_per_domain: int = 40
    dev_per_domain: int = 300
    corpus_seed: int = 7
    epochs: int = 4
    inflate_values: int = 20_000  # extra distinct text values per large database
    large_requests: int = 1200

    @classmethod
    def smoke(cls) -> "FixtureConfig":
        return cls(train_per_domain=6, dev_per_domain=12, epochs=1,
                   inflate_values=400, large_requests=40)


@dataclass
class Fixture:
    """Paths of one built fixture plus lazily loaded request pools."""

    root: Path
    cache_hit: bool
    fixture_s: float

    @property
    def model_dir(self) -> Path:
        return self.root / "model"

    @property
    def tenants_path(self) -> Path:
        return self.root / "tenants.json"

    @property
    def policy_path(self) -> Path:
        return self.root / "policy.json"

    def databases(self, pool: str) -> list[tuple[str, Path]]:
        """``(database_id, sqlite path)`` pairs of the small or large KB."""
        return sorted(
            (p.stem, p) for p in (self.root / pool).glob("*.sqlite")
        )

    def requests(self, pool: str) -> list[dict]:
        return json.loads((self.root / f"requests-{pool}.json").read_text())


def source_hash() -> str:
    """sha256 over the model-affecting sources and this builder."""
    digest = hashlib.sha256()
    files = [Path(__file__)]
    for entry in MODEL_SOURCES:
        path = SRC / "repro" / entry
        files += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    for path in files:
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def prepare(config: FixtureConfig) -> Fixture:
    """Load the cached fixture for ``config``, building it on a miss."""
    start = time.perf_counter()
    key = hashlib.sha256(
        (json.dumps(asdict(config), sort_keys=True) + source_hash()).encode()
    ).hexdigest()[:16]
    root = OUT / f"fixture-{key}"
    hit = (root / "meta.json").exists()
    if not hit:
        OUT.mkdir(exist_ok=True)
        staging = OUT / f"fixture-{key}.tmp-{os.getpid()}"
        shutil.rmtree(staging, ignore_errors=True)
        staging.mkdir()
        _build(config, staging)
        try:
            staging.rename(root)
        except OSError:  # a concurrent run finished first; use its result
            shutil.rmtree(staging, ignore_errors=True)
    return Fixture(root, hit, time.perf_counter() - start)


# ------------------------------------------------------------------ build


def _build(config: FixtureConfig, root: Path) -> None:
    from repro.config import ModelConfig, TrainingConfig
    from repro.db import Database, gold_orders_rows, rows_equal
    from repro.model import (
        Trainer, ValueNetModel, build_preprocessors, build_vocabulary,
        prepare_samples,
    )
    from repro.policy import PolicyConfigStore, PolicyEngine, PolicyViolationError
    from repro.serving import DatabaseRuntime
    from repro.spider import CorpusConfig, generate_corpus

    started = time.perf_counter()
    corpus = generate_corpus(CorpusConfig(
        train_per_domain=config.train_per_domain,
        dev_per_domain=config.dev_per_domain,
        seed=config.corpus_seed,
    ))

    # The quick shape of benchmarks/conftest.py; seeds are the configs'
    # fixed defaults, so the checkpoint is a function of the sources.
    model_config = ModelConfig(dim=48, ff_dim=96, summary_hidden=32,
                               decoder_hidden=96, pointer_hidden=48)
    vocab = build_vocabulary(
        [e.question for e in corpus.train],
        [corpus.schema(d) for d in corpus.domains],
        [str(v) for e in corpus.train for v in e.values],
        vocab_size=model_config.vocab_size,
    )
    model = ValueNetModel(vocab, model_config)
    samples, _ = prepare_samples(
        corpus.train, build_preprocessors(corpus), model, mode="valuenet"
    )
    Trainer(model, TrainingConfig(epochs=config.epochs)).train(samples)
    model.save(root / "model")
    corpus.close()
    train_s = time.perf_counter() - started

    (root / "small").mkdir()
    (root / "large").mkdir()
    inflated: dict[str, dict[tuple[str, str], list[str]]] = {}
    for name in corpus.dev_domains:
        instance = corpus.domains[name]
        instance.build_database(root / "small" / f"{name}.sqlite").close()
        inflated[name] = _inflate(
            instance, root / "large" / f"{name}.sqlite", config.inflate_values
        )

    (root / "tenants.json").write_text(json.dumps(
        {"version": 1, "admin_keys": ["bench-admin-key"], "tenants": list(TENANTS)}
    ))
    (root / "policy.json").write_text(json.dumps(
        {"version": 1, "default": {"read_only": True}}
    ))

    # References come from the serving stack's own per-database building
    # block over a checkpoint loaded from disk, exactly as a server or a
    # cluster worker constructs it.
    loaded = ValueNetModel.load(root / "model")
    policy = PolicyEngine(PolicyConfigStore.load(root / "policy.json"))

    def runtimes(pool: str) -> dict[str, DatabaseRuntime]:
        return {
            name: DatabaseRuntime(
                Database.open(root / pool / f"{name}.sqlite"), loaded,
                database_id=name,
            )
            for name in corpus.dev_domains
        }

    def answer(runtime: DatabaseRuntime, question: str, execute: bool) -> dict:
        result = runtime.translate(question, execute=execute)
        degraded = result.error is not None
        if degraded:  # what the service does: heuristic fallback
            result = runtime.translate_fallback(question, execute=execute)
        return {"sql": result.sql, "rows": result.rows, "degraded": degraded}

    small = runtimes("small")
    small_requests = []
    for example in corpus.dev:
        runtime = small[example.db_id]
        record = {"question": example.question, "database_id": example.db_id}
        record.update(answer(runtime, example.question, True))
        gold_rows = runtime.database.execute(example.gold_sql)
        record["gold_ok"] = record["rows"] is not None and rows_equal(
            record["rows"], gold_rows,
            order_matters=gold_orders_rows(example.gold_sql),
        )
        try:
            if record["sql"] is not None:
                policy.check_sql(
                    record["sql"], database_id=example.db_id, tenant_id="alpha",
                    schema=runtime.database.schema, graph=runtime.schema_graph,
                )
            record["blocked"] = False
        except PolicyViolationError:
            record["blocked"] = True
        # offline_beam3 reference: the plain pipeline at beam 3.
        beam = runtime.translate(example.question, execute=True, beam_size=3)
        record["beam3"] = {
            "sql": beam.sql, "rows": beam.rows, "error": beam.error is not None,
            "gold_ok": beam.rows is not None and rows_equal(
                beam.rows, gold_rows,
                order_matters=gold_orders_rows(example.gold_sql),
            ),
        }
        small_requests.append(record)
    for runtime in small.values():
        runtime.database.close()

    large = runtimes("large")
    large_requests = []
    for record in _large_questions(corpus.dev, inflated, config.large_requests):
        record.update(answer(large[record["database_id"]], record["question"], False))
        large_requests.append(record)
    for runtime in large.values():
        runtime.database.close()

    (root / "requests-small.json").write_text(json.dumps(small_requests))
    (root / "requests-large.json").write_text(json.dumps(large_requests))
    # meta.json last: its presence marks the fixture complete.
    (root / "meta.json").write_text(json.dumps({
        "config": asdict(config),
        "build_s": time.perf_counter() - started,
        "train_s": train_s,
        "small_requests": len(small_requests),
        "large_requests": len(large_requests),
        "degraded_small": sum(r["degraded"] for r in small_requests),
        "degraded_large": sum(r["degraded"] for r in large_requests),
        "blocked_small": sum(r["blocked"] for r in small_requests),
    }, indent=1))


def _inflate(instance, path: Path, target: int) -> dict[tuple[str, str], list[str]]:
    """Write ``instance`` to ``path`` with ``target`` extra distinct text
    values, spread evenly over its entity-like text columns.

    Original rows are kept; each added row copies a random original row
    (so keys and numbers stay plausible), takes a fresh primary key and
    fresh syllable phrases in the inflated columns.  Flag-like columns
    (values shorter than 3 characters, e.g. ``T``/``F``) are left alone,
    and no column grows past what the value index holds per column, so
    every added value is searchable (a database with three such columns
    ends below ``target``).  Returns the new values per ``(table, column)``.
    """
    from repro.index import InvertedIndex
    from repro.schema import ColumnType

    column_cap = InvertedIndex().max_values_per_column

    rng = random.Random(f"inflate-{instance.schema.name}")

    def word() -> str:
        return "".join(
            rng.choice(_SYLLABLES) for _ in range(rng.randint(3, 4))
        ).capitalize()

    columns: dict[str, list[int]] = {}
    for table in instance.schema.tables:
        for position, column in enumerate(table.columns):
            if column.column_type is not ColumnType.TEXT or column.is_primary_key:
                continue
            values = [
                row[position] for row in instance.rows[table.name]
                if row[position] is not None
            ]
            if values and min(len(str(v)) for v in values) >= 3:
                columns.setdefault(table.name, []).append(position)
    per_column = math.ceil(target / sum(len(c) for c in columns.values()))

    database = instance.build_database(path)
    seen: set[str] = set()
    added: dict[tuple[str, str], list[str]] = {}
    for table in instance.schema.tables:
        positions = columns.get(table.name)
        if not positions:
            continue
        base = instance.rows[table.name]
        keys = [i for i, c in enumerate(table.columns) if c.is_primary_key]
        next_key = max(row[keys[0]] for row in base) + 1 if keys else 0
        rows = []
        for offset in range(min(per_column, column_cap - len(base))):
            row = list(rng.choice(base))
            if keys:
                row[keys[0]] = next_key + offset
            for position in positions:
                while True:
                    # mostly one word; a quarter are two, so n-gram
                    # expansion of multi-word spans stays exercised
                    value = " ".join(word() for _ in range(1 + (rng.random() < 0.25)))
                    if value.lower() not in seen:
                        break
                seen.add(value.lower())
                row[position] = value
                added.setdefault(
                    (table.name, table.columns[position].name), []
                ).append(value)
            rows.append(tuple(row))
        database.insert_rows(table.name, rows)
    database.close()
    return added


def _typo(value: str, rng: random.Random) -> str:
    """One edit (delete / insert / substitute) inside a word of ``value``."""
    spots = [i for i in range(1, len(value)) if value[i] != " "]
    i = rng.choice(spots)
    letter = rng.choice("abcdefghijklmnopqrstuvwxyz")
    kind = rng.randrange(3)
    if kind == 0:
        return value[:i] + value[i + 1:]
    if kind == 1:
        return value[:i] + letter + value[i:]
    return value[:i] + letter + value[i + 1:]


def _large_questions(dev, inflated, count: int) -> list[dict]:
    """``count`` questions whose value mention is a typo of an inflated
    value, each inflated value used at most once (so no two requests
    share a span and the searcher's memo stays cold)."""
    rng = random.Random("large-questions")
    templates = []
    for example in dev:
        lowered = example.question.lower()
        mention = next(
            (v for v in example.values
             if isinstance(v, str) and len(v) >= 3 and v.lower() in lowered),
            None,
        )
        if mention is not None:
            templates.append((example, mention))
    unused = {}
    for name, columns in inflated.items():
        values = [v for column in columns.values() for v in column]
        rng.shuffle(values)
        unused[name] = values
    requests = []
    for i in range(count):
        example, mention = templates[i % len(templates)]
        value = unused[example.db_id].pop()
        question = re.sub(
            re.escape(mention), lambda _m: _typo(value, rng), example.question,
            count=1, flags=re.IGNORECASE,
        )
        requests.append({"question": question, "database_id": example.db_id})
    return requests
