"""Corpus container: examples, databases, splits, (de)serialization.

An :class:`Example` pairs one NL question with its gold SQL (executable
string *and* resolved AST), the gold SemQL 2.0 tree, the gold value list
and the difficulty annotations.  A :class:`SpiderCorpus` holds the train
and dev splits together with the materialized domain databases; splits use
**disjoint databases**, matching Spider's transfer-learning setup.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.db.database import Database
from repro.errors import DatasetError
from repro.evaluation.difficulty import Hardness, ValueDifficulty
from repro.schema.model import Schema
from repro.schema.serialization import schema_from_dict, schema_to_dict
from repro.semql.tree import SemQLNode
from repro.spider.domains import DomainInstance, build_domain
from repro.sql.ast import Query


@dataclass
class Example:
    """One question/SQL pair with full gold annotations."""

    question: str
    db_id: str
    gold_sql: str
    gold_query: Query
    gold_semql: SemQLNode
    values: list[object]
    value_difficulties: list[ValueDifficulty]
    hardness: Hardness
    pattern: str = ""

    @property
    def value_difficulty(self) -> ValueDifficulty | None:
        from repro.evaluation.difficulty import combine_value_difficulty

        return combine_value_difficulty(self.value_difficulties)

    def to_dict(self) -> dict:
        return {
            "question": self.question,
            "db_id": self.db_id,
            "query": self.gold_sql,
            "values": self.values,
            "value_difficulties": [d.value for d in self.value_difficulties],
            "hardness": self.hardness.value,
            "pattern": self.pattern,
        }


@dataclass
class SpiderCorpus:
    """Train/dev examples plus the domain instances backing them."""

    train: list[Example]
    dev: list[Example]
    domains: dict[str, DomainInstance]
    train_domains: tuple[str, ...]
    dev_domains: tuple[str, ...]
    _databases: dict[str, Database] = field(default_factory=dict, repr=False)

    def schema(self, db_id: str) -> Schema:
        domain = self.domains.get(db_id)
        if domain is None:
            raise DatasetError(f"corpus has no database {db_id!r}")
        return domain.schema

    def database(self, db_id: str) -> Database:
        """The (cached, in-memory) SQLite database for ``db_id``."""
        if db_id not in self._databases:
            domain = self.domains.get(db_id)
            if domain is None:
                raise DatasetError(f"corpus has no database {db_id!r}")
            self._databases[db_id] = domain.build_database()
        return self._databases[db_id]

    def close(self) -> None:
        for database in self._databases.values():
            database.close()
        self._databases.clear()

    # -------------------------------------------------------------- stats

    @property
    def num_train(self) -> int:
        return len(self.train)

    @property
    def num_dev(self) -> int:
        return len(self.dev)

    # ------------------------------------------------------ serialization

    def save(self, directory: str | Path) -> None:
        """Write the corpus in Spider-like layout: ``tables.json``,
        ``train.json`` and ``dev.json`` (databases are re-materialized
        deterministically from the domain specs on load)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        schemas = [self.domains[name].schema for name in sorted(self.domains)]
        (directory / "tables.json").write_text(
            json.dumps([schema_to_dict(s) for s in schemas], indent=1)
        )
        for split_name, examples in (("train", self.train), ("dev", self.dev)):
            (directory / f"{split_name}.json").write_text(
                json.dumps([e.to_dict() for e in examples], indent=1)
            )
        (directory / "split.json").write_text(json.dumps({
            "train_domains": list(self.train_domains),
            "dev_domains": list(self.dev_domains),
        }))


def load_examples(
    path: str | Path, schemas: dict[str, Schema]
) -> list[Example]:
    """Load a ``train.json``/``dev.json`` file back into examples.

    Gold SQL strings are re-parsed and re-lowered to SemQL, so the file is
    the single source of truth.
    """
    from repro.evaluation.difficulty import classify_hardness
    from repro.semql.from_sql import query_to_semql
    from repro.sql.parser import parse_sql

    records = json.loads(Path(path).read_text())
    examples: list[Example] = []
    for record in records:
        schema = schemas.get(record["db_id"])
        if schema is None:
            raise DatasetError(f"unknown db_id {record['db_id']!r} in {path}")
        query = parse_sql(record["query"], schema)
        examples.append(
            Example(
                question=record["question"],
                db_id=record["db_id"],
                gold_sql=record["query"],
                gold_query=query,
                gold_semql=query_to_semql(query, schema),
                values=record.get("values", []),
                value_difficulties=[
                    ValueDifficulty(v) for v in record.get("value_difficulties", [])
                ],
                hardness=Hardness(record.get("hardness", classify_hardness(query).value)),
                pattern=record.get("pattern", ""),
            )
        )
    return examples


def load_corpus(directory: str | Path) -> SpiderCorpus:
    """Load a corpus previously written by :meth:`SpiderCorpus.save`."""
    directory = Path(directory)
    schema_records = json.loads((directory / "tables.json").read_text())
    schemas = {r["db_id"]: schema_from_dict(r) for r in schema_records}
    split = json.loads((directory / "split.json").read_text())
    domains = {name: build_domain(name) for name in schemas}
    return SpiderCorpus(
        train=load_examples(directory / "train.json", schemas),
        dev=load_examples(directory / "dev.json", schemas),
        domains=domains,
        train_domains=tuple(split["train_domains"]),
        dev_domains=tuple(split["dev_domains"]),
    )
