"""Corpus generator: assembles the synthetic Spider-like dataset.

For every domain the generator materializes the database, runs the
weighted question patterns, validates each generated query by *executing*
it (a gold query that fails or that returns an absurd result would poison
the Execution Accuracy evaluation), lowers it to SemQL, classifies its
hardness, and deduplicates questions.  Train and dev splits draw from
disjoint domain sets.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.db.database import Database
from repro.errors import ExecutionError, SemQLError
from repro.evaluation.difficulty import classify_hardness
from repro.schema.graph import SchemaGraph
from repro.semql.from_sql import query_to_semql
from repro.spider.corpus import Example, SpiderCorpus
from repro.spider.domains import (
    DEFAULT_DEV_DOMAINS,
    DEFAULT_TRAIN_DOMAINS,
    DomainInstance,
    build_domain,
)
from repro.spider.templates import TemplateContext, generate_example
from repro.sql.render import SqlRenderer


@dataclass(frozen=True)
class CorpusConfig:
    """Corpus-size and noise knobs.

    Attributes:
        train_per_domain: examples per training domain.
        dev_per_domain: examples per dev domain.
        seed: global RNG seed (the corpus is fully deterministic).
        noise: probability of entity-noun synonym substitution, the main
            difficulty driver for schema linking on unseen databases.
        train_domains / dev_domains: domain name splits (disjoint).
    """

    train_per_domain: int = 250
    dev_per_domain: int = 120
    seed: int = 42
    noise: float = 0.25
    train_domains: tuple[str, ...] = DEFAULT_TRAIN_DOMAINS
    dev_domains: tuple[str, ...] = DEFAULT_DEV_DOMAINS


def _generate_for_domain(
    instance: DomainInstance,
    database: Database,
    count: int,
    rng: random.Random,
    *,
    noise: float,
) -> list[Example]:
    renderer = SqlRenderer(SchemaGraph(instance.schema))
    ctx = TemplateContext(instance, rng, noise=noise)
    examples: list[Example] = []
    seen_questions: set[str] = set()
    attempts = 0
    max_attempts = count * 30
    while len(examples) < count and attempts < max_attempts:
        attempts += 1
        generated = generate_example(ctx)
        if generated is None:
            continue
        if generated.question in seen_questions:
            continue
        try:
            sql = renderer.render(generated.query)
            rows = database.execute(sql, max_rows=5000)
            semql = query_to_semql(generated.query, instance.schema)
        except (ExecutionError, SemQLError):
            continue
        if not rows:
            # Empty gold results make Execution Accuracy trivially gameable
            # (any failing-but-empty prediction would match); keep a few for
            # realism but skip most.
            if rng.random() < 0.85:
                continue
        seen_questions.add(generated.question)
        examples.append(
            Example(
                question=generated.question,
                db_id=instance.schema.name,
                gold_sql=sql,
                gold_query=generated.query,
                gold_semql=semql,
                values=generated.values,
                value_difficulties=generated.value_difficulties,
                hardness=classify_hardness(generated.query),
                pattern=generated.pattern,
            )
        )
    return examples


def generate_corpus(config: CorpusConfig | None = None) -> SpiderCorpus:
    """Generate the full corpus for ``config`` (deterministic per seed)."""
    config = config or CorpusConfig()
    overlap = set(config.train_domains) & set(config.dev_domains)
    if overlap:
        raise ValueError(f"train/dev domains overlap: {sorted(overlap)}")

    rng = random.Random(config.seed)
    domains: dict[str, DomainInstance] = {}
    train: list[Example] = []
    dev: list[Example] = []

    for name in config.train_domains:
        instance = build_domain(name, seed=config.seed)
        domains[name] = instance
        with instance.build_database() as database:
            train.extend(
                _generate_for_domain(
                    instance, database, config.train_per_domain, rng,
                    noise=config.noise,
                )
            )
    for name in config.dev_domains:
        instance = build_domain(name, seed=config.seed)
        domains[name] = instance
        with instance.build_database() as database:
            dev.extend(
                _generate_for_domain(
                    instance, database, config.dev_per_domain, rng,
                    noise=config.noise,
                )
            )

    # ``train`` is shuffled by an RNG of its own, so its order does not
    # depend on how many dev examples drew from ``rng`` before it.  The
    # throwaway same-length shuffle keeps the draws ``dev``'s shuffle
    # sees: the dev split is the benchmarks' question pool, and stays
    # byte-identical for every config.
    random.Random(config.seed).shuffle(train)
    rng.shuffle(list(train))
    rng.shuffle(dev)
    return SpiderCorpus(
        train=train,
        dev=dev,
        domains=domains,
        train_domains=config.train_domains,
        dev_domains=config.dev_domains,
    )
