"""Shared benchmark fixtures: corpus, trained models, evaluation reports.

Training a model is the expensive step, so it happens once per *profile*
and is cached on disk under ``benchmarks/_artifacts/<profile>/``; later
benchmark runs load the checkpoints while the cache's manifest matches.
The corpus itself is regenerated deterministically (stable seeds) and
never cached.  :func:`build_setup` is the one setup path, shared with
``scripts/run_experiments.py``.

Profiles (select with ``REPRO_BENCH_PROFILE``):

* ``quick`` (default) — scaled down so a cold run of the full benchmark
  suite finishes in roughly ten minutes on a laptop CPU.
* ``full`` — the configuration used for the numbers in EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass
from pathlib import Path

import pytest

from _util import print_table  # noqa: F401  (re-export for bench files)
from e2e.fixture import source_hash

from repro.config import ModelConfig, TrainingConfig
from repro.evaluation import AccuracyReport, evaluate_pipeline
from repro.model import ValueNetModel, build_preprocessors, train_valuenet
from repro.pipeline import ValueNetLightPipeline, ValueNetPipeline
from repro.spider import CorpusConfig, SpiderCorpus, generate_corpus

ARTIFACTS = Path(__file__).parent / "_artifacts"


@dataclass(frozen=True)
class BenchProfile:
    name: str
    train_per_domain: int
    dev_per_domain: int
    epochs: int
    model: ModelConfig


PROFILES = {
    "quick": BenchProfile(
        name="quick",
        train_per_domain=100,
        dev_per_domain=50,
        epochs=6,
        model=ModelConfig(dim=48, ff_dim=96, summary_hidden=32,
                          decoder_hidden=96, pointer_hidden=48),
    ),
    "full": BenchProfile(
        name="full",
        train_per_domain=150,
        dev_per_domain=80,
        epochs=12,
        model=ModelConfig(dim=48, ff_dim=96, summary_hidden=32,
                          decoder_hidden=96, pointer_hidden=48),
    ),
}


def active_profile() -> BenchProfile:
    name = os.environ.get("REPRO_BENCH_PROFILE", "quick")
    if name not in PROFILES:
        raise ValueError(f"unknown REPRO_BENCH_PROFILE {name!r}")
    return PROFILES[name]


@dataclass
class BenchSetup:
    """Everything the benchmark files share."""

    profile: BenchProfile
    corpus: SpiderCorpus
    preprocessors: dict
    light_model: ValueNetModel
    valuenet_model: ValueNetModel
    valuenet_dropped: int

    def light_pipelines(self) -> dict:
        return {
            db_id: ValueNetLightPipeline(
                self.light_model, self.corpus.database(db_id),
                preprocessor=self.preprocessors[db_id],
            )
            for db_id in self.corpus.dev_domains
        }

    def valuenet_pipelines(self) -> dict:
        return {
            db_id: ValueNetPipeline(
                self.valuenet_model, self.corpus.database(db_id),
                preprocessor=self.preprocessors[db_id],
            )
            for db_id in self.corpus.dev_domains
        }


def build_setup(profile: BenchProfile, *, load: bool = True) -> BenchSetup:
    """Corpus, preprocessors and both trained models for ``profile``.

    The cache's manifest records everything that decides the
    checkpoints, the sources that train them included.  With ``load``
    they are loaded when it matches; otherwise both models are trained
    with :func:`train_valuenet` and the cache is overwritten.
    """
    corpus = generate_corpus(CorpusConfig(
        train_per_domain=profile.train_per_domain,
        dev_per_domain=profile.dev_per_domain,
    ))
    preprocessors = build_preprocessors(corpus)
    training = TrainingConfig(epochs=profile.epochs)

    cache = ARTIFACTS / profile.name
    manifest_path = cache / "manifest.json"
    manifest = {
        "profile": asdict(profile),
        "training": asdict(training),
        "vocabulary_domains": list(corpus.train_domains),
        # The e2e fixture's key: the model-affecting ``repro`` sources
        # (``MODEL_SOURCES``) and the fixture builder.
        "sources": source_hash(),
    }
    if (load and manifest_path.exists()
            and json.loads(manifest_path.read_text()) == manifest):
        print(f"loading cached checkpoints from {cache}", flush=True)
        light_model = ValueNetModel.load(cache / "light")
        valuenet_model = ValueNetModel.load(cache / "valuenet")
        dropped = json.loads((cache / "stats.json").read_text())["valuenet_dropped"]
    else:
        print("training ValueNet light ...", flush=True)
        light_model, _ = train_valuenet(
            corpus, "light", preprocessors, profile.model, training)
        print("training ValueNet ...", flush=True)
        valuenet_model, history = train_valuenet(
            corpus, "valuenet", preprocessors, profile.model, training)
        dropped = history.num_dropped
        cache.mkdir(parents=True, exist_ok=True)
        manifest_path.unlink(missing_ok=True)
        light_model.save(cache / "light")
        valuenet_model.save(cache / "valuenet")
        (cache / "stats.json").write_text(json.dumps({"valuenet_dropped": dropped}))
        manifest_path.write_text(json.dumps(manifest))

    return BenchSetup(
        profile=profile,
        corpus=corpus,
        preprocessors=preprocessors,
        light_model=light_model,
        valuenet_model=valuenet_model,
        valuenet_dropped=dropped,
    )


@pytest.fixture(scope="session")
def bench() -> BenchSetup:
    return build_setup(active_profile())


@pytest.fixture(scope="session")
def light_report(bench) -> AccuracyReport:
    return evaluate_pipeline(
        bench.light_pipelines(), bench.corpus.dev, bench.corpus, light=True
    )


@pytest.fixture(scope="session")
def valuenet_report(bench) -> AccuracyReport:
    return evaluate_pipeline(
        bench.valuenet_pipelines(), bench.corpus.dev, bench.corpus, light=False
    )

