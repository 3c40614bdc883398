"""Full workflow: corpus -> training -> Execution Accuracy on unseen DBs.

Generates (a scaled-down version of) the synthetic Spider-like corpus,
trains ValueNet light, and evaluates Execution Accuracy on the dev split
— four databases the model has never seen, mirroring the paper's
transfer-learning setup.

Run:  python examples/train_and_evaluate.py [--scale N] [--epochs E]
      (defaults are small so the script finishes in a few minutes;
       scale 150 / epochs 12 approaches the numbers in EXPERIMENTS.md)
"""

from __future__ import annotations

import argparse

from repro.config import ModelConfig, TrainingConfig
from repro.evaluation import evaluate_pipeline
from repro.model import build_preprocessors, train_valuenet
from repro.pipeline import ValueNetLightPipeline
from repro.spider import CorpusConfig, generate_corpus


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scale", type=int, default=40,
                        help="training examples per domain")
    parser.add_argument("--epochs", type=int, default=5)
    args = parser.parse_args()

    print(f"== Generating corpus (scale={args.scale}) ==")
    corpus = generate_corpus(
        CorpusConfig(train_per_domain=args.scale, dev_per_domain=max(args.scale // 3, 10))
    )
    print(f"train={corpus.num_train} examples over {len(corpus.train_domains)} DBs; "
          f"dev={corpus.num_dev} examples over {len(corpus.dev_domains)} unseen DBs")

    print(f"\n== Training for {args.epochs} epochs ==")
    preprocessors = build_preprocessors(corpus)
    model, history = train_valuenet(
        corpus, "light", preprocessors,
        ModelConfig(dim=48, ff_dim=96, decoder_hidden=96, vocab_size=2000),
        TrainingConfig(epochs=args.epochs),
    )
    print(f"prepared {history.num_prepared} samples "
          f"({history.num_dropped} dropped)")
    for epoch in history.epochs:
        print(f"  epoch {epoch.epoch}: loss {epoch.mean_loss:.3f} "
              f"({epoch.seconds:.0f}s)")

    print("\n== Execution Accuracy on unseen dev databases ==")
    pipelines = {
        db_id: ValueNetLightPipeline(
            model, corpus.database(db_id), preprocessor=preprocessors[db_id]
        )
        for db_id in corpus.dev_domains
    }
    report = evaluate_pipeline(pipelines, corpus.dev, corpus, light=True)
    print(f"overall: {report.accuracy:.1%} ({report.num_correct}/{report.total})")
    for hardness, (accuracy, n) in report.accuracy_by_hardness().items():
        print(f"  {hardness.value:<12} {accuracy:.1%}  (n={n})")

    corpus.close()


if __name__ == "__main__":
    main()
