"""Full-scale experiment runner: regenerates every paper table/figure.

Trains both system variants, evaluates them on the unseen dev databases,
prints paper-vs-measured tables for Fig. 9, Fig. 10, Table I, Table II,
Section V-E and Section V-G — and writes the whole report to
``EXPERIMENTS.md`` so the recorded numbers are exactly what was measured.

Run:  python scripts/run_experiments.py [--quick] [--load] [--beam N]

--quick reuses the benchmark suite's smaller configuration: on a 2-vCPU
Xeon VM it takes 1.4 min wall clock (3.6-3.9 min when training ran one
sample at a time instead of one batched forward per minibatch).  The
full profile trains on 1.5x the examples for 2x the epochs.  Setup is
benchmarks/conftest.py's build_setup, the one the benchmark suite uses:
both models are trained with repro.model.train_valuenet and cached under
benchmarks/_artifacts/<profile>/.  --load reuses that cache when its
manifest (profile, model and training configs, vocabulary domains)
matches this run, and retrains otherwise.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from conftest import PROFILES, build_setup  # noqa: E402

from repro.baselines import (  # noqa: E402
    HeuristicBaseline,
    PAPER_ACCURACY_BY_HARDNESS,
    PAPER_EXTRACTION_COVERAGE,
    PAPER_TRANSLATION_TIME_MS,
    PAPER_VALUENET_ACCURACY,
    PAPER_VALUENET_LIGHT_ACCURACY,
    REPORTED_SYSTEMS,
)
from repro.evaluation import (  # noqa: E402
    ExperimentReport,
    Hardness,
    ValueDifficulty,
    analyze_failures,
    evaluate_pipeline,
    measure_extraction_coverage,
)
from repro.evaluation.error_analysis import CAUSES, PAPER_ERROR_SHARES  # noqa: E402
from repro.pipeline import (  # noqa: E402
    STAGES,
    ValueNetLightPipeline,
    ValueNetPipeline,
)
from repro.spider import PAPER_VALUE_DISTRIBUTION, value_distribution  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--load", action="store_true",
                        help="load cached checkpoints when their manifest "
                             "matches, instead of training")
    parser.add_argument("--beam", type=int, default=1,
                        help="beam size at evaluation time (1 = greedy)")
    parser.add_argument("--output", default=str(ROOT / "EXPERIMENTS.md"))
    args = parser.parse_args()

    profile = PROFILES["quick" if args.quick else "full"]
    started = time.perf_counter()
    print(f"profile={profile.name}: {profile.train_per_domain}/domain, "
          f"{profile.epochs} epochs, dim={profile.model.dim}", flush=True)
    setup = build_setup(profile, load=args.load)
    corpus = setup.corpus
    print(f"corpus: train={corpus.num_train} dev={corpus.num_dev}", flush=True)

    report = ExperimentReport(
        title="EXPERIMENTS — paper vs. measured",
        preamble=(
            f"Generated by `python scripts/run_experiments.py"
            f"{' --quick' if args.quick else ''}` "
            f"(profile `{profile.name}`: {profile.train_per_domain} examples per "
            f"training domain over {len(corpus.train_domains)} domains, "
            f"{profile.epochs} epochs, model dim {profile.model.dim}, beam size "
            f"{args.beam}; dev = {corpus.num_dev} questions over "
            f"{len(corpus.dev_domains)} *unseen* databases).\n\n"
            "Paper numbers come from Spider + BERT-Base on a V100; measured "
            "numbers come from the synthetic Spider-like corpus and the "
            "from-scratch numpy model (see DESIGN.md for the substitution "
            "table).  Absolute values are therefore not comparable — the "
            "reproduction targets the paper's *shape*: orderings, gaps, "
            "dominant factors."
        ),
    )

    # ---------------------------------------------------------- Fig. 9
    distribution = value_distribution(corpus.train)
    paper_total = sum(PAPER_VALUE_DISTRIBUTION.values())
    fig9 = report.table(
        "Fig. 9 — value distribution in the train split",
        ("bucket", "paper (Spider)", "measured (synthetic)"),
    )
    for n in range(5):
        fig9.add(
            f"{n} values",
            f"{PAPER_VALUE_DISTRIBUTION.get(n, 0)} "
            f"({PAPER_VALUE_DISTRIBUTION.get(n, 0) / paper_total:.1%})",
            f"{distribution.counts.get(n, 0)} ({distribution.fraction(n):.1%})",
        )
    fig9.add("samples with values", "3531 (50.4%)",
             f"{distribution.samples_with_values} "
             f"({distribution.samples_with_values / distribution.total_samples:.1%})")
    fig9.add("total values", "4690", str(distribution.total_values))

    # --------------------------------------------------------- Fig. 10
    def light_pipes():
        return {
            db: ValueNetLightPipeline(
                setup.light_model, corpus.database(db),
                preprocessor=setup.preprocessors[db], beam_size=args.beam)
            for db in corpus.dev_domains
        }

    def valuenet_pipes():
        return {
            db: ValueNetPipeline(
                setup.valuenet_model, corpus.database(db),
                preprocessor=setup.preprocessors[db], beam_size=args.beam)
            for db in corpus.dev_domains
        }

    print("evaluating ValueNet light on dev ...", flush=True)
    light_report = evaluate_pipeline(light_pipes(), corpus.dev, corpus, light=True)
    print(f"  -> {light_report.accuracy:.3f}", flush=True)
    print("evaluating ValueNet on dev ...", flush=True)
    valuenet_report = evaluate_pipeline(
        valuenet_pipes(), corpus.dev, corpus, light=False)
    print(f"  -> {valuenet_report.accuracy:.3f}", flush=True)
    heuristic_report = evaluate_pipeline(
        {db: HeuristicBaseline(corpus.database(db),
                               preprocessor=setup.preprocessors[db])
         for db in corpus.dev_domains},
        corpus.dev, corpus, light=False)

    fig10 = report.table(
        "Fig. 10 — Execution Accuracy on unseen dev databases",
        ("system", "paper", "measured"),
    )
    fig10.add("ValueNet light", f"{PAPER_VALUENET_LIGHT_ACCURACY:.1%}",
              f"{light_report.accuracy:.1%} "
              f"({light_report.num_correct}/{light_report.total})")
    fig10.add("ValueNet", f"{PAPER_VALUENET_ACCURACY:.1%}",
              f"{valuenet_report.accuracy:.1%} "
              f"({valuenet_report.num_correct}/{valuenet_report.total})")
    fig10.add("heuristic baseline (ours)", "—", f"{heuristic_report.accuracy:.1%}")
    for entry in REPORTED_SYSTEMS:
        fig10.add(f"{entry.name} (reported, unpublished)",
                  f"{entry.accuracy:.1%}", "—")
    fig10.note(
        "Shape: ValueNet light leads ValueNet by a modest margin "
        f"(paper 5 pts, measured "
        f"{(light_report.accuracy - valuenet_report.accuracy) * 100:.0f} pts); "
        "both clearly beat the rule-based baseline."
    )

    # ---------------------------------------------------------- Table I
    table1 = report.table(
        "Table I — ValueNet accuracy by Spider hardness",
        ("difficulty", "paper", "measured"),
    )
    by_hardness = valuenet_report.accuracy_by_hardness()
    for hardness in Hardness:
        if hardness in by_hardness:
            accuracy, n = by_hardness[hardness]
            table1.add(hardness.value,
                       f"{PAPER_ACCURACY_BY_HARDNESS[hardness.value]:.2f}",
                       f"{accuracy:.2f} (n={n})")

    # --------------------------------------------------------- Table II
    table2 = report.table(
        "Table II — translation time per stage",
        ("stage", "paper (V100, Spider)", "measured (CPU, synthetic)"),
    )
    timings = valuenet_report.timings
    for stage in STAGES:
        mean, std = PAPER_TRANSLATION_TIME_MS[stage]
        table2.add(stage, f"{mean:.0f} ± {std:.0f} ms",
                   f"{timings.mean_ms(stage):.1f} ± {timings.std_ms(stage):.1f} ms")
    table2.add("total", "418 ms", f"{timings.mean_total_ms():.1f} ms")
    table2.note(
        "Our databases are orders of magnitude smaller than Spider's, so "
        "value lookup shrinks; the encoder/decoder runs on CPU instead of "
        "a V100."
    )

    # ------------------------------------------------------ Section V-E
    train_coverage = measure_extraction_coverage(
        [e for e in corpus.train if e.values], setup.preprocessors)
    dev_coverage = measure_extraction_coverage(
        [e for e in corpus.dev if e.values], setup.preprocessors)
    sec5e = report.table(
        "Section V-E — value extraction coverage",
        ("quantity", "paper", "measured"),
    )
    sec5e.add("samples fully covered (train)", f"~{PAPER_EXTRACTION_COVERAGE:.0%}",
              f"{train_coverage.sample_coverage:.1%} "
              f"({train_coverage.covered_samples}/{train_coverage.total_samples})")
    sec5e.add("samples fully covered (dev)", "~constant",
              f"{dev_coverage.sample_coverage:.1%}")
    sec5e.add("training samples dropped (value not in candidates)", "—",
              f"{setup.valuenet_dropped} "
              f"({setup.valuenet_dropped / max(corpus.num_train, 1):.1%})")
    for difficulty in ValueDifficulty:
        sec5e.add(f"miss rate for {difficulty.value} values",
                  "high for hard/extra-hard" if difficulty in
                  (ValueDifficulty.HARD, ValueDifficulty.EXTRA_HARD) else "low",
                  f"{train_coverage.miss_rate(difficulty):.1%} of "
                  f"{train_coverage.values_by_difficulty.get(difficulty, 0)}")

    # ------------------------------------------------------ Section V-G
    error_report = analyze_failures(valuenet_report.samples)
    shares = error_report.cause_shares()
    sec5g = report.table(
        f"Section V-G — error causes over {error_report.num_failures} failed "
        "dev samples (multi-label)",
        ("cause", "paper", "measured"),
    )
    for cause in CAUSES:
        paper = PAPER_ERROR_SHARES.get(cause)
        sec5g.add(cause, f"{paper:.0%}" if paper is not None else "—",
                  f"{shares[cause]:.0%} ({error_report.cause_counts()[cause]})")

    elapsed = (time.perf_counter() - started) / 60
    print(report.render_text())
    print(f"\ntotal wall clock: {elapsed:.1f} min")

    output = Path(args.output)
    markdown = report.render_markdown()
    markdown += (
        f"\n---\n\n*Total wall clock: {elapsed:.1f} min "
        f"(single CPU, numpy).  Regenerate with "
        f"`python scripts/run_experiments.py`.*\n"
    )
    output.write_text(markdown)
    print(f"wrote {output}")


if __name__ == "__main__":
    main()
