"""The repo's benchmark: one command for the whole request path.

Driver form (one run, the last stdout line is the result object)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Human forms::

    run.py                      # every workload, untraced then traced
    run.py --workload NAME      # one workload, untraced then traced
    run.py --repeat K           # K seeds per workload: medians, quartile
                                #   spread and each spread against its bound
                                #   (add --trace 0 or 1 for one kind of run)
    run.py --smoke              # tiny fixture, 1 s runs, no bounds
    run.py --check BENCHMARK.json
    run.py --write-definition   # regenerate BENCHMARK.json

See README.md next to this file for what each workload and metric means.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import definition  # noqa: E402
from fixture import OUT, REPO, SRC, FixtureConfig, prepare  # noqa: E402


def _single_run(args) -> int:
    """One run in this process; prints the metrics, then the result line."""
    import runs

    config = FixtureConfig.smoke() if args.smoke else FixtureConfig()
    fixture = prepare(config)
    print(f"fixture_s {fixture.fixture_s:.3f} s "
          f"(cache {'hit' if fixture.cache_hit else 'miss'}: {fixture.root.name})")
    workload = definition.WORKLOADS[args.workload]
    result, info = runs.run(
        workload, fixture, args.seed, args.seconds, bool(args.trace)
    )
    print(f"workload {workload.name} seed {args.seed} seconds {args.seconds:g} "
          f"trace {args.trace}")
    for name, metric in result["metrics"].items():
        print(f"  {name:<32} {metric['value']:>14.4f} {metric['unit']}")
    for name, value in info.items():
        print(f"  ({name}: {value})")
    print(json.dumps(result))
    return 0


def _spawn_run(workload: str, seed: int, seconds: float, trace: int, smoke: bool) -> dict:
    """One run in a fresh process, exactly as the driver makes it."""
    argv = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if smoke:
        argv.append("--smoke")
    done = subprocess.run(argv, cwd=REPO, capture_output=True, text=True)
    if done.returncode != 0:
        sys.stderr.write(done.stdout + done.stderr)
        raise SystemExit(f"run failed: {' '.join(argv)}")
    lines = done.stdout.strip().splitlines()
    sys.stdout.write("\n".join(lines[:-1]) + "\n")
    sys.stdout.flush()
    return json.loads(lines[-1])


def _spread(values: list[float]) -> float:
    """Quartile distance over the median, as the driver computes it."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _many_runs(args) -> int:
    names = [args.workload] if args.workload else list(definition.WORKLOADS)
    bounds = {m.name: m.bound for m in definition.END_TO_END}
    failed = 0
    summary: dict[str, dict] = {}
    for name in names:
        sets = []
        for k in range(args.repeat):
            metrics = {}
            for trace in (0, 1) if args.trace is None else (args.trace,):
                result = _spawn_run(name, args.seed + k, args.seconds, trace, args.smoke)
                failed += result["failed"]
                metrics.update(result["metrics"])
            sets.append(metrics)
        summary[name] = {}
        print(f"\n=== {name}: {args.repeat} set(s), seeds "
              f"{args.seed}..{args.seed + args.repeat - 1} ===")
        for metric in sets[0]:
            values = [s[metric]["value"] for s in sets]
            entry = {"unit": sets[0][metric]["unit"],
                     "median": statistics.median(values), "values": values}
            line = f"  {metric:<32} {entry['median']:>14.4f} {entry['unit']:<6}"
            if args.repeat >= 2 and metric in bounds:
                low, high = min(values), max(values)
                entry["range"] = (high - low) / entry["median"]
                line += f" range {100 * entry['range']:5.1f} %"
                if args.repeat >= 4:
                    entry["spread"] = _spread(values)
                    line += f" spread {100 * entry['spread']:5.1f} %"
                line += f" (bound {100 * bounds[metric]:.0f} %)"
            summary[name][metric] = entry
            print(line)
    if not args.smoke:
        OUT.mkdir(exist_ok=True)
        (OUT / "summary.json").write_text(json.dumps(summary, indent=1))
        print(f"\nwrote {OUT / 'summary.json'}")
    if failed:
        print(f"FAILED: {failed} wrong or refused answer(s)")
    return 1 if failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(definition.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--check", metavar="BENCHMARK.json")
    parser.add_argument("--write-definition", action="store_true")
    args = parser.parse_args(argv)

    if args.check:
        problems = definition.check(args.check)
        for problem in problems:
            print(f"{args.check}: {problem}")
        print(f"{args.check}: {'INVALID' if problems else 'ok'}")
        return 1 if problems else 0
    if args.write_definition:
        path = REPO / "BENCHMARK.json"
        path.write_text(json.dumps(definition.benchmark_json(), indent=2) + "\n")
        print(f"wrote {path}")
        return 0

    if not (SRC / "repro").is_dir():
        # e.g. a directory holding only BENCHMARK.json and this benchmark
        print(f"no program to measure: {SRC / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(definition.RUN_SECONDS)
    if args.workload and args.trace is not None and args.repeat == 1:
        return _single_run(args)
    return _many_runs(args)


if __name__ == "__main__":
    raise SystemExit(main())
