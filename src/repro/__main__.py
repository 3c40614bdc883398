"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``corpus DIR``     — generate the synthetic Spider-like corpus to DIR.
* ``corpus generate`` — derive a validated Q->SQL corpus from live
                       SQLite databases (see ``repro.evolve.corpus``).
* ``train DIR``      — train a model on a generated corpus and save it.
* ``translate``      — translate one question against a SQLite database
                       with a trained model.
* ``inspect``        — show pre-processing output (hints + candidates)
                       for a question, no model required.
* ``serve``          — run the concurrent HTTP inference service
                       (``/translate``, ``/healthz``, ``/metrics``).
"""

from __future__ import annotations

import argparse
import sys

from repro.config import ModelConfig, TrainingConfig
from repro.logs import configure_cli_logging


def _cmd_corpus(args: argparse.Namespace) -> int:
    from repro.spider import CorpusConfig, generate_corpus

    corpus = generate_corpus(CorpusConfig(
        train_per_domain=args.train_per_domain,
        dev_per_domain=args.dev_per_domain,
        seed=args.seed,
    ))
    corpus.save(args.directory)
    print(f"wrote corpus to {args.directory}: "
          f"train={corpus.num_train} dev={corpus.num_dev} "
          f"databases={len(corpus.domains)}")
    return 0


def _cmd_corpus_generate(argv: list[str]) -> int:
    """``repro corpus generate`` — schema-derived, validated examples.

    Dispatched before argparse in :func:`main` because the legacy
    ``corpus DIR`` positional would otherwise swallow ``generate`` as a
    directory name.
    """
    import json

    parser = argparse.ArgumentParser(
        prog="repro corpus generate",
        description="Derive a validated question->SQL corpus from live "
                    "SQLite databases (see repro.evolve.corpus). Every "
                    "emitted example is built as a repro.sql AST and "
                    "validated against the policy engine and executor.",
    )
    parser.add_argument(
        "--database", action="append", required=True, dest="databases",
        metavar="[ID=]PATH",
        help="SQLite file to derive from (repeatable); id defaults to "
             "the file stem",
    )
    parser.add_argument(
        "--output", default=None, metavar="JSONL",
        help="append examples to this JSONL file (deduplicated across "
             "runs); default: print to stdout",
    )
    parser.add_argument(
        "--policy", default=None, metavar="JSON",
        help="SQL policy config; examples the policy would block are "
             "not emitted",
    )
    parser.add_argument(
        "--tables", default=None, metavar="T1,T2",
        help="restrict generation to these tables (default: all)",
    )
    parser.add_argument(
        "--no-validate", action="store_true",
        help="skip policy/executor validation (faster, but examples are "
             "not guaranteed runnable)",
    )
    parser.add_argument("--max-value-examples", type=int, default=3)
    args = parser.parse_args(argv)

    from repro.db import Database
    from repro.evolve import CorpusWriter, generate_examples

    policy = None
    if args.policy is not None:
        from repro.policy import PolicyConfigStore, PolicyEngine

        policy = PolicyEngine(PolicyConfigStore.load(args.policy))
    tables = None
    if args.tables:
        tables = [t.strip() for t in args.tables.split(",") if t.strip()]
    writer = CorpusWriter(args.output) if args.output is not None else None
    total = written = 0
    for database_id, path in _parse_database_specs(args.databases):
        database = Database.open(path)
        try:
            examples = generate_examples(
                database,
                database_id=database_id,
                tables=tables,
                policy=policy,
                validate=not args.no_validate,
                max_value_examples=args.max_value_examples,
            )
        finally:
            database.close()
        total += len(examples)
        if writer is not None:
            written += writer.append(examples)
        else:
            for example in examples:
                print(json.dumps(example.as_dict()))
    if writer is not None:
        print(f"generated {total} example(s); wrote {written} new "
              f"(deduplicated) to {args.output}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from repro.model import build_preprocessors, train_valuenet
    from repro.spider import load_corpus

    corpus = load_corpus(args.corpus)
    model, history = train_valuenet(
        corpus, args.mode, build_preprocessors(corpus),
        ModelConfig(dim=args.dim), TrainingConfig(epochs=args.epochs),
    )
    print(f"prepared {history.num_prepared} samples "
          f"({history.num_dropped} dropped)")
    print(f"final loss {history.final_loss:.3f}")
    model.save(args.output)
    print(f"saved model to {args.output}")
    return 0


def _cmd_translate(args: argparse.Namespace) -> int:
    from repro.db import Database
    from repro.model import ValueNetModel
    from repro.pipeline import ValueNetPipeline

    model = ValueNetModel.load(args.model)
    database = Database.open(args.database)
    pipeline = ValueNetPipeline(model, database, beam_size=args.beam)
    result = pipeline.translate(args.question, execute=not args.no_execute)
    if result.error:
        print(f"error: {result.error}", file=sys.stderr)
        return 1
    print("SQL:", result.sql)
    if result.rows is not None:
        for row in result.rows[:20]:
            print("  ", row)
        if len(result.rows) > 20:
            print(f"   ... {len(result.rows) - 20} more rows")
    return 0


def _cmd_inspect(args: argparse.Namespace) -> int:
    from repro.db import Database
    from repro.preprocessing import Preprocessor

    database = Database.open(args.database)
    pre = Preprocessor(database).run(args.question)
    print("question hints:")
    for hinted in pre.hinted_tokens:
        if hinted.hint.name != "NONE":
            print(f"  {hinted.token.text:<20} {hinted.hint.name}")
    print("value candidates:")
    for candidate in pre.candidates:
        print("  " + candidate.describe())
    return 0


def _parse_database_specs(specs: list[str]) -> list[tuple[str, str]]:
    """``[ID=]PATH`` specs -> unique ``(db_id, path)`` pairs."""
    from pathlib import Path

    pairs: list[tuple[str, str]] = []
    seen: set[str] = set()
    for spec in specs:
        database_id, _, path = spec.rpartition("=")
        database_id = database_id or Path(path).stem
        if database_id in seen:
            raise SystemExit(f"duplicate database id {database_id!r}")
        seen.add(database_id)
        pairs.append((database_id, path))
    return pairs


def _serve_until_signalled(server, shutdown) -> None:
    """Run the HTTP loop until SIGTERM/SIGINT flips the shutdown event.

    The server loop runs on a helper thread so the main thread can wait
    on the signal event (signal handlers only fire on the main thread).
    """
    import threading

    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        shutdown.wait()
    except KeyboardInterrupt:
        pass
    server.shutdown()
    server.server_close()
    thread.join(timeout=5.0)


def _install_signal_handlers(shutdown) -> None:
    import signal

    def _request_shutdown(signum, frame):
        print(f"\nreceived signal {signum}; draining ...", flush=True)
        shutdown.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)


def _install_sighup(callback) -> None:
    """SIGHUP -> force a KB refresh (no-op where SIGHUP doesn't exist).

    ``callback`` must be async-signal-safe in spirit: both wirings
    (``KBRefresher.trigger`` and ``ClusterService.trigger_refresh``)
    only flip an event / write a frame, never rebuild inline.
    """
    import signal

    if not hasattr(signal, "SIGHUP"):
        return

    def _on_hup(signum, frame):
        print("received SIGHUP; scheduling KB refresh ...", flush=True)
        callback()

    signal.signal(signal.SIGHUP, _on_hup)


def _build_tenancy(args, metrics=None):
    """Build the TenancyController for ``--tenants`` (None when absent).

    ``metrics`` should be the serving/supervisor registry so the
    admission counters (auth failures, per-tenant rejects) appear on the
    same ``/metrics`` exposition as the serving metrics.
    """
    if args.tenants is None:
        return None
    from repro.tenancy import QuotaLedger, TenancyController, TenantRegistry

    registry = TenantRegistry.from_file(args.tenants)
    ledger = QuotaLedger(args.quota_state)
    controller = TenancyController(registry, ledger=ledger, metrics=metrics)
    print(f"tenancy enabled: {len(registry.tenants())} tenant(s), "
          f"config version {registry.version}"
          + (f", quota ledger at {args.quota_state}" if args.quota_state else ""))
    return controller


def _spec_kwargs(args) -> dict:
    """The ``serve`` flags that shape a serving stack, as
    :class:`~repro.cluster.worker.WorkerSpec` fields — the one mapping
    both modes use (``ClusterService`` hands them to every worker's
    spec; ``--kb-corpus`` is a file in-process, a directory of
    ``worker-<id>.jsonl`` files under ``--workers``)."""
    return dict(
        model_path=args.model,
        beam_size=args.beam,
        threads=args.threads,
        queue_size=args.queue_size,
        per_tenant_depth=args.per_tenant_depth,
        cache_size=args.cache_size,
        cache_ttl_s=args.cache_ttl,
        index_cache=args.index_cache,
        allow_failure_injection=args.allow_injection,
        policy_path=args.policy,
        kb_refresh_interval_s=args.kb_refresh_interval,
        kb_corpus=args.kb_corpus,
    )


def _print_endpoints(tenancy) -> None:
    print("  endpoints: POST /translate  GET /healthz /livez /readyz /metrics"
          + ("  GET /tenants /tenants/<id>/usage" if tenancy else ""))


def _check_serve_args(parser: argparse.ArgumentParser, args) -> None:
    """Reject ``serve`` flags the stack cannot serve (exit 2), before
    the port is bound."""
    from repro.serving.routes import MAX_BEAM_SIZE

    if args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.workers < 0:
        parser.error("--workers must be 0 (one process) or more")
    if not 1 <= args.beam <= MAX_BEAM_SIZE:
        parser.error(f"--beam must be in 1..{MAX_BEAM_SIZE}")
    if args.queue_size < 1:
        parser.error("--queue-size must be at least 1")
    if args.per_tenant_depth is not None and args.per_tenant_depth < 1:
        parser.error("--per-tenant-depth must be at least 1")
    if args.kb_corpus is not None and args.kb_refresh_interval is None:
        parser.error("--kb-corpus requires --kb-refresh-interval")


def _cmd_serve(args: argparse.Namespace) -> int:
    import threading

    from repro.serving import ServingServer

    pairs = _parse_database_specs(args.databases)
    shutdown = threading.Event()
    _install_signal_handlers(shutdown)

    # Bind the port before the (possibly long) warm-up: /livez answers
    # immediately, /readyz answers 503 until the service is attached.
    server = ServingServer((args.host, args.port), None)
    engine = "model" if args.model is not None else "heuristic-only"
    print(f"listening on {server.url} [{engine}] — warming up ...")

    if args.workers > 0:
        return _serve_cluster(args, pairs, server, shutdown)
    return _serve_single(args, pairs, server, shutdown)


def _serve_single(args, pairs, server, shutdown) -> int:
    """One in-process stack with every database in its shard, plus
    tenancy and the HTTP server."""
    from repro.cluster.worker import ServingStack, WorkerSpec

    stack = ServingStack(WorkerSpec(
        worker_id=0,
        databases=tuple(pairs),
        shard=tuple(db_id for db_id, _ in pairs),
        default_timeout_ms=args.timeout_ms,
        **_spec_kwargs(args),
    ))
    stats = stack.registry.stats()
    print(f"indexes ready in {stack.warm_s:.2f}s "
          f"(built={stats['build_count']} loaded={stats['load_count']})")
    service = stack.service
    service.tenancy = tenancy = _build_tenancy(args, stack.metrics)
    if args.policy is not None:
        from repro.policy import rule_catalog

        print(f"policy engine enabled: {len(rule_catalog())} rule(s), "
              f"config at {args.policy}")
    server.attach(service)
    if stack.refresher is not None:
        _install_sighup(stack.refresher.trigger)
        print(f"kb refresher: polling every {args.kb_refresh_interval:g}s "
              f"(force via SIGHUP or POST /admin/refresh)")
    print(f"serving {len(pairs)} database(s): "
          f"{', '.join(sorted(service.runtimes))}")
    _print_endpoints(tenancy)
    try:
        _serve_until_signalled(server, shutdown)
    finally:
        clean = stack.close(timeout=args.drain_s)
        print("drained cleanly" if clean else "drain timed out; stopped anyway")
        if tenancy is not None:
            tenancy.close()
    return 0


def _serve_cluster(args, pairs, server, shutdown) -> int:
    from repro.cluster import ClusterConfig, ClusterService
    from repro.metrics import MetricsRegistry

    metrics = MetricsRegistry()
    tenancy = _build_tenancy(args, metrics)
    cluster = ClusterService(
        pairs,
        metrics=metrics,
        config=ClusterConfig(
            workers=args.workers,
            default_timeout_ms=args.timeout_ms,
        ),
        verbose=True,
        tenancy=tenancy,
        **_spec_kwargs(args),
    )
    cluster.start()
    server.attach(cluster)
    if args.kb_refresh_interval is not None:
        _install_sighup(cluster.trigger_refresh)
        print(f"kb refresher: per-worker, polling every "
              f"{args.kb_refresh_interval:g}s "
              f"(force via SIGHUP or POST /admin/refresh)")
    if not cluster.wait_ready(timeout=300.0):
        print("warning: cluster not fully ready yet; serving anyway", flush=True)
    print(f"cluster of {args.workers} worker(s) serving "
          f"{len(pairs)} database(s): "
          f"{', '.join(sorted(db_id for db_id, _ in pairs))}")
    for worker_id, state in sorted(cluster.worker_states().items()):
        print(f"  worker {worker_id} (pid={state['pid']}): "
              f"shard={state['shard']}")
    _print_endpoints(tenancy)
    try:
        _serve_until_signalled(server, shutdown)
    finally:
        clean = cluster.stop(timeout=args.drain_s)
        print("drained cleanly" if clean else "drain timed out; stopped anyway")
        if tenancy is not None:
            tenancy.close()
    return 0


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Pre-argparse dispatch: the legacy `corpus DIR` positional would
    # swallow "generate" as a directory name, so the subcommand routes
    # around the main parser entirely.
    if list(argv[:2]) == ["corpus", "generate"]:
        configure_cli_logging()
        return _cmd_corpus_generate(list(argv[2:]))
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    commands = parser.add_subparsers(dest="command", required=True)

    corpus = commands.add_parser("corpus", help="generate the synthetic corpus")
    corpus.add_argument("directory")
    corpus.add_argument("--train-per-domain", type=int, default=250)
    corpus.add_argument("--dev-per-domain", type=int, default=120)
    corpus.add_argument("--seed", type=int, default=42)
    corpus.set_defaults(func=_cmd_corpus)

    train = commands.add_parser("train", help="train a ValueNet model")
    train.add_argument("corpus", help="directory written by `repro corpus`")
    train.add_argument("--output", default="valuenet-model")
    train.add_argument("--mode", choices=("valuenet", "light"), default="valuenet")
    train.add_argument("--epochs", type=int, default=10)
    train.add_argument("--dim", type=int, default=64)
    train.set_defaults(func=_cmd_train)

    translate = commands.add_parser("translate", help="question -> SQL")
    translate.add_argument("question")
    translate.add_argument("--database", required=True, help="SQLite file")
    translate.add_argument("--model", required=True, help="saved model directory")
    translate.add_argument("--beam", type=int, default=1)
    translate.add_argument("--no-execute", action="store_true")
    translate.set_defaults(func=_cmd_translate)

    inspect = commands.add_parser("inspect", help="show pre-processing output")
    inspect.add_argument("question")
    inspect.add_argument("--database", required=True, help="SQLite file")
    inspect.set_defaults(func=_cmd_inspect)

    serve = commands.add_parser("serve", help="run the HTTP inference service")
    serve.add_argument(
        "--database", action="append", required=True, dest="databases",
        metavar="[ID=]PATH",
        help="SQLite file to serve (repeatable); id defaults to the file stem",
    )
    serve.add_argument(
        "--model", default=None,
        help="saved model directory; omit to serve the heuristic baseline only",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8765)
    serve.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="worker PROCESSES for cluster serving (sharded by database, "
             "supervised, auto-restarted); 0 = single in-process service",
    )
    serve.add_argument(
        "--threads", type=int, default=4,
        help="serving threads per service (per worker in cluster mode); each "
             "takes the compatible requests already queued as one batch",
    )
    serve.add_argument(
        "--drain-s", type=float, default=10.0,
        help="graceful-shutdown budget: seconds to finish accepted "
             "requests after SIGTERM/SIGINT before stopping hard",
    )
    serve.add_argument(
        "--queue-size", type=int, default=64,
        help="requests waiting for a serving thread beyond this get a 503",
    )
    serve.add_argument("--cache-size", type=int, default=256)
    serve.add_argument("--cache-ttl", type=float, default=300.0)
    serve.add_argument(
        "--timeout-ms", type=float, default=10_000.0,
        help="default per-request deadline",
    )
    serve.add_argument("--beam", type=int, default=1)
    serve.add_argument(
        "--index-cache", default=None, metavar="DIR",
        help="persist value indexes under DIR; warm restarts skip the "
             "per-database index build entirely",
    )
    serve.add_argument(
        "--allow-injection", action="store_true",
        help="honor inject_failure request flags (load/chaos testing only)",
    )
    serve.add_argument(
        "--tenants", default=None, metavar="JSON",
        help="tenants config file (enables API-key auth, per-tenant rate "
             "limits, daily quotas, and weighted-fair scheduling); the "
             "file is hot-reloaded when it changes",
    )
    serve.add_argument(
        "--quota-state", default=None, metavar="PATH",
        help="durable daily-quota ledger file (survives restarts); "
             "default: in-memory only",
    )
    serve.add_argument(
        "--per-tenant-depth", type=int, default=None, metavar="N",
        help="per-tenant backlog bound inside the fair queue "
             "(default: global --queue-size bound only)",
    )
    serve.add_argument(
        "--policy", default=None, metavar="JSON",
        help="SQL policy config file (enables the policy gate: "
             "blocked keywords, read-only enforcement, join "
             "sanity, cost bounds; see docs/policy.md)",
    )
    serve.add_argument(
        "--kb-refresh-interval", type=float, default=None, metavar="S",
        help="live schema evolution: poll watched databases every S "
             "seconds in the background and hot-swap indexes on drift "
             "(zero downtime; force via SIGHUP or POST /admin/refresh). "
             "In cluster mode each worker runs its own refresher.",
    )
    serve.add_argument(
        "--kb-corpus", default=None, metavar="PATH",
        help="grow a validated Q->SQL corpus (JSONL) as schemas drift; "
             "single-process: a file, cluster: a directory (each worker "
             "writes worker-<id>.jsonl). Requires --kb-refresh-interval.",
    )
    serve.set_defaults(func=_cmd_serve)

    args = parser.parse_args(argv)
    if args.command == "serve":
        _check_serve_args(serve, args)
    # Library modules report progress through logging (training epochs,
    # cluster supervisor events); surface them on the CLI.
    configure_cli_logging()
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
