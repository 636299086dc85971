"""Command-line interface: collect / merge / train / describe / validate / characterize.

Mirrors the deployment the paper assumes — trace collection on the
cluster, model training offline, validation and studies anywhere:

    repro collect --app gfs --requests 2000 --out traces/
    repro collect --app gfs --replicas 8 --workers 4 --out traces/
    repro collect --app gfs --replicas 2 --sweep-rate 10,25,40 --out sweep/
    repro collect --app gfs --replicas 8 --windows 4 --out traces/
    repro resume --out traces/ --workers 4
    repro append --app gfs --replicas 4 --workers 4 --out traces/
    repro collect --app gfs --replicas 4 --codec columnar --out traces/
    repro convert --in traces/ --out traces-col/ --codec columnar
    repro compact --in traces/
    repro merge --in traces/ --out traces/merged
    repro train --in traces/ --per-class --workers 4 --model classes.json
    repro describe model.json
    repro validate --in traces/ --per-class --workers 4
    repro characterize --in traces/
    repro verify --in traces/
    repro plan --in traces/ --scale 0.5:100:17 --validate-at 1,2
    repro serve --in traces/ --port 9090 --model classes.json

Every trace-consuming command takes a uniform ``--in PATH`` that
auto-detects shard stores vs flat dumps (the pre-0.3 positional path
still works as a hidden alias).  Shard stores are analyzed by the
streaming engine — one accumulator set per shard, merged — so
``characterize`` and ``validate`` never materialize the merged trace
timeline (see ``docs/streaming_analysis.md``).

Analysis commands over a shard store default to the persistent
per-shard cache (``--no-cache`` disables it); cache statistics go to
stderr so cached and uncached runs print byte-identical stdout.

``repro serve`` turns the same pipeline into a long-lived daemon:
watch-folds appended rounds, optionally ingests live records over a
socket, and serves ``/profile`` / ``/validate`` / ``/drift`` /
``/metrics`` over HTTP (see ``docs/serving.md``).  ``Ctrl-C`` exits
any command with status 130 after flushing open shard writers.
"""

from __future__ import annotations

import argparse
import os
import signal
import sys
import threading
from pathlib import Path

__all__ = ["build_parser", "main"]


def _input_path(args: argparse.Namespace, attr: str) -> Path:
    """Resolve the uniform ``--in PATH`` with its hidden positional alias."""
    positional = getattr(args, attr, None)
    if args.in_path is not None and positional is not None:
        raise SystemExit("pass the input either via --in or positionally, not both")
    path = args.in_path if args.in_path is not None else positional
    if path is None:
        raise SystemExit("no input given: pass --in PATH")
    return path


def _open_source(path: Path):
    """Auto-detect and open a trace source, with clear failure messages.

    A shard store opens as a :class:`~repro.store.ShardStore`; anything
    else as a lazy :class:`~repro.tracing.FlatTraceDump`, whose streams
    the analysis and training paths decode straight to columns.  A
    missing directory, or one without a record, is an empty dump.
    """
    from .store import ShardStore, is_shard_store
    from .tracing import FlatTraceDump

    if is_shard_store(path):
        try:
            source = ShardStore(path)
        except FileNotFoundError as error:
            raise SystemExit(str(error))
        empty = sum(source.counts().values()) == 0
    else:
        try:
            source = FlatTraceDump(path)
        except FileNotFoundError:
            source = None
        empty = source is None or not source.has_records()
    if empty:
        kind = "shard store" if isinstance(source, ShardStore) else "trace dump"
        raise SystemExit(
            f"{kind} at {path} is empty (0 records); "
            "collect traces into it first (repro collect --out)"
        )
    return source


def _cmd_collect(args: argparse.Namespace) -> int:
    from .datacenter import (
        FleetSpec,
        collect_fleet_to_store,
        run_gfs_workload,
        run_mapreduce_jobs,
        run_webapp_workload,
        sweep_replica_specs,
    )
    from .datacenter.fleet import UnfinishedCollectionError
    from .snapshot import SnapshotError
    from .tracing import save_traces

    if args.replicas < 1:
        raise SystemExit(f"--replicas must be >= 1, got {args.replicas}")
    if args.codec == "columnar" and args.gzip:
        raise SystemExit(
            "--gzip applies to jsonl stream files; columnar column "
            "buffers are raw binary and cannot combine with it"
        )
    if args.windows < 1:
        raise SystemExit(f"--windows must be >= 1, got {args.windows}")
    windowed = args.windows > 1 or args.checkpoint_dir is not None
    rate = None if args.app == "mapreduce" else args.rate
    sweep_rates = None
    if args.sweep_rate:
        try:
            sweep_rates = [float(r) for r in args.sweep_rate.split(",") if r]
        except ValueError:
            raise SystemExit(f"bad --sweep-rate list: {args.sweep_rate!r}")
        if not sweep_rates:
            raise SystemExit("--sweep-rate needs at least one rate")
    use_store = (
        args.replicas > 1
        or sweep_rates
        or args.append
        or args.codec != "jsonl"
        or windowed
    )
    if use_store:
        # Sharded fleet streamed straight to an on-disk store: each
        # replica writes shard-<idx>/ as it completes and only the
        # manifest crosses the process pool.  The stitched merge
        # depends only on (app, replicas, seed, ...), never on the
        # worker count.
        spec = FleetSpec(
            app=args.app,
            replicas=args.replicas,
            seed=args.seed,
            n_requests=args.requests,
            arrival_rate=rate,
        )
        replica_specs = None
        if sweep_rates:
            replica_specs = sweep_replica_specs(
                spec, [{"arrival_rate": r} for r in sweep_rates]
            )
            spec = None

        def report(index: int, manifest) -> None:
            print(
                f"shard {index} persisted: {manifest.n_records} records "
                f"({manifest.duration:.2f}s simulated)"
            )

        try:
            result = collect_fleet_to_store(
                spec,
                directory=args.out,
                workers=args.workers,
                compress=args.gzip,
                replica_specs=replica_specs,
                on_shard=report,
                append=args.append,
                codec=args.codec,
                windows=args.windows,
                checkpoint_dir=args.checkpoint_dir,
            )
        except (
            FileExistsError,
            FileNotFoundError,
            SnapshotError,
            UnfinishedCollectionError,
        ) as error:
            raise SystemExit(str(error))
        n_shards = len(result.manifests)
        n_replicas = sum(1 for m in result.manifests if not m.continues)
        verb = (
            f"appended round {result.round} to" if args.append else "saved"
        )
        print(
            f"{verb} shard store at {args.out} ({n_shards} shards, "
            f"{result.n_records} records; {n_replicas} replicas x "
            f"{args.workers} workers in {result.elapsed_seconds:.2f}s wall)"
        )
        return 0
    if args.app == "gfs":
        traces = run_gfs_workload(
            n_requests=args.requests, seed=args.seed, arrival_rate=args.rate
        ).traces
    elif args.app == "webapp":
        traces = run_webapp_workload(
            n_requests=args.requests, seed=args.seed, arrival_rate=args.rate
        )
    elif args.app == "mapreduce":
        traces, _ = run_mapreduce_jobs(seed=args.seed)
    else:
        raise SystemExit(f"unknown app {args.app!r}")
    save_traces(traces, args.out, compress=args.gzip)
    summary = ", ".join(f"{k}={v}" for k, v in traces.summary().items())
    print(f"saved traces to {args.out} ({summary})")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from .datacenter import resume_fleet_collection
    from .snapshot import SnapshotError

    def report(index: int, manifest) -> None:
        print(
            f"shard {index} persisted: {manifest.n_records} records "
            f"({manifest.duration:.2f}s simulated)"
        )

    try:
        result = resume_fleet_collection(
            args.out,
            checkpoint_dir=args.checkpoint_dir,
            workers=args.workers,
            on_shard=report,
        )
    except (FileNotFoundError, SnapshotError) as error:
        raise SystemExit(str(error))
    n_shards = len(result.manifests)
    n_replicas = sum(1 for m in result.manifests if not m.continues)
    print(
        f"resumed shard store at {args.out} ({n_shards} shards, "
        f"{result.n_records} records; {n_replicas} replicas x "
        f"{args.workers} workers in {result.elapsed_seconds:.2f}s wall)"
    )
    return 0


def _print_cache_stats(hits: int, misses: int) -> None:
    """Report cache effectiveness on stderr.

    stderr, not stdout: a warm run and a ``--no-cache`` run must print
    byte-identical stdout (the equality CI pins down with a diff).
    """
    print(f"cache: {hits} hits, {misses} misses", file=sys.stderr)


def _cmd_convert(args: argparse.Namespace) -> int:
    from .store import is_shard_store
    from .store.convert import convert_flat_dump, convert_store

    path = _input_path(args, "traces")
    if args.codec == "columnar" and args.gzip:
        raise SystemExit(
            "--gzip applies to jsonl stream files; it cannot combine "
            "with --codec columnar"
        )
    try:
        if is_shard_store(path):
            manifests = convert_store(
                path, args.out, args.codec, compress=args.gzip
            )
            n_records = sum(m.n_records for m in manifests)
            print(
                f"converted {len(manifests)} shards from {path} to "
                f"{args.codec} at {args.out} ({n_records} records)"
            )
        else:
            convert_flat_dump(path, args.out, args.codec, compress=args.gzip)
            print(f"converted flat dump {path} to {args.codec} at {args.out}")
    except (FileNotFoundError, FileExistsError, ValueError) as error:
        raise SystemExit(str(error))
    return 0


def _cmd_compact(args: argparse.Namespace) -> int:
    from .store import compact_store, is_shard_store

    path = _input_path(args, "store")
    if not is_shard_store(path):
        raise SystemExit(f"{path} is not a shard store")
    index = compact_store(path)
    n_shards = sum(len(v) for v in index.rounds.values())
    print(
        f"compacted {path}: {len(index.rounds)} rounds, {n_shards} shards "
        f"indexed"
    )
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    from .store import ShardStore
    from .tracing.store import refuse_stream_files, save_traces

    path = _input_path(args, "store")
    out = args.out if args.out is not None else path / "merged"
    try:
        store = ShardStore(path)
        refuse_stream_files(out)
    except (FileNotFoundError, FileExistsError) as error:
        raise SystemExit(str(error))
    save_traces(store, out, compress=args.gzip)
    summary = ", ".join(f"{k}={v}" for k, v in store.summary().items())
    print(
        f"stitched {len(store)} shards from {path} into {out} ({summary})"
    )
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    from .core import KoozaConfig, KoozaTrainer, save_model

    path = _input_path(args, "traces")
    config = KoozaConfig(
        network_size_bins=args.network_bins,
        storage_size_bins=args.storage_bins,
        memory_size_bins=args.memory_bins,
        cpu_utilization_bins=args.cpu_bins,
        hierarchical_storage=args.hierarchical,
    )
    source = _open_source(path)
    if args.per_class:
        from .store import ShardStore, save_per_class_models, train_per_class

        use_cache = args.cache and isinstance(source, ShardStore)
        try:
            fit = train_per_class(
                source, config, workers=args.workers, cache=use_cache
            )
        except ValueError as error:
            raise SystemExit(f"cannot train: {error}")
        if use_cache:
            _print_cache_stats(fit.cache_hits, fit.cache_misses)
        if not fit.models:
            raise SystemExit(
                f"no request class reached the trainable minimum; "
                f"skipped: {fit.skipped}"
            )
        save_per_class_models(fit.models, args.model)
        skipped = (
            f", skipped {sorted(fit.skipped)}" if fit.skipped else ""
        )
        print(
            f"trained {fit.n_classes} per-class models across "
            f"{args.workers} workers in {fit.elapsed_seconds:.2f}s wall"
            f"{skipped}; written to {args.model}"
        )
        return 0
    try:
        model = KoozaTrainer(config).fit(source)
    except ValueError as error:
        raise SystemExit(f"cannot train: {error}")
    save_model(model, args.model)
    print(
        f"trained on {model.n_training_requests} requests "
        f"({model.n_parameters} parameters); model written to {args.model}"
    )
    return 0


def _cmd_describe(args: argparse.Namespace) -> int:
    from .core import load_model

    path = _input_path(args, "model")
    if Path(path).is_dir():
        # Pointed at traces rather than a model file: auto-detect the
        # source and describe its streaming workload profile instead of
        # failing on a JSON parse of a directory.
        from .store import characterize_source

        source = _open_source(path)
        print(characterize_source(source, workers=args.workers).describe())
        return 0
    try:
        model = load_model(path)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load model {path}: {error}")
    print(model.describe())
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    import numpy as np

    from .core import (
        KoozaTrainer,
        ReplayHarness,
        WorkloadFeatureStats,
        compare_feature_stats,
        load_model,
    )
    from .store import ShardStore, analyze_source

    path = _input_path(args, "traces")
    source = _open_source(path)
    use_cache = args.cache and isinstance(source, ShardStore)
    if args.per_class:
        from .store import load_per_class_models, validate_per_class

        try:
            models = load_per_class_models(args.model) if args.model else None
            result = validate_per_class(
                source,
                models=models,
                seed=args.seed,
                workers=args.workers,
                cache=use_cache,
            )
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot load or train a model: {error}")
        if use_cache:
            _print_cache_stats(result.cache_hits, result.cache_misses)
        print(result.to_table())
        if result.n_validated == 0:
            print("validation failed: no request class could be compared")
            return 1
        worst = result.worst_feature_deviation_pct
        print(
            f"classes validated: {result.n_validated}/{len(result.classes)}  "
            f"worst feature deviation: {worst:.2f}%"
        )
        return 0 if worst < args.feature_limit else 1
    analysis = analyze_source(source, workers=args.workers, cache=use_cache)
    if use_cache:
        _print_cache_stats(analysis.cache_hits, analysis.cache_misses)
    original = analysis.features
    try:
        model = load_model(args.model) if args.model else KoozaTrainer().fit(source)
    except (OSError, ValueError) as error:
        raise SystemExit(f"cannot load or train a model: {error}")
    synthetic = model.synthesize(original.n, np.random.default_rng(args.seed))
    replayed = ReplayHarness(seed=args.seed + 1).replay(synthetic)
    try:
        report = compare_feature_stats(
            original, WorkloadFeatureStats.from_source(replayed)
        )
    except ValueError as error:
        # E.g. a model trained on a different workload: no common
        # request profiles at all — the strongest possible mismatch.
        print(f"validation failed: {error}")
        return 1
    print(report.to_table())
    print(
        f"worst feature deviation: {report.worst_feature_deviation_pct:.2f}%  "
        f"worst latency deviation: {report.worst_latency_deviation_pct:.2f}%"
    )
    return 0 if report.worst_feature_deviation_pct < args.feature_limit else 1


def _cmd_characterize(args: argparse.Namespace) -> int:
    from .store import ShardStore, analyze_source

    path = _input_path(args, "traces")
    source = _open_source(path)
    use_cache = args.cache and isinstance(source, ShardStore)
    analysis = analyze_source(
        source,
        window=args.window,
        workers=args.workers,
        cache=use_cache,
        max_quantile_values=args.max_quantile_values,
    )
    if use_cache:
        _print_cache_stats(analysis.cache_hits, analysis.cache_misses)
    print(analysis.profile.describe())
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .store import ShardStore, is_shard_store

    path = _input_path(args, "store")
    if not is_shard_store(path):
        raise SystemExit(f"{path} is not a shard store")
    store = ShardStore(path)
    bad = store.verify()
    if not bad:
        print(f"store at {path} verified: {len(store)} shard(s) intact")
        return 0
    for index, streams in sorted(bad.items()):
        print(f"shard {index}: content mismatch in {', '.join(streams)}")
    print(f"verification FAILED: {len(bad)} of {len(store)} shard(s) corrupt")
    return 1


def _plan_validation_spec(args: argparse.Namespace, source):
    """Derive the 1x simulation operating point for --validate-at.

    A shard store remembers what produced it (app, seed, arrival rate
    in the shard manifests); a flat dump or bare model file falls back
    to ``--app`` and the app's default rate.
    """
    from .datacenter import FleetSpec
    from .store import ShardStore

    app = args.app
    rate = None
    if isinstance(source, ShardStore):
        manifest = min(source.manifests, key=lambda m: m.index)
        app = manifest.app
        rate = manifest.params.get("arrival_rate")
    if app == "mapreduce":
        raise SystemExit(
            "--validate-at needs a rate-scalable app; mapreduce runs a "
            "fixed job mix with no arrival rate"
        )
    return FleetSpec(
        app=app,
        replicas=args.validate_replicas,
        seed=args.seed,
        n_requests=args.validate_requests,
        arrival_rate=rate,
    )


def _cmd_plan(args: argparse.Namespace) -> int:
    import json

    from .queueing.plan import (
        cross_validate,
        fit_cluster_model,
        parse_multipliers,
        plan_sweep,
        validation_table,
    )
    from .store import ShardStore, load_per_class_models

    path = _input_path(args, "source")
    try:
        multipliers = parse_multipliers(args.scale)
        validate_at = (
            parse_multipliers(args.validate_at) if args.validate_at else []
        )
    except ValueError as error:
        raise SystemExit(str(error))
    customers = args.customers if args.solver == "mva" else None
    source = _open_source(path) if Path(path).is_dir() else None
    model_path = args.model if source is not None else path
    models = None
    if model_path is not None:
        try:
            models = load_per_class_models(model_path)
        except (OSError, ValueError) as error:
            raise SystemExit(f"cannot load model {model_path}: {error}")
    if source is None and args.rate is None:
        raise SystemExit(
            "a bare model file carries no arrival rates; pass --rate"
        )
    try:
        cluster = fit_cluster_model(
            source,
            models=models,
            base_rate=args.rate,
            seed=args.seed,
            max_per_class=args.max_per_class,
            workers=args.workers,
            cache=args.cache and isinstance(source, ShardStore),
        )
    except ValueError as error:
        raise SystemExit(str(error))
    spec = _plan_validation_spec(args, source) if validate_at else None
    try:
        plan = plan_sweep(
            cluster,
            multipliers,
            solver=args.solver,
            think_time=args.think_time,
            customers=customers,
        )
        validation = (
            cross_validate(
                cluster,
                validate_at,
                spec,
                solver=args.solver,
                think_time=args.think_time,
                customers=customers,
                workers=args.workers,
            )
            if validate_at
            else []
        )
    except ValueError as error:
        raise SystemExit(str(error))
    if args.json:
        payload = {
            "plan": plan.to_dict(),
            "validation": [p.to_dict() for p in validation],
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(plan.to_text())
    if validation:
        print("cross-validation (analytic vs targeted simulation):")
        print(validation_table(validation))
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .serve import DriftThresholds, ServeConfig, ServeDaemon, ServeError

    path = _input_path(args, "store")
    config = ServeConfig(
        host=args.host,
        port=args.port,
        poll_interval=args.poll_interval,
        window=args.window,
        max_quantile_values=args.max_quantile_values,
        cache=args.cache,
        complete_rounds_only=not args.partial_rounds,
        model_path=args.model,
        checkpoint_path=args.checkpoint,
        ingest_port=args.ingest_port,
        ingest_host=args.host,
        ingest_socket=args.ingest_socket,
        drift_window_requests=args.drift_window,
        thresholds=DriftThresholds(
            ks=args.drift_ks_threshold,
            mix=args.drift_mix_threshold,
            rate_sigmas=args.drift_rate_sigmas,
        ),
    )
    daemon = ServeDaemon(path, config)
    try:
        daemon.start()
    except ServeError as error:
        raise SystemExit(str(error))
    host, port = daemon.http_address
    print(f"serving {path} on http://{host}:{port}", flush=True)
    if daemon.ingest is not None:
        print(f"ingest listening on {daemon.ingest.address}", flush=True)
    stop = threading.Event()
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: stop.set())
    try:
        while not stop.wait(0.5):
            pass
        return 0
    finally:
        signal.signal(signal.SIGTERM, previous)
        # Runs on SIGTERM and KeyboardInterrupt alike: stops listeners,
        # commits any half-open ingest shard, writes the checkpoint.
        daemon.shutdown()


def build_parser() -> argparse.ArgumentParser:
    from ._version import tool_version

    parser = argparse.ArgumentParser(
        prog="repro",
        description="Datacenter workload modeling: in-breadth, in-depth, KOOZA",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "checkpoint flags (one vocabulary across commands):\n"
            "  serve   --checkpoint PATH      one daemon-state snapshot file,\n"
            "                                 written after folds and at shutdown\n"
            "  collect --windows N            split each replica into N window\n"
            "                                 shards, engine-checkpointing at\n"
            "                                 every window boundary\n"
            "  collect --checkpoint-dir DIR   where those per-replica engine\n"
            "                                 checkpoints live (default\n"
            "                                 <out>/_checkpoints)\n"
            "  resume  --checkpoint-dir DIR   read the same directory to finish\n"
            "                                 an interrupted windowed collect\n"
            "All snapshot files share the repro.snapshot versioned format."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {tool_version()}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(cmd: argparse.ArgumentParser, attr: str) -> None:
        # Uniform input: `--in PATH` auto-detects shard stores vs flat
        # dumps; the pre-0.3 positional form stays as a hidden alias.
        cmd.add_argument(attr, type=Path, nargs="?", help=argparse.SUPPRESS)
        cmd.add_argument(
            "--in",
            dest="in_path",
            type=Path,
            default=None,
            metavar="PATH",
            help="input traces: a shard store or flat dump (auto-detected)",
        )

    def add_cache_flag(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--cache",
            action=argparse.BooleanOptionalAction,
            default=True,
            help="reuse / persist per-shard analysis caches under "
            "<store>/_cache (shard stores only; default on)",
        )

    def add_collect_args(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument(
            "--app", choices=("gfs", "webapp", "mapreduce"), default="gfs"
        )
        cmd.add_argument(
            "--requests",
            type=int,
            default=2000,
            help="requests per replica for gfs and webapp (default 2000); "
            "mapreduce ignores it and runs its standard batch of 8 jobs",
        )
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument(
            "--rate",
            type=float,
            default=25.0,
            help="Poisson arrival rate in requests per simulated second "
            "(default 25.0, for webapp too: the library default of "
            "run_webapp_workload and FleetSpec for webapp is 120); "
            "mapreduce ignores it",
        )
        cmd.add_argument(
            "--replicas",
            type=int,
            default=1,
            help="independent workload replicas to run and merge (default 1)",
        )
        cmd.add_argument(
            "--workers",
            type=int,
            default=1,
            help="worker processes for the replica fleet; 0 = all cores "
            "(merged traces are identical for any worker count)",
        )
        cmd.add_argument(
            "--sweep-rate",
            default=None,
            metavar="R1,R2,...",
            help="sweep arrival rate across replicas: each listed rate gets "
            "--replicas repetitions, recorded in shard manifests",
        )
        cmd.add_argument(
            "--gzip", action="store_true", help="gzip trace stream files"
        )
        cmd.add_argument(
            "--codec",
            choices=("jsonl", "columnar"),
            default="jsonl",
            help="shard stream layout: jsonl line files (default) or the "
            "binary columnar struct-of-arrays layout (vectorized "
            "analysis reads whole column buffers)",
        )
        cmd.add_argument(
            "--windows",
            type=int,
            default=1,
            help="split each replica into N window shards, checkpointing "
            "its engine at every boundary so a killed worker resumes "
            "from the last window (repro resume); the finished store "
            "merges identically to a single-shot collect (default 1)",
        )
        cmd.add_argument(
            "--checkpoint-dir",
            type=Path,
            default=None,
            help="directory for per-replica engine checkpoints (default "
            "<out>/_checkpoints; implies windowed collection)",
        )
        cmd.add_argument("--out", type=Path, required=True)

    collect = sub.add_parser("collect", help="run a workload, save traces")
    add_collect_args(collect)
    collect.add_argument(
        "--append",
        action="store_true",
        help="add a collection round to an existing shard store instead "
        "of requiring a fresh --out directory",
    )
    collect.set_defaults(func=_cmd_collect)

    append = sub.add_parser(
        "append",
        help="add a collection round to an existing shard store "
        "(collect --append)",
    )
    add_collect_args(append)
    append.set_defaults(func=_cmd_collect, append=True)

    resume = sub.add_parser(
        "resume",
        help="finish an interrupted windowed collect from its engine "
        "checkpoints (collect --windows)",
    )
    resume.add_argument(
        "--out",
        type=Path,
        required=True,
        help="the shard store an interrupted collect --windows was "
        "writing",
    )
    resume.add_argument(
        "--checkpoint-dir",
        type=Path,
        default=None,
        help="where that collect kept its engine checkpoints (default "
        "<out>/_checkpoints)",
    )
    resume.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes; 0 = all cores (the resumed store is "
        "identical for any worker count)",
    )
    resume.set_defaults(func=_cmd_resume)

    compact = sub.add_parser(
        "compact",
        help="fold a store's per-round manifests into one index.json",
    )
    add_input(compact, "store")
    compact.set_defaults(func=_cmd_compact)

    convert = sub.add_parser(
        "convert",
        help="rewrite a store or flat dump under another stream codec",
    )
    add_input(convert, "traces")
    convert.add_argument("--out", type=Path, required=True)
    convert.add_argument(
        "--codec", choices=("jsonl", "columnar"), required=True,
        help="target stream layout",
    )
    convert.add_argument(
        "--gzip", action="store_true",
        help="gzip the rewritten jsonl stream files",
    )
    convert.set_defaults(func=_cmd_convert)

    merge = sub.add_parser(
        "merge", help="stitch a sharded trace store into one flat dump"
    )
    add_input(merge, "store")
    merge.add_argument(
        "--out",
        type=Path,
        default=None,
        help="output directory (default: <store>/merged)",
    )
    merge.add_argument(
        "--gzip", action="store_true", help="gzip the merged stream files"
    )
    merge.set_defaults(func=_cmd_merge)

    train = sub.add_parser("train", help="train KOOZA from saved traces")
    add_input(train, "traces")
    train.add_argument("--model", type=Path, required=True)
    train.add_argument("--network-bins", type=int, default=8)
    train.add_argument("--storage-bins", type=int, default=6)
    train.add_argument("--memory-bins", type=int, default=6)
    train.add_argument("--cpu-bins", type=int, default=8)
    train.add_argument("--hierarchical", action="store_true")
    train.add_argument(
        "--per-class",
        action="store_true",
        help="fit one model per request class, fanned over shards",
    )
    train.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for --per-class fits; 0 = all cores",
    )
    add_cache_flag(train)
    train.set_defaults(func=_cmd_train)

    describe = sub.add_parser(
        "describe",
        help="print a trained model (or the profile of a trace directory)",
    )
    add_input(describe, "model")
    describe.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes when describing a shard store; 0 = all cores",
    )
    describe.set_defaults(func=_cmd_describe)

    validate = sub.add_parser(
        "validate", help="synthesize, replay and compare against traces"
    )
    add_input(validate, "traces")
    validate.add_argument(
        "--model",
        type=Path,
        default=None,
        help="trained model JSON (per-class table with --per-class); "
        "trained from the input traces when omitted",
    )
    validate.add_argument("--seed", type=int, default=42)
    validate.add_argument("--feature-limit", type=float, default=1.0)
    validate.add_argument(
        "--per-class",
        action="store_true",
        help="replay each request class's model and report Table-2 "
        "deviations per class plus the cross-class mix",
    )
    validate.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for streaming analysis over a shard "
        "store; 0 = all cores",
    )
    add_cache_flag(validate)
    validate.set_defaults(func=_cmd_validate)

    characterize = sub.add_parser(
        "characterize", help="in-breadth summary of saved traces"
    )
    add_input(characterize, "traces")
    characterize.add_argument("--window", type=float, default=0.25)
    characterize.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for streaming analysis over a shard "
        "store; 0 = all cores",
    )
    characterize.add_argument(
        "--max-quantile-values",
        type=int,
        default=None,
        metavar="N",
        help="bound every exact-quantile buffer at N values; beyond the "
        "bound quantiles degrade to reservoir estimates (default: exact)",
    )
    add_cache_flag(characterize)
    characterize.set_defaults(func=_cmd_characterize)

    verify = sub.add_parser(
        "verify",
        help="re-hash a store's stream files against its manifests",
    )
    add_input(verify, "store")
    verify.set_defaults(func=_cmd_verify)

    plan = sub.add_parser(
        "plan",
        help="analytic capacity plan: load sweep, saturation knee, "
        "simulation cross-validation",
    )
    add_input(plan, "source")
    plan.add_argument(
        "--model",
        type=Path,
        default=None,
        help="per-class model JSON (repro train --per-class); trained "
        "from the input traces when omitted",
    )
    plan.add_argument(
        "--scale",
        default="0.5:100:17",
        metavar="GRID",
        help="load-multiplier grid: LOW:HIGH:POINTS (geometric) or an "
        "explicit M1,M2,... list (default 0.5:100:17)",
    )
    plan.add_argument(
        "--validate-at",
        default=None,
        metavar="M1,M2,...",
        help="multipliers to cross-validate by targeted sharded "
        "simulation (same grid syntax as --scale)",
    )
    plan.add_argument(
        "--validate-requests",
        type=int,
        default=300,
        help="requests per replica in each validation run (default 300)",
    )
    plan.add_argument(
        "--validate-replicas",
        type=int,
        default=2,
        help="replicas per validation run (default 2)",
    )
    plan.add_argument(
        "--solver",
        choices=("jackson", "mva"),
        default="jackson",
        help="open Jackson network (default) or closed MVA with "
        "--customers interactive users",
    )
    plan.add_argument(
        "--customers",
        type=int,
        default=16,
        help="base closed population at 1x for --solver mva (default 16)",
    )
    plan.add_argument(
        "--think-time",
        type=float,
        default=0.0,
        help="think time in seconds between requests for --solver mva",
    )
    plan.add_argument(
        "--rate",
        type=float,
        default=None,
        help="base arrival rate (req/s) at 1x; required for a bare "
        "model file, overrides the profiled rate for traces",
    )
    plan.add_argument(
        "--app",
        choices=("gfs", "webapp"),
        default="gfs",
        help="app to simulate for --validate-at when the input is not "
        "a shard store (stores remember their own app)",
    )
    plan.add_argument("--seed", type=int, default=42)
    plan.add_argument(
        "--max-per-class",
        type=int,
        default=256,
        help="synthetic requests replayed per class to measure service "
        "demands (default 256)",
    )
    plan.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes for analysis and validation fleets; "
        "0 = all cores",
    )
    plan.add_argument(
        "--json",
        action="store_true",
        help="emit the plan and validation points as JSON",
    )
    add_cache_flag(plan)
    plan.set_defaults(func=_cmd_plan)

    serve = sub.add_parser(
        "serve",
        help="serve live characterization of a (growing) shard store "
        "over HTTP",
    )
    add_input(serve, "store")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port",
        type=int,
        default=9090,
        help="HTTP port for /healthz /metrics /profile /validate /drift "
        "(0 = ephemeral; default 9090)",
    )
    serve.add_argument(
        "--model",
        type=Path,
        default=None,
        help="per-class model JSON (repro train --per-class); enables "
        "/validate and model-based drift baselines",
    )
    serve.add_argument(
        "--poll-interval",
        type=float,
        default=2.0,
        help="seconds between store polls for appended rounds "
        "(<= 0 disables watching; default 2)",
    )
    serve.add_argument(
        "--checkpoint",
        type=Path,
        default=None,
        help="daemon state file: written after folds and at shutdown, "
        "restored at startup when it matches the store",
    )
    serve.add_argument(
        "--ingest-port",
        type=int,
        default=None,
        help="TCP port accepting line-delimited JSON records "
        "(0 = ephemeral; off by default)",
    )
    serve.add_argument(
        "--ingest-socket",
        type=Path,
        default=None,
        help="Unix socket path accepting line-delimited JSON records",
    )
    serve.add_argument("--window", type=float, default=0.25)
    serve.add_argument(
        "--max-quantile-values",
        type=int,
        default=None,
        metavar="N",
        help="bound every exact-quantile buffer at N values (must match "
        "the batch runs /profile should be byte-equal with)",
    )
    serve.add_argument(
        "--partial-rounds",
        action="store_true",
        help="fold complete shards as they appear instead of waiting "
        "for whole recorded rounds",
    )
    serve.add_argument(
        "--drift-window",
        type=int,
        default=256,
        help="recent completed requests judged for drift (default 256)",
    )
    serve.add_argument(
        "--drift-ks-threshold",
        type=float,
        default=0.25,
        help="KS distance that trips the latency drift alarm",
    )
    serve.add_argument(
        "--drift-mix-threshold",
        type=float,
        default=0.35,
        help="total-variation distance that trips the class-mix alarm",
    )
    serve.add_argument(
        "--drift-rate-sigmas",
        type=float,
        default=4.0,
        help="request-rate z-score that trips the rate alarm",
    )
    add_cache_flag(serve)
    serve.set_defaults(func=_cmd_serve)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return status
    except KeyboardInterrupt:
        # Fleet workers / shard writers clean up via their context
        # managers (aborted shards leave no manifest); the serve path
        # additionally flushes ingest and checkpoints in its finally.
        print("interrupted", file=sys.stderr)
        return 130
    except BrokenPipeError:
        # The reader went away (``repro characterize ... | head``).
        # Point stdout at devnull so the interpreter's own flush at
        # exit cannot raise again, and fail quietly.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
