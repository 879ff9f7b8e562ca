"""Command-line demo of SPOT (the reproduction of the paper's demo plan).

The evidence layer is spec-driven: every experiment and benchmark is declared
in :mod:`repro.eval.registry`, and the two generic subcommands run them by
identifier with ``--set key=value`` overrides validated against the declared
parameter schemas.

``spot-demo experiment [ID] [--set k=v ...]``
    Run one registered experiment (F1, E1–E5, T1, L1–L3, R1–R2, A1–A4) and print
    its result table.  ``--list`` prints the registry index (``--markdown``
    for the README table), ``--dry-run`` resolves and prints the parameters
    (and grid cells) without running.

``spot-demo bench [ID] [--set k=v ...] [--out FILE]``
    Run one registered benchmark (throughput, learning, service,
    learning-service, serving-sweep, chaos, rebalance; default: throughput)
    and write its unified ``spot-bench/v1`` JSON report, stamped with git
    provenance.

``spot-demo detect`` / ``spot-demo compare``
    Run the full pipeline (or the baseline comparison) on a named workload.

``spot-demo serve`` / ``spot-demo replay``
    Run the sharded multi-tenant detection service (optionally
    checkpointing), or restore a checkpoint and resume its recorded
    workload.

``spot-demo fleet``
    Elastic-fleet verbs: ``fleet rebalance`` runs the R2 live-reshard suite
    (mid-stream shard split/merge with decision/SST parity against the
    topology-reenacting oracle), ``fleet status`` serves the workload —
    resizing mid-run when ``--to-shards`` is given — and emits the
    rebalancer's status JSON (topology, queue depths, migration history).

``spot-demo metrics`` / ``spot-demo trace``
    Observability demos: run a short multi-tenant serve and emit the
    service's ``spot-metrics/v1`` registry snapshot, or run it supervised
    with an injected crash under a :class:`~repro.obs.trace.Tracer` and emit
    the deterministic ``spot-trace/v1`` span trace (crash → restore →
    replay included).

``spot-demo bench-history``
    The bench-history database (``bench <id> --record`` appends to it):
    list recorded runs, show entries, check the newest run for regressions
    against the recorded history, or print a metric's trend.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, Optional, Sequence

from .baselines import FullSpaceGridDetector, KNNWindowDetector, RandomSubspaceDetector
from .core.config import SPOTConfig
from .core.detector import SPOT
from .core.exceptions import ConfigurationError
from .eval import (
    BENCHES,
    EXPERIMENTS,
    build_bench_payload,
    build_workload,
    collect_cli_overrides,
    compare_detectors,
    format_table,
    get_bench,
    get_experiment,
    registry_table,
    rows_from_evaluations,
)
from .eval.spec import ExperimentSpec
from .eval.workloads import WORKLOAD_BUILDERS


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spot-demo",
        description="SPOT: detecting projected outliers from high-dimensional "
                    "data streams (ICDE 2008 reproduction)",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    detect = subparsers.add_parser("detect", help="run SPOT on a workload")
    detect.add_argument("--workload", choices=sorted(WORKLOAD_BUILDERS),
                        default="synthetic")
    detect.add_argument("--omega", type=int, default=500)
    detect.add_argument("--rd-threshold", type=float, default=0.3)
    detect.add_argument("--max-dimension", type=int, default=2)
    detect.add_argument("--show", type=int, default=5,
                        help="number of detected outliers to print in detail")
    detect.add_argument("--engine", choices=("python", "vectorized"),
                        default="vectorized",
                        help="detection substrate (vectorized = NumPy fast path)")

    experiment = subparsers.add_parser(
        "experiment", help="run a registered experiment by id")
    experiment.add_argument("id", nargs="?", choices=sorted(EXPERIMENTS),
                            help="experiment identifier (F1, E1-E5, T1, "
                                 "L1-L3, R1-R2, A1-A4)")
    experiment.add_argument("--set", action="append", default=[],
                            metavar="KEY=VALUE", dest="assignments",
                            help="override one declared parameter "
                                 "(repeatable; lists are comma-separated)")
    experiment.add_argument("--list", action="store_true",
                            help="print the registry index instead of running")
    experiment.add_argument("--markdown", action="store_true",
                            help="with --list: print the README markdown table")
    experiment.add_argument("--dry-run", action="store_true",
                            help="resolve and print the parameters (and grid "
                                 "cells) without running")

    compare = subparsers.add_parser("compare",
                                    help="compare SPOT against the baselines")
    compare.add_argument("--workload", choices=sorted(WORKLOAD_BUILDERS),
                         default="synthetic")
    compare.add_argument("--engine", choices=("python", "vectorized"),
                         default="vectorized",
                         help="engine used by SPOT and the grid baselines")

    bench = subparsers.add_parser(
        "bench", help="run a registered benchmark and write its JSON report")
    bench.add_argument("id", nargs="?", choices=sorted(BENCHES),
                       default="throughput",
                       help="benchmark identifier (default: throughput)")
    bench.add_argument("--set", action="append", default=[],
                       metavar="KEY=VALUE", dest="assignments",
                       help="override one declared parameter (repeatable)")
    bench.add_argument("--out", default=None,
                       help="output path of the JSON report (default: the "
                            "spec's committed artifact name)")
    bench.add_argument("--list", action="store_true",
                       help="print the registered benchmarks instead of "
                            "running")
    bench.add_argument("--dry-run", action="store_true",
                       help="resolve and print the parameters without running")
    bench.add_argument("--record", action="store_true",
                       help="after writing the report, append the run to the "
                            "bench-history database (see 'bench-history')")
    bench.add_argument("--history-dir", default="benchmarks/history",
                       help="bench-history database directory "
                            "(default: benchmarks/history)")
    # Historical `bench` flags (the subcommand used to be throughput-only);
    # they are derived from the throughput spec's schema and matched to the
    # selected spec by parameter name.
    BENCHES["throughput"].schema.add_cli_arguments(bench)

    serve = subparsers.add_parser(
        "serve", help="run the sharded multi-tenant detection service")
    serve.add_argument("--shards", type=int, default=4)
    serve.add_argument("--tenants", type=int, default=8)
    serve.add_argument("--dimensions", type=int, default=10)
    serve.add_argument("--points", type=int, default=1500,
                       help="detection points per tenant")
    serve.add_argument("--training", type=int, default=80,
                       help="training points per tenant (shared prototype)")
    serve.add_argument("--max-batch", type=int, default=512,
                       help="micro-batch coalescing limit per shard")
    serve.add_argument("--max-delay", type=float, default=0.002,
                       help="max seconds a partial micro-batch waits for more "
                            "points")
    serve.add_argument("--router", choices=("static", "ring"),
                       default="static",
                       help="shard router: static modulo placement, or the "
                            "consistent-hash ring (minimal key movement on "
                            "a fleet resize)")
    serve.add_argument("--learning-mode", choices=("sync", "async"),
                       default="sync",
                       help="sync = online MOGA searches run inline in the "
                            "detection path; async = they run on the "
                            "learning coordinator's worker pool and their "
                            "SSTs are published back at deterministic apply "
                            "points (decision-identical)")
    serve.add_argument("--learning-workers", type=int, default=2,
                       help="worker pool size of the learning coordinator "
                            "(async mode)")
    serve.add_argument("--os-growth", action="store_true",
                       help="enable outlier-driven OS growth in the served "
                            "detectors (an online learning trigger)")
    serve.add_argument("--evolution-period", type=int, default=0,
                       help="CS self-evolution period of the served "
                            "detectors (0 disables; an online learning "
                            "trigger)")
    serve.add_argument("--seed", type=int, default=19)
    serve.add_argument("--supervise", action="store_true",
                       help="attach the shard supervisor: a crashed shard is "
                            "restarted from its latest checkpoint snapshot "
                            "and replayed decision-identically instead of "
                            "failing the run")
    serve.add_argument("--max-restarts", type=int, default=5,
                       help="per-shard restart budget of the supervisor")
    serve.add_argument("--deadline-ms", type=float, default=0.0,
                       help="per-point detection deadline in milliseconds "
                            "(0 disables)")
    serve.add_argument("--deadline-policy", choices=("shed", "degrade"),
                       default="shed",
                       help="what happens to a point past its deadline: "
                            "drop it (shed) or score it late and mark it "
                            "(degrade)")
    serve.add_argument("--fault-crash-at", type=int, action="append",
                       default=None, metavar="SEQ",
                       help="inject a worker crash at this global point "
                            "(repeatable; combine with --supervise to "
                            "exercise recovery)")
    serve.add_argument("--fault-crashes", type=int, default=0,
                       help="inject N seeded worker crashes at random "
                            "positions (ignored when --fault-crash-at is "
                            "given)")
    serve.add_argument("--fault-stall-at", type=int, action="append",
                       default=None, metavar="SEQ",
                       help="stall the batch containing this global point "
                            "(repeatable; drives deadline shedding)")
    serve.add_argument("--fault-stall-ms", type=float, default=50.0,
                       help="length of each injected stall in milliseconds")
    serve.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault plan (placement + jitter)")
    serve.add_argument("--checkpoint-dir", default=None,
                       help="directory for service checkpoints (final "
                            "checkpoint is always written when set)")
    serve.add_argument("--checkpoint-every", type=int, default=0,
                       help="also checkpoint every N submitted points")
    serve.add_argument("--stop-after", type=int, default=None,
                       help="serve only the first N workload points, so the "
                            "final checkpoint records a mid-stream position "
                            "that 'replay' can resume from")

    fleet = subparsers.add_parser(
        "fleet",
        help="elastic-fleet operations: live-reshard a served workload with "
             "oracle parity checks, or report the fleet's topology and "
             "migration history")
    fleet.add_argument("action", choices=("rebalance", "status"),
                       help="rebalance = run the R2 live-reshard suite at "
                            "the given sizes and verify zero decision "
                            "drift; status = serve the workload (resizing "
                            "mid-run when --to-shards is given) and emit "
                            "the rebalancer's status JSON")
    fleet.add_argument("--shards", type=int, default=4,
                       help="initial fleet size")
    fleet.add_argument("--tenants", type=int, default=8)
    fleet.add_argument("--dimensions", type=int, default=8)
    fleet.add_argument("--points", type=int, default=400,
                       help="detection points per tenant")
    fleet.add_argument("--training", type=int, default=60,
                       help="training points per tenant (shared prototype)")
    fleet.add_argument("--max-batch", type=int, default=64,
                       help="micro-batch coalescing limit per shard")
    fleet.add_argument("--router", choices=("static", "ring"),
                       default="ring",
                       help="shard router of the fleet (the ring keeps "
                            "survivor shards' tenants in place on a resize)")
    fleet.add_argument("--to-shards", type=int, action="append", default=None,
                       metavar="N",
                       help="fleet size to resize to mid-run (repeatable, "
                            "applied in order; rebalance defaults to a "
                            "split to shards+2 then a merge to shards-1)")
    fleet.add_argument("--at", type=float, action="append", default=None,
                       metavar="FRACTION",
                       help="stream fraction at which each resize fires "
                            "(one per --to-shards; default: evenly spaced)")
    fleet.add_argument("--seed", type=int, default=19)
    fleet.add_argument("--out", default=None,
                       help="status: write the JSON export to this file "
                            "(default: stdout)")

    replay = subparsers.add_parser(
        "replay", help="restore a service checkpoint and resume its workload")
    replay.add_argument("--checkpoint-dir", required=True,
                        help="directory written by 'serve --checkpoint-dir'")
    replay.add_argument("--points", type=int, default=None,
                        help="cap on how many remaining points to replay "
                             "(default: all)")

    def add_obs_serve_flags(sub: argparse.ArgumentParser) -> None:
        """Workload/topology flags shared by the observability demo verbs."""
        sub.add_argument("--shards", type=int, default=2)
        sub.add_argument("--tenants", type=int, default=4)
        sub.add_argument("--dimensions", type=int, default=8)
        sub.add_argument("--points", type=int, default=300,
                         help="detection points per tenant")
        sub.add_argument("--training", type=int, default=60,
                         help="training points per tenant (shared prototype)")
        sub.add_argument("--max-batch", type=int, default=64,
                         help="micro-batch coalescing limit per shard")
        sub.add_argument("--seed", type=int, default=19)
        sub.add_argument("--out", default=None,
                         help="write the JSON export to this file (default: "
                              "stdout; progress goes to stderr either way)")

    metrics = subparsers.add_parser(
        "metrics",
        help="run a short multi-tenant serve and emit its spot-metrics/v1 "
             "registry snapshot")
    add_obs_serve_flags(metrics)

    trace = subparsers.add_parser(
        "trace",
        help="run a short supervised serve with injected crashes under a "
             "tracer and emit the spot-trace/v1 span trace")
    add_obs_serve_flags(trace)
    trace.add_argument("--fault-crashes", type=int, default=1,
                       help="seeded worker crashes to inject (the supervisor "
                            "recovers them; 0 traces a fault-free serve)")
    trace.add_argument("--fault-seed", type=int, default=0,
                       help="seed of the fault plan")
    trace.add_argument("--capacity", type=int, default=8192,
                       help="tracer ring-buffer capacity (oldest spans are "
                            "dropped beyond it)")

    explain = subparsers.add_parser(
        "explain",
        help="run a short serve with decision provenance on and explain why "
             "a point was (or was not) flagged: contributing subspaces, cell "
             "keys, densities, rule margins, SST version")
    add_obs_serve_flags(explain)
    explain.add_argument("--seq", type=int, default=None,
                         help="global sequence number of the point to "
                              "explain (default: the first flagged outlier)")

    flight = subparsers.add_parser(
        "flight",
        help="run a short serve with the flight recorder on and inspect the "
             "per-shard rings of recent decisions + service events")
    flight.add_argument("action", choices=("list", "show"),
                        help="list per-shard ring occupancy; show the full "
                             "spot-flight/v1 export")
    add_obs_serve_flags(flight)
    flight.add_argument("--shard", type=int, default=None,
                        help="show: restrict to one shard's ring")
    flight.add_argument("--capacity", type=int, default=256,
                        help="flight-ring capacity per shard")

    diag = subparsers.add_parser(
        "diag",
        help="run a short serve with the recorder on (optionally crashing a "
             "shard via the seeded fault plan) and emit a spot-diag/v1 "
             "diagnostics bundle")
    add_obs_serve_flags(diag)
    diag.add_argument("--fault-crashes", type=int, default=0,
                      help="seeded worker crashes to inject (adds crash-time "
                           "bundles when --diag-dir is set)")
    diag.add_argument("--fault-seed", type=int, default=0,
                      help="seed of the fault plan")
    diag.add_argument("--capacity", type=int, default=256,
                      help="flight-ring capacity per shard")
    diag.add_argument("--diag-dir", default=None,
                      help="directory for crash-time diagnostics bundles")

    slo = subparsers.add_parser(
        "slo",
        help="run a short serve with per-tenant SLO tracking and report "
             "burn-rate classifications (ok/warn/breach)")
    add_obs_serve_flags(slo)
    slo.add_argument("--latency-p95-ms", type=float, default=50.0,
                     help="per-tenant delivery-latency p95 objective")
    slo.add_argument("--max-shed", type=float, default=0.01,
                     help="per-tenant shed-fraction budget")
    slo.add_argument("--max-quarantine", type=float, default=0.01,
                     help="per-tenant quarantine-fraction budget")
    slo.add_argument("--window", type=int, default=200,
                     help="classification window in points")
    slo.add_argument("--deadline-ms", type=float, default=0.0,
                     help="per-point deadline (shed policy) to exercise "
                          "shedding against the budget; 0 disables")

    profile = subparsers.add_parser(
        "profile",
        help="cProfile the detection hot path (process_batch on the T1 "
             "throughput workload) and print the top functions")
    profile.add_argument("--dimensions", type=int, default=10,
                         help="stream dimensionality")
    profile.add_argument("--points", type=int, default=20000,
                         help="detection-segment length")
    profile.add_argument("--training", type=int, default=500,
                         help="training batch size (learned outside the "
                              "profiler)")
    profile.add_argument("--engine", default="vectorized",
                         choices=("python", "vectorized"))
    profile.add_argument("--top", type=int, default=25,
                         help="rows of the profile report")
    profile.add_argument("--sort", default="cumulative",
                         choices=("cumulative", "tottime"),
                         help="profile ordering")
    profile.add_argument("--seed", type=int, default=19)

    history = subparsers.add_parser(
        "bench-history",
        help="inspect the recorded bench-run history and check it for "
             "regressions")
    history.add_argument("action", choices=("list", "show", "check", "trend"),
                         help="list recorded benches; show one bench's "
                              "entries (JSONL); check the newest run (or a "
                              "--payload report) against the recorded "
                              "history; print one metric's trend")
    history.add_argument("bench", nargs="?", default=None,
                         help="bench identifier (required for show/trend; "
                              "check defaults to every recorded bench)")
    history.add_argument("--history-dir", default="benchmarks/history",
                         help="bench-history database directory")
    history.add_argument("--tolerance", type=float, default=None,
                         help="relative tolerance of the regression checker "
                              "(default: 0.5, i.e. flag a directed metric "
                              "moving >50%% against its direction)")
    history.add_argument("--payload", default=None,
                         help="check: use this spot-bench/v1 report as the "
                              "candidate instead of the newest recorded run")
    history.add_argument("--metric", default=None,
                         help="trend: the metric to report")
    return parser


# --------------------------------------------------------------------- #
# The spec-driven experiment / bench harness
# --------------------------------------------------------------------- #
def _print_report(report) -> None:
    print(f"[{report.experiment_id}] {report.title}")
    print(format_table(list(report.rows), columns=report.column_names()))
    if report.notes:
        print(f"\nNotes: {report.notes}")


def _resolve_overrides(spec: ExperimentSpec,
                       args: argparse.Namespace) -> Dict[str, object]:
    """Merge schema-derived flag values and ``--set`` assignments."""
    overrides: Dict[str, object] = {}
    flags = collect_cli_overrides(args, BENCHES["throughput"].schema)
    for name, value in flags.items():
        # `bench` carries the throughput spec's historical flags; match them
        # to the selected spec by parameter name.
        spec.schema.get(name)
        overrides[name] = value
    overrides.update(spec.schema.apply_set(args.assignments))
    return overrides


def _print_dry_run(spec: ExperimentSpec, params: Dict[str, object]) -> None:
    cells = spec.cells(params)
    print(f"[{spec.id}] {spec.title}")
    print(f"  {spec.description}")
    for name, value in params.items():
        print(f"  {name} = {value!r}")
    if spec.grid is not None:
        axes = " x ".join(axis.name for axis in spec.grid.axes)
        print(f"  grid: {len(cells)} cells over ({axes})")
    print("(dry run: nothing executed)")


def _run_experiment(args: argparse.Namespace) -> int:
    if args.list:
        print(registry_table(markdown=args.markdown))
        return 0
    if not args.id:
        raise ConfigurationError(
            "experiment needs an id (or --list); "
            f"available: {sorted(EXPERIMENTS)}")
    spec = get_experiment(args.id)
    overrides = spec.schema.apply_set(args.assignments)
    if args.dry_run:
        _print_dry_run(spec, spec.resolve(overrides))
        return 0
    _print_report(spec.run(**overrides))
    return 0


def _run_bench(args: argparse.Namespace) -> int:
    if args.list:
        rows = [{"id": spec.id, "experiment": spec.benchmark,
                 "writes": spec.default_out, "description": spec.description}
                for _, spec in sorted(BENCHES.items())]
        print(format_table(rows))
        return 0
    spec = get_bench(args.id)
    overrides = _resolve_overrides(spec, args)
    params = spec.resolve(overrides)
    if args.dry_run:
        _print_dry_run(spec, params)
        return 0
    report = spec.run(**overrides)
    _print_report(report)
    payload = build_bench_payload(spec, params, report)
    destination = args.out or spec.default_out
    with open(destination, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"\nWrote {destination}")
    if args.record:
        from .obs import BenchHistory

        history = BenchHistory(args.history_dir)
        entry = history.record(spec.id, payload)
        print(f"Recorded run {entry['run_index']} in "
              f"{history.path_for(spec.id)}")
    return 0


# --------------------------------------------------------------------- #
# detect / compare
# --------------------------------------------------------------------- #
def _run_detect(args: argparse.Namespace) -> int:
    workload = build_workload(args.workload)
    config = SPOTConfig(
        omega=args.omega,
        rd_threshold=args.rd_threshold,
        max_dimension=min(args.max_dimension, 2 if workload.dimensionality > 25 else args.max_dimension),
        moga_generations=12,
        moga_population=24,
        engine=args.engine,
    )
    detector = SPOT(config)
    print(f"Learning on {len(workload.training)} training points "
          f"({workload.dimensionality} dimensions)...")
    detector.learn(workload.training_values)
    sizes = detector.sst.component_sizes()
    print(f"SST built: FS={sizes['FS']} CS={sizes['CS']} OS={sizes['OS']} "
          f"(total {len(detector.sst)} subspaces)")

    print(f"Processing {len(workload.detection)} stream points...")
    results = detector.detect(workload.detection_values)
    flagged = [r for r in results if r.is_outlier]
    print(f"Flagged {len(flagged)} projected outliers "
          f"({100.0 * len(flagged) / len(results):.2f}% of the stream)")

    labels = workload.detection_labels
    if any(labels):
        from .metrics import confusion_matrix
        matrix = confusion_matrix([r.is_outlier for r in results], labels)
        print(f"Against ground truth: precision={matrix.precision:.3f} "
              f"recall={matrix.recall:.3f} f1={matrix.f1:.3f} "
              f"false_alarm_rate={matrix.false_alarm_rate:.4f}")

    for result in flagged[: args.show]:
        dims = [list(s.dimensions) for s in result.outlying_subspaces[:3]]
        print(f"  point #{result.index}: score={result.score:.3f} "
              f"outlying subspaces (top 3): {dims}")
    return 0


def _run_compare(args: argparse.Namespace) -> int:
    workload = build_workload(args.workload)
    config = SPOTConfig(max_dimension=1 if workload.dimensionality > 25 else 2,
                        moga_generations=12, moga_population=24, omega=500,
                        engine=args.engine)
    factories = {
        "SPOT": lambda: SPOT(config),
        "full-space-grid": lambda: FullSpaceGridDetector(omega=config.omega,
                                                         engine=args.engine),
        "knn-window": lambda: KNNWindowDetector(window=300),
        "random-subspace": lambda: RandomSubspaceDetector(n_subspaces=60,
                                                          engine=args.engine),
    }
    evaluations = compare_detectors(factories, workload)
    print(format_table(rows_from_evaluations(evaluations)))
    return 0


# --------------------------------------------------------------------- #
# serve / replay
# --------------------------------------------------------------------- #
def _print_service_stats(stats: dict) -> None:
    shard_rows = stats.pop("shards")
    learning = stats.pop("learning", None)
    robustness = dict(stats.pop("robustness", {}))
    print(format_table([stats]))
    if robustness:
        faults = robustness.pop("faults_fired", None) or {}
        robustness["faults_fired"] = " ".join(
            f"{kind}={count}" for kind, count in sorted(faults.items())
            if count) or "-"
        print()
        print(format_table([robustness]))
    print()
    print(format_table(shard_rows))
    if learning is not None:
        learning = dict(learning)
        kinds = learning.pop("kinds", {})
        learning["kinds"] = " ".join(f"{kind}={count}" for kind, count
                                     in sorted(kinds.items())) or "-"
        print()
        print(format_table([learning]))


def _serve_workload_params(args: argparse.Namespace) -> dict:
    return {
        "n_tenants": args.tenants,
        "dimensions": args.dimensions,
        "n_training_per_tenant": args.training,
        "n_detection_per_tenant": args.points,
        "seed": args.seed,
    }


def _fault_plan_from_args(args: argparse.Namespace, n_points: int):
    """The FaultPlan the serve flags describe (``None`` when no faults)."""
    from .service import FaultPlan

    crashes = tuple(sorted(args.fault_crash_at or ()))
    if not crashes and args.fault_crashes:
        crashes = FaultPlan.random(seed=args.fault_seed, n_points=n_points,
                                   n_crashes=args.fault_crashes).crash_points
    stalls = tuple((int(seq), args.fault_stall_ms / 1e3)
                   for seq in sorted(args.fault_stall_at or ()))
    if not crashes and not stalls:
        return None
    return FaultPlan(crash_points=crashes, stall_points=stalls,
                     seed=args.fault_seed)


def _run_serve(args: argparse.Namespace) -> int:
    from .eval.experiments import t1_bench_config
    from .eval.workloads import multi_tenant_workload
    from .service import DetectionService, ServiceConfig

    workload_params = _serve_workload_params(args)
    workload = multi_tenant_workload(**workload_params)
    config = t1_bench_config(engine="vectorized",
                             os_growth_enabled=args.os_growth,
                             self_evolution_period=args.evolution_period)
    print(f"Learning the prototype on {len(workload.training)} shared "
          f"training points ({workload.dimensionality} dimensions, "
          f"{len(workload.tenants)} tenants)...")
    prototype = SPOT(config)
    prototype.learn(workload.training_values)

    to_serve = list(workload.detection)
    if args.stop_after is not None:
        to_serve = to_serve[: args.stop_after]
    service = DetectionService.from_prototype(prototype, ServiceConfig(
        n_shards=args.shards,
        max_batch=args.max_batch,
        max_delay=args.max_delay,
        router=args.router,
        learning_mode=args.learning_mode,
        learning_workers=args.learning_workers,
        checkpoint_every=args.checkpoint_every,
        checkpoint_dir=args.checkpoint_dir,
        supervise=args.supervise,
        max_restarts_per_shard=args.max_restarts,
        deadline=args.deadline_ms / 1e3,
        deadline_policy=args.deadline_policy,
        fault_plan=_fault_plan_from_args(args, len(to_serve)),
    ))
    if args.checkpoint_dir:
        # Recorded in every checkpoint (periodic ones included) so any
        # snapshot of this run — not just the final one — replays, in the
        # same learning mode it was served in.
        service.set_checkpoint_extra({
            "serve": dict(workload_params),
            "serve_config": {"learning_mode": args.learning_mode,
                             "learning_workers": args.learning_workers},
        })
    service.start()
    print(f"Serving {len(to_serve)} of {len(workload.detection)} points "
          f"across {args.shards} shards ({args.learning_mode} learning)...")
    service.submit_tagged(to_serve)
    service.drain()
    if args.checkpoint_dir:
        service.checkpoint()
        print(f"Checkpointed {args.shards} shards to {args.checkpoint_dir} "
              f"(total checkpoints this run: {service.checkpoints_taken})")
    service.stop()
    outliers = sum(1 for r in service.results() if r.is_outlier)
    print(f"Flagged {outliers} projected outliers across "
          f"{len(workload.tenants)} tenants\n")
    _print_service_stats(service.stats())
    return 0


def _run_fleet(args: argparse.Namespace) -> int:
    """Elastic-fleet verbs: a parity-checked live reshard, or a status dump."""
    from .eval.experiments import experiment_r2_rebalance, t1_bench_config
    from .eval.workloads import multi_tenant_workload
    from .service import DetectionService, FleetRebalancer, ServiceConfig

    if args.action == "rebalance":
        steps = list(args.to_shards
                     or (args.shards + 2, max(1, args.shards - 1)))
    else:
        steps = list(args.to_shards or ())
    fractions = list(args.at if args.at is not None else
                     (round((i + 1) / (len(steps) + 1), 3)
                      for i in range(len(steps))))
    if len(fractions) != len(steps):
        raise ConfigurationError(
            "--at needs exactly one stream fraction per --to-shards step")
    if any(not 0.0 < fraction < 1.0 for fraction in fractions):
        raise ConfigurationError("--at fractions must lie in (0, 1)")

    if args.action == "rebalance":
        report = experiment_r2_rebalance(
            n_tenants=args.tenants, dimensions=args.dimensions,
            n_training_per_tenant=args.training,
            n_detection_per_tenant=args.points,
            shard_plan=(args.shards, *steps), boundaries=tuple(fractions),
            max_batch=args.max_batch, router=args.router, seed=args.seed)
        _print_report(report)
        reshard = next(row for row in report.rows
                       if row["variant"] == "live-reshard")
        parity = bool(reshard["decisions_identical"]
                      and reshard["sst_identical"])
        print(f"\nreshard plan {[args.shards, *steps]}: "
              f"{'parity ok (zero decision drift)' if parity else 'DRIFT'}")
        return 0 if parity else 1

    workload = multi_tenant_workload(
        n_tenants=args.tenants, dimensions=args.dimensions,
        n_training_per_tenant=args.training,
        n_detection_per_tenant=args.points, seed=args.seed)
    prototype = SPOT(t1_bench_config(engine="vectorized"))
    prototype.learn(workload.training_values)
    service = DetectionService.from_prototype(prototype, ServiceConfig(
        n_shards=args.shards, max_batch=args.max_batch, router=args.router))
    service.start()
    rebalancer = FleetRebalancer(service)
    points = workload.detection
    marks = {int(fraction * len(points)): target
             for fraction, target in zip(fractions, steps)}
    try:
        for index, point in enumerate(points):
            if index in marks:
                rebalancer.resize(marks[index])
            service.submit(point.stream_id, point.values)
        service.drain()
        status = rebalancer.status()
    finally:
        service.stop()
    _emit_json(status, args.out)
    return 0


def _run_profile(args: argparse.Namespace) -> int:
    """cProfile ``process_batch`` on the T1 throughput workload.

    Learning runs outside the profiler so the report shows the steady-state
    detection path — the loop whose per-point constant the fused kernel
    exists to shrink — not the one-off MOGA search.
    """
    import cProfile
    import pstats
    import time as time_module

    from .eval.experiments import t1_bench_config
    from .eval.workloads import throughput_workload
    from .streams import values_of

    workload = throughput_workload(dimensions=args.dimensions,
                                   n_training=args.training,
                                   n_detection=args.points, seed=args.seed)
    config = t1_bench_config(engine=args.engine)
    detector = SPOT(config)
    detector.learn(values_of(workload.training))
    detection = values_of(workload.detection)
    print(f"Profiling {args.engine} process_batch: {len(detection)} points "
          f"at {args.dimensions}-d (sorted by {args.sort})", file=sys.stderr)

    profiler = cProfile.Profile()
    started = time_module.perf_counter()
    profiler.enable()
    results = detector.process_batch(detection)
    profiler.disable()
    elapsed = time_module.perf_counter() - started

    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)
    outliers = sum(1 for r in results if r.is_outlier)
    print(f"{len(detection)} points in {elapsed:.3f}s "
          f"({len(detection) / elapsed:,.0f} points/s), "
          f"{outliers} outliers flagged")
    return 0


def _run_replay(args: argparse.Namespace) -> int:
    from .core.exceptions import SerializationError
    from .eval.workloads import multi_tenant_workload
    from .service import CheckpointManager, DetectionService, ServiceConfig

    manager = CheckpointManager(args.checkpoint_dir)
    manifest = manager.manifest()
    extra = manifest.get("extra") or {}
    serve_params = extra.get("serve")
    if not serve_params:
        raise SerializationError(
            "this checkpoint was not written by 'spot-demo serve' "
            "(no recorded workload); replay needs the workload parameters")
    serve_config = dict(extra.get("serve_config") or {})
    offset = int(manifest["points_submitted"])
    workload = multi_tenant_workload(**serve_params)
    remaining = list(workload.detection[offset:])
    if args.points is not None:
        remaining = remaining[: args.points]
    print(f"Restoring {manifest['n_shards']} shards from "
          f"{args.checkpoint_dir} (stream position {offset}, "
          f"{serve_config.get('learning_mode', 'sync')} learning)...")
    service = DetectionService.restore(
        args.checkpoint_dir,
        config=ServiceConfig(
            learning_mode=str(serve_config.get("learning_mode", "sync")),
            learning_workers=int(serve_config.get("learning_workers", 2))))
    service.start()
    if not remaining:
        print("Nothing left to replay: the checkpoint is at the end of the "
              "recorded workload.")
        service.stop()
        return 0
    print(f"Resuming {len(remaining)} points...")
    service.submit_tagged(remaining)
    service.drain()
    service.stop()
    outliers = sum(1 for r in service.results() if r.is_outlier)
    print(f"Flagged {outliers} projected outliers after resumption\n")
    _print_service_stats(service.stats())
    return 0


# --------------------------------------------------------------------- #
# metrics / trace / bench-history
# --------------------------------------------------------------------- #
def _emit_json(payload: dict, out: Optional[str]) -> None:
    """Write an export to ``out``, or print it to stdout (pipeable)."""
    if out:
        with open(out, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        print(f"Wrote {out}", file=sys.stderr)
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _serve_for_obs(args: argparse.Namespace, *, tracer=None,
                   supervise: bool = False, fault_plan=None,
                   config_kwargs: Optional[dict] = None):
    """One short multi-tenant serve for the observability verbs.

    Progress goes to stderr so stdout stays a clean JSON stream when
    ``--out`` is not given.  ``config_kwargs`` adds verb-specific
    :class:`ServiceConfig` fields (evidence, flight recorder, SLOs...).
    Returns the stopped service and the workload it served, whose
    ``detection[seq]`` is the point submitted as ``seq``.
    """
    from .eval.experiments import t1_bench_config
    from .eval.workloads import multi_tenant_workload
    from .service import DetectionService, ServiceConfig

    workload = multi_tenant_workload(**_serve_workload_params(args))
    print(f"Learning the prototype on {len(workload.training)} shared "
          f"training points ({workload.dimensionality} dimensions)...",
          file=sys.stderr)
    prototype = SPOT(t1_bench_config(engine="vectorized"))
    prototype.learn(workload.training_values)
    service = DetectionService.from_prototype(prototype, ServiceConfig(
        n_shards=args.shards,
        max_batch=args.max_batch,
        max_delay=0.001,
        supervise=supervise,
        fault_plan=fault_plan,
        tracer=tracer,
        **(config_kwargs or {}),
    ))
    service.start()
    print(f"Serving {len(workload.detection)} points across {args.shards} "
          f"shards...", file=sys.stderr)
    service.submit_tagged(workload.detection)
    service.drain()
    service.stop()
    return service, workload


def _run_metrics(args: argparse.Namespace) -> int:
    service, _ = _serve_for_obs(args)
    _emit_json(service.metrics_snapshot(), args.out)
    return 0


def _run_trace(args: argparse.Namespace) -> int:
    from .obs import Tracer
    from .service import FaultPlan

    tracer = Tracer(capacity=args.capacity)
    fault_plan = None
    if args.fault_crashes:
        fault_plan = FaultPlan.random(seed=args.fault_seed,
                                      n_points=args.tenants * args.points,
                                      n_crashes=args.fault_crashes)
    _serve_for_obs(args, tracer=tracer, supervise=fault_plan is not None,
                   fault_plan=fault_plan)
    counts: Dict[str, int] = {}
    for span in tracer.spans():
        counts[span.name] = counts.get(span.name, 0) + 1
    summary = " ".join(f"{name}={count}"
                       for name, count in sorted(counts.items()))
    print(f"Recorded {sum(counts.values())} spans "
          f"({tracer.dropped} dropped): {summary}", file=sys.stderr)
    _emit_json(tracer.to_dict(), args.out)
    return 0


def _run_explain(args: argparse.Namespace) -> int:
    from .obs import explain_result, format_explanation

    service, workload = _serve_for_obs(args, config_kwargs={"evidence": True})
    scored = [r for r in service.results() if r.result is not None]
    if args.seq is not None:
        matches = [r for r in scored if r.seq == args.seq]
        if not matches:
            raise ConfigurationError(
                f"no scored point with seq {args.seq} "
                f"(served seqs 0..{service.points_completed - 1}; shed or "
                f"quarantined points carry no decision)")
        target = matches[0]
    else:
        flagged = [r for r in scored if r.result.is_outlier]
        if not flagged:
            print("No outliers flagged in this serve; explaining the first "
                  "scored point instead (pass --seq to pick one).",
                  file=sys.stderr)
        target = flagged[0] if flagged else scored[0]
    payload = explain_result(target.result)
    # The service keeps no unflagged point; the served workload has them all.
    payload["point"] = list(workload.detection[target.seq].values)
    payload["seq"] = target.seq
    payload["stream"] = target.stream_id
    payload["shard"] = target.shard
    print(format_explanation(payload), file=sys.stderr)
    _emit_json(payload, args.out)
    return 0


def _run_flight(args: argparse.Namespace) -> int:
    service, _ = _serve_for_obs(args, config_kwargs={
        "evidence": True,
        "flight_recorder": True,
        "flight_capacity": args.capacity,
    })
    recorder = service.flight_recorder
    if args.action == "list":
        rows = []
        for shard in range(args.shards):
            records = recorder.records(shard)
            kinds: Dict[str, int] = {}
            for record in records:
                kinds[record["kind"]] = kinds.get(record["kind"], 0) + 1
            rows.append({
                "shard": shard,
                "entries": len(records),
                "capacity": args.capacity,
                "kinds": " ".join(f"{kind}={count}" for kind, count
                                  in sorted(kinds.items())) or "-",
            })
        print(format_table(rows))
        print(f"{recorder.dropped} records dropped (ring overflow)")
        return 0
    payload = recorder.to_dict()
    if args.shard is not None:
        shards = payload.get("shards", {})
        key = str(args.shard)
        if key not in shards:
            raise ConfigurationError(
                f"no flight ring for shard {args.shard}; "
                f"recorded shards: {sorted(shards)}")
        payload["shards"] = {key: shards[key]}
    _emit_json(payload, args.out)
    return 0


def _run_diag(args: argparse.Namespace) -> int:
    from .obs import Tracer, validate_diag_payload
    from .service import FaultPlan

    tracer = Tracer(capacity=8192)
    fault_plan = None
    if args.fault_crashes:
        fault_plan = FaultPlan.random(seed=args.fault_seed,
                                      n_points=args.tenants * args.points,
                                      n_crashes=args.fault_crashes)
    service, _ = _serve_for_obs(args, tracer=tracer,
                                supervise=fault_plan is not None,
                                fault_plan=fault_plan,
                                config_kwargs={
                                    "evidence": True,
                                    "flight_recorder": True,
                                    "flight_capacity": args.capacity,
                                    "diag_dir": args.diag_dir,
                                })
    payload = validate_diag_payload(service.diagnose())
    if service.last_diagnostics is not None:
        print("Crash-time diagnostics bundle captured by the supervisor "
              "(reason: "
              f"{service.last_diagnostics.get('reason')!r}).", file=sys.stderr)
    _emit_json(payload, args.out)
    return 0


def _run_slo(args: argparse.Namespace) -> int:
    from .obs import SLOObjectives

    objectives = SLOObjectives(
        latency_p95_ms=args.latency_p95_ms,
        max_shed_fraction=args.max_shed,
        max_quarantine_fraction=args.max_quarantine,
        window_points=args.window,
    )
    config_kwargs: dict = {"slo": objectives}
    if args.deadline_ms:
        config_kwargs["deadline"] = args.deadline_ms / 1e3
        config_kwargs["deadline_policy"] = "shed"
    service, _ = _serve_for_obs(args, config_kwargs=config_kwargs)
    report = service.slo_report()
    rows = []
    for stream_id, tenant in sorted(report["tenants"].items()):
        rows.append({
            "tenant": stream_id,
            "status": tenant["status"],
            "p95_ms": f"{tenant['latency_p95_ms']:.3f}",
            "lat_burn": f"{tenant['latency_burn']:.3f}",
            "shed": f"{tenant['shed_fraction']:.4f}",
            "quar": f"{tenant['quarantine_fraction']:.4f}",
            "points": tenant["total_points"],
        })
    if rows:
        print(format_table(rows), file=sys.stderr)
    print(f"Overall SLO status: {report['status']}", file=sys.stderr)
    _emit_json(report, args.out)
    return 0


def _require_bench(args: argparse.Namespace, history) -> str:
    if not args.bench:
        raise ConfigurationError(
            f"'bench-history {args.action}' needs a bench id; "
            f"recorded: {history.benches() or '(none)'}")
    return args.bench


def _run_bench_history(args: argparse.Namespace) -> int:
    from .obs import BenchHistory
    from .obs.history import DEFAULT_TOLERANCE

    history = BenchHistory(args.history_dir)
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None \
        else args.tolerance
    if args.action == "list":
        rows = []
        for bench_id in history.benches():
            entries = history.entries(bench_id)
            provenance = entries[-1].get("provenance") or {}
            rows.append({"bench": bench_id, "runs": len(entries),
                         "latest_git": str(provenance.get("git", "?")),
                         "directed_metrics":
                             len(history.metric_names(bench_id))})
        if not rows:
            print(f"No recorded runs under {history.root} "
                  f"(record one with 'bench <id> --record')")
            return 0
        print(format_table(rows))
        return 0
    if args.action == "show":
        bench_id = _require_bench(args, history)
        for entry in history.entries(bench_id):
            print(json.dumps(entry, sort_keys=True))
        return 0
    if args.action == "check":
        candidate = None
        if args.payload:
            _require_bench(args, history)
            with open(args.payload) as handle:
                candidate = json.load(handle)
        benches = [args.bench] if args.bench else history.benches()
        findings = []
        for bench_id in benches:
            findings.extend(history.check(bench_id, candidate=candidate,
                                          tolerance=tolerance))
        if findings:
            print(f"{len(findings)} regression(s) beyond tolerance "
                  f"{tolerance:g}:")
            for finding in findings:
                print(f"  {finding.describe()}")
            return 1
        print(f"No regressions beyond tolerance {tolerance:g} "
              f"in: {', '.join(benches) or '(no recorded benches)'}")
        return 0
    bench_id = _require_bench(args, history)
    if not args.metric:
        raise ConfigurationError(
            f"'bench-history trend' needs --metric; directed metrics "
            f"recorded for {bench_id}: {history.metric_names(bench_id)}")
    rows = history.trend(bench_id, args.metric)
    if not rows:
        print(f"No recorded runs of {bench_id}")
        return 0
    print(f"{bench_id} :: {args.metric}")
    print(format_table(rows))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of the ``spot-demo`` console script."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "detect":
        return _run_detect(args)
    if args.command == "experiment":
        return _run_experiment(args)
    if args.command == "compare":
        return _run_compare(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "fleet":
        return _run_fleet(args)
    if args.command == "replay":
        return _run_replay(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "metrics":
        return _run_metrics(args)
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "explain":
        return _run_explain(args)
    if args.command == "flight":
        return _run_flight(args)
    if args.command == "diag":
        return _run_diag(args)
    if args.command == "slo":
        return _run_slo(args)
    if args.command == "bench-history":
        return _run_bench_history(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
