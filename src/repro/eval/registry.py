"""The declared experiment & benchmark index.

Every experiment of the reproduction (F1, E1–E5, T1, L1–L3, R1–R2, A1–A4) is
registered here as an :class:`~repro.eval.spec.ExperimentSpec`: an
identifier, a typed parameter schema (the single source of the CLI flags,
the ``--set`` overrides and the recorded report parameters) and a runner
function from :mod:`repro.eval.experiments`.  The four bench paths the CLI
used to hand-wire — plus the L3 serving-pressure sweep — are
:class:`~repro.eval.spec.BenchSpec` entries whose runs all emit the unified
``spot-bench/v1`` report.

Nothing below contains imperative wiring: adding an experiment or a bench is
one declaration, and the CLI / tests / README table derive from it.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Dict, List, Mapping

from ..core.exceptions import ConfigurationError
from .experiments import (
    ExperimentReport,
    experiment_a1_sst_ablation,
    experiment_a2_self_evolution,
    experiment_a3_time_model,
    experiment_a4_moga_vs_exhaustive,
    experiment_e1_effectiveness_synthetic,
    experiment_e2_effectiveness_kdd,
    experiment_e3_scalability_dimensions,
    experiment_e4_scalability_stream_length,
    experiment_e5_service,
    experiment_f1_pipeline,
    experiment_l1_learning,
    experiment_l2_learning_service,
    experiment_l3_serving_pressure,
    experiment_r1_chaos,
    experiment_r2_rebalance,
    experiment_t1_throughput,
    t1_bench_config,
)
from .spec import (
    BenchSpec,
    ExperimentSpec,
    Grid,
    GridAxis,
    Param,
    ParamSchema,
)


def _schema(*params: Param) -> ParamSchema:
    return ParamSchema(params=tuple(params))


def _with_defaults(schema: ParamSchema, **defaults: object) -> ParamSchema:
    """A copy of ``schema`` with some parameter defaults replaced.

    Bench specs use this where the committed artifact was recorded at a
    different operating point than the experiment function's defaults — the
    bench default must reproduce the committed artifact.
    """
    params = []
    for param in schema.params:
        if param.name in defaults:
            param = dataclasses.replace(param,
                                        default=defaults.pop(param.name))
        params.append(param)
    if defaults:
        raise ConfigurationError(
            f"unknown parameters in default overrides: {sorted(defaults)}")
    return ParamSchema(params=tuple(params))


def _seed(default: int) -> Param:
    return Param(name="seed", type="int", default=default,
                 help="workload seed (recorded in the report)")


# --------------------------------------------------------------------- #
# Experiment specs
# --------------------------------------------------------------------- #
def _run_t1(*, dimension_settings, length_override, n_training, engines,
            obs_overhead, seed) -> ExperimentReport:
    """Adapter: the spec's flat ``length_override`` becomes T1's lengths map."""
    lengths = ({d: length_override for d in dimension_settings}
               if length_override else None)
    return experiment_t1_throughput(
        dimension_settings=tuple(dimension_settings), lengths=lengths,
        n_training=n_training, engines=tuple(engines),
        obs_overhead=obs_overhead, seed=seed)


EXPERIMENTS: Dict[str, ExperimentSpec] = {}
BENCHES: Dict[str, BenchSpec] = {}


def _register(spec: ExperimentSpec) -> ExperimentSpec:
    if spec.id in EXPERIMENTS:
        raise ConfigurationError(f"duplicate experiment id {spec.id!r}")
    EXPERIMENTS[spec.id] = spec
    return spec


def _register_bench(spec: BenchSpec) -> BenchSpec:
    if spec.id in BENCHES:
        raise ConfigurationError(f"duplicate bench id {spec.id!r}")
    BENCHES[spec.id] = spec
    return spec


_register(ExperimentSpec(
    id="F1",
    title="End-to-end SPOT pipeline (learning stage + detection stage)",
    description="Wire every stage of the paper's Figure 1 together once and "
                "report per-stage facts.",
    schema=_schema(
        Param(name="dimensions", type="int", default=20,
              help="stream dimensionality"),
        Param(name="n_training", type="int", default=600,
              help="training batch size"),
        Param(name="n_detection", type="int", default=1200,
              help="detection segment length"),
        _seed(5),
    ),
    runner=experiment_f1_pipeline,
))

_register(ExperimentSpec(
    id="E1",
    title="Effectiveness on synthetic high-dimensional streams",
    description="SPOT vs full-space baselines on synthetic projected-outlier "
                "streams.",
    schema=_schema(
        Param(name="dimension_settings", type="int_list", default=(20, 40),
              flag="--dimensions", help="stream dimensionalities to evaluate"),
        Param(name="n_training", type="int", default=800,
              help="training batch size"),
        Param(name="n_detection", type="int", default=1500,
              help="detection segment length"),
        Param(name="outlier_rate", type="float", default=0.03,
              help="planted outlier rate"),
        _seed(11),
    ),
    runner=experiment_e1_effectiveness_synthetic,
))

_register(ExperimentSpec(
    id="E2",
    title="Effectiveness on simulated real-life streams (KDD-99, sensors)",
    description="SPOT vs baselines on the KDD-Cup-99-style (and sensor) "
                "streams.",
    schema=_schema(
        Param(name="n_training", type="int", default=1000,
              help="training batch size"),
        Param(name="n_detection", type="int", default=2500,
              help="detection segment length"),
        Param(name="attack_rate_scale", type="float", default=1.0,
              help="attack frequency multiplier of the KDD simulator"),
        _seed(23),
        Param(name="include_sensor_variant", type="bool", default=True,
              help="also run the sensor-field workload"),
    ),
    runner=experiment_e2_effectiveness_kdd,
))

_register(ExperimentSpec(
    id="E3",
    title="Efficiency vs dimensionality (fixed SST budget)",
    description="Per-point detection cost as the stream dimensionality "
                "grows.",
    schema=_schema(
        Param(name="dimension_settings", type="int_list",
              default=(10, 20, 40, 80), flag="--dimensions",
              help="stream dimensionalities to evaluate"),
        Param(name="n_training", type="int", default=500,
              help="training batch size"),
        Param(name="n_detection", type="int", default=1000,
              help="detection segment length"),
        _seed(17),
    ),
    runner=experiment_e3_scalability_dimensions,
))

_register(ExperimentSpec(
    id="E4",
    title="Efficiency vs stream length (one-pass maintenance)",
    description="Per-point cost and summary footprint as the stream gets "
                "longer.",
    schema=_schema(
        Param(name="lengths", type="int_list",
              default=(2000, 5000, 10000, 20000),
              help="detection-stream lengths to evaluate"),
        Param(name="dimensions", type="int", default=20,
              help="stream dimensionality"),
        Param(name="n_training", type="int", default=500,
              help="training batch size"),
        _seed(19),
    ),
    runner=experiment_e4_scalability_stream_length,
))

_E5_PARAMS = (
    Param(name="n_tenants", type="int", default=6, flag="--tenants",
          help="number of independent tenant streams"),
    Param(name="dimensions", type="int", default=10,
          help="stream dimensionality"),
    Param(name="n_training_per_tenant", type="int", default=80,
          flag="--training", help="training points per tenant"),
    Param(name="n_detection_per_tenant", type="int", default=500,
          flag="--points", help="detection points per tenant"),
    Param(name="n_shards", type="int", default=4, flag="--shards",
          help="detector shards in the service"),
    Param(name="max_batch", type="int", default=512,
          help="micro-batch coalescing limit per shard"),
    Param(name="max_delay", type="float", default=0.002,
          help="max seconds a partial micro-batch waits for more points"),
    _seed(19),
)

_register(ExperimentSpec(
    id="E5",
    title="Sharded multi-tenant detection service vs serving baselines",
    description="Multi-tenant serving: sharded micro-batched service vs the "
                "per-arrival and offline-partition baselines.",
    schema=_schema(*_E5_PARAMS),
    runner=experiment_e5_service,
))

_T1_SCHEMA = _schema(
    Param(name="dimension_settings", type="int_list", default=(10, 30, 100),
          flag="--dimensions", help="stream dimensionalities to benchmark"),
    Param(name="length_override", type="int", default=None, optional=True,
          flag="--length",
          help="detection-stream length override for every dimensionality "
               "(default: 20000 at 10-d, 6000 at 30-d, 2000 at 100-d)"),
    Param(name="n_training", type="int", default=500, flag="--training",
          help="training batch size"),
    Param(name="engines", type="str_list", default=("python", "vectorized"),
          help="detection engines to compare"),
    Param(name="obs_overhead", type="bool", default=False,
          flag="--obs-overhead",
          help="add a vectorized+obs row per dimensionality: evidence "
               "capture + flight-ring stamping overhead vs the plain engine, "
               "plus the disabled-path hook cost"),
    _seed(19),
)

_register(ExperimentSpec(
    id="T1",
    title="Detection throughput: python reference vs vectorized engine",
    description="Detection-stage throughput of both engines on the E4-style "
                "stream.",
    schema=_T1_SCHEMA,
    runner=_run_t1,
))

_L1_SCHEMA = _schema(
    Param(name="dimensions", type="int", default=10,
          help="stream dimensionality"),
    Param(name="n_training", type="int", default=500, flag="--training",
          help="training-batch size fed to SPOT.learn"),
    Param(name="n_detection", type="int", default=20000, flag="--length",
          help="detection-stream length of the E4-style workload (feeds the "
               "online reservoir)"),
    Param(name="n_recent", type="int", default=1000, flag="--recent",
          help="recent-points reservoir size used by the online MOGA stages"),
    Param(name="n_outlier_searches", type="int", default=12,
          flag="--outlier-searches",
          help="number of per-outlier OS-growth MOGA searches to time"),
    Param(name="n_evolution_rounds", type="int", default=6,
          flag="--evolution-rounds",
          help="number of CS self-evolution rounds to time"),
    Param(name="engines", type="str_list", default=("python", "vectorized"),
          help="objective engines to compare"),
    _seed(19),
)

_register(ExperimentSpec(
    id="L1",
    title="Learning throughput: reference vs population-vectorized "
          "objectives",
    description="Learning-stage and online-MOGA throughput of both objective "
                "engines.",
    schema=_L1_SCHEMA,
    runner=experiment_l1_learning,
))

_L2_SCHEMA = _schema(
    Param(name="n_tenants", type="int", default=6, flag="--tenants",
          help="number of independent tenant streams"),
    Param(name="dimensions", type="int", default=10,
          help="stream dimensionality"),
    Param(name="n_training_per_tenant", type="int", default=80,
          flag="--training", help="training points per tenant (shared "
                                  "prototype)"),
    Param(name="n_detection_per_tenant", type="int", default=500,
          flag="--points", help="detection points per tenant"),
    Param(name="n_shards", type="int", default=2, flag="--shards",
          help="detector shards in the service"),
    Param(name="max_batch", type="int", default=256,
          help="micro-batch coalescing limit per shard"),
    Param(name="max_delay", type="float", default=0.002,
          help="max seconds a partial micro-batch waits for more points"),
    Param(name="learning_workers", type="int", default=4,
          help="pool size of the widest async variant"),
    Param(name="self_evolution_period", type="int", default=250,
          flag="--evolution-period",
          help="points between CS self-evolution rounds"),
    Param(name="relearn_period", type="int", default=0,
          help="points between wholesale CS relearn rounds (0 disables)"),
    Param(name="stop_after", type="int", default=None, optional=True,
          help="serve only the first N workload points (smoke runs)"),
    _seed(19),
)

_register(ExperimentSpec(
    id="L2",
    title="Learning service: online MOGA on vs off the detection hot path",
    description="Detection-path latency and throughput with learning on/off "
                "the hot path.",
    schema=_L2_SCHEMA,
    runner=experiment_l2_learning_service,
))

_L3_SCHEMA = _schema(
    Param(name="outlier_rates", type="float_list", default=(0.01, 0.03, 0.08),
          help="grid axis: planted outlier rate (each detected outlier "
               "triggers an OS-growth search)"),
    Param(name="evolution_periods", type="int_list", default=(0, 150, 400),
          help="grid axis: CS self-evolution period (0 disables)"),
    Param(name="n_tenants", type="int", default=4, flag="--tenants",
          help="number of independent tenant streams"),
    Param(name="dimensions", type="int", default=8,
          help="stream dimensionality"),
    Param(name="n_training_per_tenant", type="int", default=60,
          flag="--training", help="training points per tenant (shared "
                                  "prototype)"),
    Param(name="n_detection_per_tenant", type="int", default=300,
          flag="--points", help="detection points per tenant"),
    Param(name="n_shards", type="int", default=2, flag="--shards",
          help="detector shards in the service"),
    Param(name="max_batch", type="int", default=256,
          help="micro-batch coalescing limit per shard"),
    Param(name="max_delay", type="float", default=0.002,
          help="max seconds a partial micro-batch waits for more points"),
    Param(name="learning_workers", type="int", default=4,
          help="pool size of the async variant"),
    Param(name="relearn_period", type="int", default=0,
          help="points between wholesale CS relearn rounds (0 disables)"),
    _seed(19),
)

_L3_GRID = Grid(axes=(
    GridAxis(name="outlier_rate", source="outlier_rates"),
    GridAxis(name="evolution_period", source="evolution_periods"),
))

_register(ExperimentSpec(
    id="L3",
    title="Serving under learning pressure: the async win's envelope",
    description="Grid sweep (outlier rate x evolution period) of the async "
                "learning service against the inline baseline, with per-cell "
                "detection-path p95 and decision-parity checks.",
    schema=_L3_SCHEMA,
    runner=experiment_l3_serving_pressure,
    grid=_L3_GRID,
))

_R1_SCHEMA = _schema(
    Param(name="n_tenants", type="int", default=4, flag="--tenants",
          help="number of independent tenant streams"),
    Param(name="dimensions", type="int", default=8,
          help="stream dimensionality"),
    Param(name="n_training_per_tenant", type="int", default=60,
          flag="--training", help="training points per tenant (shared "
                                  "prototype)"),
    Param(name="n_detection_per_tenant", type="int", default=300,
          flag="--points", help="detection points per tenant"),
    Param(name="n_shards", type="int", default=2, flag="--shards",
          help="detector shards in the service"),
    Param(name="max_batch", type="int", default=128,
          help="micro-batch coalescing limit per shard"),
    Param(name="max_delay", type="float", default=0.002,
          help="max seconds a partial micro-batch waits for more points"),
    Param(name="n_crashes", type="int", default=2, flag="--crashes",
          help="seeded worker crashes injected into the chaos run"),
    Param(name="stall_ms", type="float", default=60.0,
          help="injected stall length of the deadline-shedding run"),
    Param(name="deadline_ms", type="float", default=25.0,
          help="per-point detection deadline of the shedding run"),
    _seed(19),
)

_register(ExperimentSpec(
    id="R1",
    title="Fault tolerance: supervised recovery under injected chaos",
    description="Supervised serving under a seeded fault plan: crash "
                "recovery with decision/SST parity, plus deadline shedding "
                "with survivor parity.",
    schema=_R1_SCHEMA,
    runner=experiment_r1_chaos,
))

_R2_SCHEMA = _schema(
    Param(name="n_tenants", type="int", default=8, flag="--tenants",
          help="number of independent tenant streams"),
    Param(name="dimensions", type="int", default=8,
          help="stream dimensionality"),
    Param(name="n_training_per_tenant", type="int", default=60,
          flag="--training", help="training points per tenant (shared "
                                  "prototype)"),
    Param(name="n_detection_per_tenant", type="int", default=400,
          flag="--points", help="detection points per tenant"),
    Param(name="shard_plan", type="int_list", default=(4, 6, 3),
          help="fleet sizes the live reshard walks through "
               "(first = initial size)"),
    Param(name="boundaries", type="float_list", default=(0.4, 0.7),
          help="stream fractions at which each resize fires"),
    Param(name="max_batch", type="int", default=64,
          help="micro-batch coalescing limit per shard"),
    Param(name="max_delay", type="float", default=0.004,
          help="max seconds a partial micro-batch waits for more points"),
    Param(name="router", type="str", default="ring",
          choices=("static", "ring"),
          help="shard router the fleet (and the oracle) use"),
    _seed(19),
)

_register(ExperimentSpec(
    id="R2",
    title="Elastic fleet: live resharding with zero decision drift",
    description="Live shard split/merge under traffic: ring-routed fleet "
                "resized mid-stream with decision/SST parity against a "
                "topology-reenacting oracle, plus the migration stall cost.",
    schema=_R2_SCHEMA,
    runner=experiment_r2_rebalance,
))

_register(ExperimentSpec(
    id="A1",
    title="SST composition ablation (FS / CS / OS supplement each other)",
    description="Contribution of each SST component: FS only vs FS+CS vs "
                "FS+CS+OS.",
    schema=_schema(
        Param(name="dimensions", type="int", default=20,
              help="stream dimensionality"),
        Param(name="n_training", type="int", default=800,
              help="training batch size"),
        Param(name="n_detection", type="int", default=1500,
              help="detection segment length"),
        Param(name="outlier_rate", type="float", default=0.04,
              help="planted outlier rate"),
        _seed(29),
    ),
    runner=experiment_a1_sst_ablation,
))

_register(ExperimentSpec(
    id="A2",
    title="Online self-evolution and OS growth under concept drift",
    description="Recall across a concept drift, with and without online "
                "adaptation.",
    schema=_schema(
        Param(name="dimensions", type="int", default=16,
              help="stream dimensionality"),
        Param(name="n_training", type="int", default=700,
              help="training batch size"),
        Param(name="n_before", type="int", default=700,
              help="detection points before the drift"),
        Param(name="n_after", type="int", default=700,
              help="detection points after the drift"),
        Param(name="n_segments", type="int", default=8,
              help="reporting segments across the stream"),
        _seed(37),
    ),
    runner=experiment_a2_self_evolution,
))

_register(ExperimentSpec(
    id="A3",
    title="(omega, epsilon) time model vs an exact sliding window",
    description="Decayed summaries vs an exact sliding window, per "
                "(omega, epsilon).",
    schema=_schema(
        Param(name="omegas", type="int_list", default=(200, 500, 1000),
              help="window sizes to evaluate"),
        Param(name="epsilons", type="float_list", default=(0.01, 0.1),
              help="approximation factors to evaluate"),
        Param(name="dimensions", type="int", default=4,
              help="stream dimensionality"),
        _seed(41),
    ),
    runner=experiment_a3_time_model,
))

_register(ExperimentSpec(
    id="A4",
    title="MOGA search quality vs exhaustive lattice enumeration",
    description="How much of the exhaustive top-k MOGA recovers, and at what "
                "cost.",
    schema=_schema(
        Param(name="dimension_settings", type="int_list", default=(8, 10, 12),
              flag="--dimensions", help="stream dimensionalities to evaluate"),
        Param(name="max_dimension", type="int", default=3,
              help="lattice depth of the exhaustive enumeration"),
        Param(name="top_k", type="int", default=10,
              help="size of the exhaustive top-k the recovery is scored on"),
        Param(name="n_points", type="int", default=400,
              help="training batch size"),
        _seed(43),
        Param(name="engine", type="str", default="vectorized",
              choices=("python", "vectorized"),
              help="objective engine used by both searches"),
    ),
    runner=experiment_a4_moga_vs_exhaustive,
))


# --------------------------------------------------------------------- #
# Bench specs — the unified bench harness
# --------------------------------------------------------------------- #
def _config_without(config: Mapping[str, object],
                    *dropped: str) -> Dict[str, object]:
    return {key: value for key, value in config.items() if key not in dropped}


_register_bench(BenchSpec(
    id="throughput",
    title=EXPERIMENTS["T1"].title,
    description="Measure detection throughput of both engines and record "
                "BENCH_throughput.json.",
    schema=_T1_SCHEMA,
    runner=_run_t1,
    benchmark="throughput",
    workload_desc="e4-style synthetic stream (fixed SST budget)",
    default_out="BENCH_throughput.json",
    # The engine varies per row (that is what the benchmark compares), so the
    # recorded configuration keeps the config default.
    config_builder=lambda params: t1_bench_config().to_dict(),
))

_register_bench(BenchSpec(
    id="learning",
    title=EXPERIMENTS["L1"].title,
    description="Measure learning/online-MOGA throughput of both objective "
                "engines and record BENCH_learning.json.",
    schema=_L1_SCHEMA,
    runner=experiment_l1_learning,
    benchmark="learning",
    workload_desc="e4-style synthetic stream (learn batch + online reservoir)",
    default_out="BENCH_learning.json",
    # The engine field varies per row, so it is dropped from the shared
    # configuration record.
    config_builder=lambda params: _config_without(
        t1_bench_config(os_growth_enabled=True).to_dict(), "engine"),
))

_register_bench(BenchSpec(
    id="service",
    title=EXPERIMENTS["E5"].title,
    description="Run the E5 serving comparison (reference partition / "
                "per-arrival / sharded service) and record "
                "BENCH_service.json.",
    # The committed artifact serves the full 8-tenant x 1500-point workload
    # (the `serve` defaults), not E5's trimmed experiment sizes.
    schema=_with_defaults(_schema(*_E5_PARAMS), n_tenants=8,
                          n_detection_per_tenant=1500),
    runner=experiment_e5_service,
    benchmark="service",
    workload_desc="multiplexed multi-tenant e4-style streams",
    default_out="BENCH_service.json",
    config_builder=lambda params: t1_bench_config(
        engine="vectorized").to_dict(),
))

_register_bench(BenchSpec(
    id="learning-service",
    title=EXPERIMENTS["L2"].title,
    description="Run the L2 learning-on-vs-off-the-hot-path comparison and "
                "record BENCH_learning_service.json.",
    # The committed artifact exercises all three online learning triggers,
    # periodic relearn included; experiment L2 defaults to relearn off.
    schema=_with_defaults(_L2_SCHEMA, relearn_period=450),
    runner=experiment_l2_learning_service,
    benchmark="learning_service",
    workload_desc="multiplexed multi-tenant e4-style streams with online "
                  "learning enabled",
    default_out="BENCH_learning_service.json",
    config_builder=lambda params: t1_bench_config(
        engine="vectorized", os_growth_enabled=True,
        self_evolution_period=params["self_evolution_period"],
        relearn_period=params["relearn_period"]).to_dict(),
))

_register_bench(BenchSpec(
    id="serving-sweep",
    title=EXPERIMENTS["L3"].title,
    description="Run the L3 learning-pressure grid (outlier rate x evolution "
                "period) and record BENCH_serving_sweep.json.",
    schema=_L3_SCHEMA,
    runner=experiment_l3_serving_pressure,
    grid=_L3_GRID,
    benchmark="serving_sweep",
    workload_desc="multiplexed multi-tenant e4-style streams under swept "
                  "learning pressure",
    default_out="BENCH_serving_sweep.json",
    # self_evolution_period is a grid axis (recorded per row and under
    # "grid"), so the shared configuration record drops it.
    config_builder=lambda params: _config_without(
        t1_bench_config(engine="vectorized", os_growth_enabled=True,
                        relearn_period=params["relearn_period"]).to_dict(),
        "self_evolution_period"),
))

_register_bench(BenchSpec(
    id="rebalance",
    title=EXPERIMENTS["R2"].title,
    description="Run the R2 live-reshard suite (mid-stream shard split and "
                "merge with oracle parity) and record BENCH_rebalance.json.",
    schema=_R2_SCHEMA,
    runner=experiment_r2_rebalance,
    benchmark="rebalance",
    workload_desc="multiplexed multi-tenant e4-style streams resharded "
                  "mid-run",
    default_out="BENCH_rebalance.json",
    config_builder=lambda params: t1_bench_config(
        engine="vectorized").to_dict(),
))

_register_bench(BenchSpec(
    id="chaos",
    title=EXPERIMENTS["R1"].title,
    description="Run the R1 chaos suite (crash recovery parity + deadline "
                "shedding) and record BENCH_chaos.json.",
    schema=_R1_SCHEMA,
    runner=experiment_r1_chaos,
    benchmark="chaos",
    workload_desc="multiplexed multi-tenant e4-style streams under a seeded "
                  "fault plan",
    default_out="BENCH_chaos.json",
    config_builder=lambda params: t1_bench_config(
        engine="vectorized").to_dict(),
))


# --------------------------------------------------------------------- #
# Lookup + introspection helpers
# --------------------------------------------------------------------- #
def get_experiment(experiment_id: str) -> ExperimentSpec:
    """The registered spec of one experiment id (F1, E1–E5, T1, L1–L3, R1–R2, A1–A4)."""
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown experiment {experiment_id!r}; "
            f"available: {sorted(EXPERIMENTS)}") from exc


def get_bench(bench_id: str) -> BenchSpec:
    """The registered spec of one bench id."""
    try:
        return BENCHES[bench_id]
    except KeyError as exc:
        raise ConfigurationError(
            f"unknown bench {bench_id!r}; available: {sorted(BENCHES)}"
        ) from exc


def _experiment_rows() -> List[Dict[str, object]]:
    bench_of = {spec.runner: spec for spec in BENCHES.values()}
    rows: List[Dict[str, object]] = []
    for experiment_id in sorted(EXPERIMENTS):
        spec = EXPERIMENTS[experiment_id]
        bench = bench_of.get(spec.runner)
        rows.append({
            "id": spec.id,
            "title": spec.title,
            "parameters": ", ".join(spec.schema.names()),
            "grid": " x ".join(axis.name for axis in spec.grid.axes)
            if spec.grid else "",
            "bench": f"`bench {bench.id}` -> {bench.default_out}"
            if bench else "",
        })
    return rows


def registry_table(*, markdown: bool = False) -> str:
    """The experiment index as a table (``markdown=True`` for the README)."""
    from .reporting import format_markdown_table, format_table

    rows = _experiment_rows()
    columns = ["id", "title", "parameters", "grid", "bench"]
    if markdown:
        return format_markdown_table(rows, columns=columns)
    return format_table(rows, columns=columns)


def _spec_callable(spec: ExperimentSpec) -> Callable[..., ExperimentReport]:
    def run(**overrides: object) -> ExperimentReport:
        return spec.run(**overrides)

    run.__name__ = f"run_{spec.id.lower()}"
    run.__doc__ = spec.description
    return run


#: Compatibility index: experiment id -> zero-config callable running the
#: registered spec (what the old hand-coded dict of functions used to be).
ALL_EXPERIMENTS: Dict[str, Callable[..., ExperimentReport]] = {
    experiment_id: _spec_callable(spec)
    for experiment_id, spec in EXPERIMENTS.items()
}
