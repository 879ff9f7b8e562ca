"""Declarative experiment & benchmark specs.

The evidence layer of the reproduction used to be hand-wired: every
``experiment_*`` function re-invented its parameter plumbing and every bench
CLI path re-invented its argparse block and its JSON report schema.  This
module is the declarative replacement:

* :class:`Param` / :class:`ParamSchema` — a typed parameter schema with
  defaults, ``--set key=value`` parsing, and argparse derivation, so one
  declaration drives the CLI flags, the override validation and the recorded
  report parameters.
* :class:`Grid` — named sweep axes over list-valued schema parameters,
  expanded deterministically (declaration order, last axis fastest) into
  per-cell runner calls.
* :class:`ExperimentSpec` — one declared experiment: identifier, title,
  schema, runner, optional grid.
* :class:`BenchSpec` — an :class:`ExperimentSpec` subtype whose runs emit the
  unified machine-readable report (``spot-bench/v1``): metrics rows + resolved
  parameters + detector config + seed + git provenance from one shared
  :func:`bench_stamp` helper.

The concrete specs live in :mod:`repro.eval.registry`; nothing here knows
about individual experiments.
"""

from __future__ import annotations

import argparse
import itertools
import json
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import ConfigurationError
from .experiments import ExperimentReport

#: Version tag of the unified bench report schema.  Every BENCH_*.json the
#: harness writes carries it; the CI spec-smoke job validates every committed
#: report against :func:`validate_bench_payload`.
BENCH_SCHEMA = "spot-bench/v1"

_LIST_TYPES = {"int_list": int, "float_list": float, "str_list": str}
_SCALAR_TYPES = ("int", "float", "str", "bool")
_TRUE_WORDS = {"1", "true", "yes", "on"}
_FALSE_WORDS = {"0", "false", "no", "off"}


def parse_bool(text: str) -> bool:
    """Parse a CLI/``--set`` boolean token."""
    lowered = str(text).strip().lower()
    if lowered in _TRUE_WORDS:
        return True
    if lowered in _FALSE_WORDS:
        return False
    raise ConfigurationError(f"cannot parse boolean from {text!r}")


@dataclass(frozen=True)
class Param:
    """One typed parameter of an experiment or benchmark.

    Attributes
    ----------
    name:
        The ``--set`` key, which is also the keyword argument of the spec's
        runner function.
    type:
        One of ``int``, ``float``, ``str``, ``bool``, ``int_list``,
        ``float_list``, ``str_list``.  List values are comma-separated in
        ``--set`` syntax (``--set dimension_settings=10,30``).
    default:
        The value used when no override is given.  Recorded in reports.
    help:
        One-line description (shown by the derived CLI flags and the
        registry listing).
    choices:
        Optional closed set of allowed values (scalar types only).
    optional:
        When true, ``None`` is a legal value and the tokens ``none``/``null``
        parse to it.
    flag:
        Long CLI option derived for this parameter (defaults to
        ``--<name-with-dashes>``).  Legacy subcommand aliases use this to keep
        their historical spellings (e.g. ``--training`` for ``n_training``).
    """

    name: str
    type: str
    default: object
    help: str = ""
    choices: Optional[Tuple[object, ...]] = None
    optional: bool = False
    flag: Optional[str] = None

    def __post_init__(self) -> None:
        if self.type not in _SCALAR_TYPES and self.type not in _LIST_TYPES:
            raise ConfigurationError(
                f"parameter {self.name!r} has unknown type {self.type!r}")

    @property
    def cli_flag(self) -> str:
        """The long option spelling of this parameter."""
        return self.flag or "--" + self.name.replace("_", "-")

    def _element_type(self) -> Callable[[str], object]:
        if self.type in _LIST_TYPES:
            return _LIST_TYPES[self.type]
        return {"int": int, "float": float, "str": str,
                "bool": parse_bool}[self.type]

    def parse(self, text: str) -> object:
        """Parse one ``--set``-style string value into the parameter's type."""
        stripped = str(text).strip()
        if self.optional and stripped.lower() in ("none", "null", ""):
            return None
        convert = self._element_type()
        try:
            if self.type in _LIST_TYPES:
                parts = [p for p in stripped.split(",") if p.strip() != ""]
                if not parts:
                    raise ValueError("empty list")
                return tuple(convert(p.strip()) for p in parts)
            value = convert(stripped)
        except (TypeError, ValueError) as exc:
            raise ConfigurationError(
                f"cannot parse {self.name}={text!r} as {self.type}") from exc
        self.validate(value)
        return value

    def validate(self, value: object) -> object:
        """Check a (typed) value against this parameter; return it."""
        if value is None:
            if not self.optional:
                raise ConfigurationError(
                    f"parameter {self.name!r} is not optional")
            return value
        if self.type in _LIST_TYPES:
            element = _LIST_TYPES[self.type]
            if not isinstance(value, (list, tuple)):
                raise ConfigurationError(
                    f"parameter {self.name!r} expects a list of {element.__name__}, "
                    f"got {value!r}")
            for item in value:
                if element is float and isinstance(item, int) \
                        and not isinstance(item, bool):
                    continue
                if not isinstance(item, element) or isinstance(item, bool) \
                        and element is not bool:
                    raise ConfigurationError(
                        f"parameter {self.name!r} expects {element.__name__} "
                        f"elements, got {item!r}")
            return tuple(value)
        if self.type == "bool":
            if not isinstance(value, bool):
                raise ConfigurationError(
                    f"parameter {self.name!r} expects a bool, got {value!r}")
        elif self.type == "int":
            if not isinstance(value, int) or isinstance(value, bool):
                raise ConfigurationError(
                    f"parameter {self.name!r} expects an int, got {value!r}")
        elif self.type == "float":
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ConfigurationError(
                    f"parameter {self.name!r} expects a float, got {value!r}")
            value = float(value)
        elif self.type == "str":
            if not isinstance(value, str):
                raise ConfigurationError(
                    f"parameter {self.name!r} expects a str, got {value!r}")
        if self.choices is not None and value not in self.choices:
            raise ConfigurationError(
                f"parameter {self.name!r} must be one of {list(self.choices)}, "
                f"got {value!r}")
        return value


@dataclass(frozen=True)
class ParamSchema:
    """An ordered collection of :class:`Param` declarations."""

    params: Tuple[Param, ...]

    def __post_init__(self) -> None:
        names = [p.name for p in self.params]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate parameter names in {names}")

    def __iter__(self):
        return iter(self.params)

    def names(self) -> List[str]:
        return [p.name for p in self.params]

    def get(self, name: str) -> Param:
        for param in self.params:
            if param.name == name:
                return param
        raise ConfigurationError(
            f"unknown parameter {name!r}; known: {self.names()}")

    def defaults(self) -> Dict[str, object]:
        """The default value of every parameter, in declaration order."""
        return {p.name: p.default for p in self.params}

    def resolve(self, overrides: Optional[Mapping[str, object]] = None
                ) -> Dict[str, object]:
        """Validate ``overrides`` and merge them over the defaults."""
        resolved = self.defaults()
        for name, value in (overrides or {}).items():
            param = self.get(name)
            resolved[name] = param.validate(value)
        return resolved

    def apply_set(self, assignments: Sequence[str]) -> Dict[str, object]:
        """Parse ``key=value`` strings (the ``--set`` syntax) into overrides."""
        overrides: Dict[str, object] = {}
        for assignment in assignments:
            key, separator, text = str(assignment).partition("=")
            if not separator:
                raise ConfigurationError(
                    f"--set expects key=value, got {assignment!r}")
            param = self.get(key.strip())
            overrides[param.name] = param.parse(text)
        return overrides

    def add_cli_arguments(self, parser: argparse.ArgumentParser, *,
                          skip: Sequence[str] = ()) -> None:
        """Derive one long option per parameter on ``parser``.

        Options default to ``argparse.SUPPRESS`` so that
        :func:`collect_cli_overrides` can tell "not given" from any real
        value (including ``None`` for optional parameters).
        """

        def converter(param: Param) -> Callable[[str], object]:
            # argparse only turns ValueError/TypeError/ArgumentTypeError into
            # clean usage errors, so parse failures must not leak
            # ConfigurationError tracebacks.
            def convert(text: str) -> object:
                try:
                    return param.parse(text)
                except ConfigurationError as exc:
                    raise argparse.ArgumentTypeError(str(exc)) from exc

            return convert

        for param in self.params:
            if param.name in skip:
                continue
            kwargs: Dict[str, object] = {
                "dest": param.name,
                "default": argparse.SUPPRESS,
                "help": param.help or param.name,
            }
            if param.type in _LIST_TYPES:
                kwargs["type"] = _LIST_TYPES[param.type]
                kwargs["nargs"] = "+"
            elif param.type == "bool":
                kwargs["type"] = converter(param)
                kwargs["metavar"] = "{true,false}"
            else:
                kwargs["type"] = converter(param)
            if param.choices is not None and param.type == "str":
                kwargs["choices"] = param.choices
                kwargs.pop("type")
            parser.add_argument(param.cli_flag, **kwargs)


def collect_cli_overrides(args: argparse.Namespace,
                          schema: ParamSchema) -> Dict[str, object]:
    """Overrides from schema-derived CLI options that were actually given."""
    overrides: Dict[str, object] = {}
    for param in schema:
        if hasattr(args, param.name):
            value = getattr(args, param.name)
            if param.type in _LIST_TYPES and isinstance(value, list):
                value = tuple(value)
            overrides[param.name] = param.validate(value)
    return overrides


@dataclass(frozen=True)
class GridAxis:
    """One sweep axis: ``source`` (a list-typed schema parameter) supplies the
    values, ``name`` is the scalar keyword the runner receives per cell."""

    name: str
    source: str


@dataclass(frozen=True)
class Grid:
    """Named cartesian sweep axes over list-valued schema parameters.

    Expansion is deterministic: axes vary in declaration order with the last
    axis fastest, and the values keep the order of the (resolved) source
    lists, so two expansions of the same resolved parameters are identical.
    """

    axes: Tuple[GridAxis, ...]

    def source_names(self) -> List[str]:
        return [axis.source for axis in self.axes]

    def expand(self, params: Mapping[str, object]) -> List[Dict[str, object]]:
        """All grid cells for the resolved ``params``, in deterministic order."""
        pools: List[Sequence[object]] = []
        for axis in self.axes:
            values = params.get(axis.source)
            if not isinstance(values, (list, tuple)) or not values:
                raise ConfigurationError(
                    f"grid axis {axis.name!r} needs a non-empty list in "
                    f"parameter {axis.source!r}, got {values!r}")
            pools.append(list(values))
        names = [axis.name for axis in self.axes]
        return [dict(zip(names, combo))
                for combo in itertools.product(*pools)]


@dataclass(frozen=True, kw_only=True)
class ExperimentSpec:
    """One declared experiment: everything the harness needs to run it.

    ``runner`` is called with the resolved parameters as keyword arguments
    (for grid specs: the non-axis parameters plus one scalar per axis, once
    per cell) and must return an :class:`ExperimentReport`.
    """

    id: str
    title: str
    description: str
    schema: ParamSchema
    runner: Callable[..., ExperimentReport]
    grid: Optional[Grid] = None

    def __post_init__(self) -> None:
        if self.grid is not None:
            for axis in self.grid.axes:
                param = self.schema.get(axis.source)
                if param.type not in _LIST_TYPES:
                    raise ConfigurationError(
                        f"grid axis {axis.name!r} source {axis.source!r} must "
                        f"be a list-typed parameter, got {param.type!r}")

    def resolve(self, overrides: Optional[Mapping[str, object]] = None
                ) -> Dict[str, object]:
        """Resolved (defaults + validated overrides) parameter mapping."""
        return self.schema.resolve(overrides)

    def cells(self, params: Mapping[str, object]) -> List[Dict[str, object]]:
        """The grid cells this run would execute (one empty cell if no grid)."""
        if self.grid is None:
            return [{}]
        return self.grid.expand(params)

    def run(self, **overrides: object) -> ExperimentReport:
        """Run the experiment (expanding the grid, if any) and merge rows."""
        params = self.resolve(overrides)
        if self.grid is None:
            return self.runner(**params)
        axis_sources = set(self.grid.source_names())
        base = {name: value for name, value in params.items()
                if name not in axis_sources}
        rows: List[Dict[str, object]] = []
        title = self.title
        notes = ""
        for cell in self.grid.expand(params):
            report = self.runner(**base, **cell)
            title, notes = report.title, report.notes
            rows.extend(dict(row) for row in report.rows)
        return ExperimentReport(experiment_id=self.id, title=title,
                                rows=tuple(rows), notes=notes)


@dataclass(frozen=True, kw_only=True)
class BenchSpec(ExperimentSpec):
    """An experiment whose runs are recorded as a unified bench report.

    Beyond :class:`ExperimentSpec`, a bench declares the ``benchmark`` name of
    its JSON payload, the workload description, the default output file, and a
    ``config_builder`` mapping the resolved parameters to the recorded
    detector configuration (the single source the old CLI payload blocks each
    re-derived by hand).
    """

    benchmark: str
    workload_desc: str
    default_out: str
    config_builder: Callable[[Mapping[str, object]], Dict[str, object]]


def _jsonify(value: object) -> object:
    if isinstance(value, tuple):
        return [_jsonify(item) for item in value]
    if isinstance(value, list):
        return [_jsonify(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonify(item) for key, item in value.items()}
    return value


def bench_stamp(*, repo_root: Optional[Path] = None,
                warn: bool = True) -> Dict[str, object]:
    """Git provenance of a bench report: ``{"git": describe, "dirty": bool}``.

    The dirty flag describes the *code*, not the artifacts: modifications to
    the committed ``BENCH_*.json`` reports themselves are ignored, because
    regenerating a series of reports necessarily dirties the earlier ones
    before the later ones are stamped (the failure mode behind the
    BENCH_learning.json re-stamp of commit 33360f2).  The bench-history
    database under ``benchmarks/history/`` is ignored for the same reason:
    ``bench <id> --record`` appends to it before the next bench of a
    regeneration sweep is stamped.  A dirty *code* tree warns loudly — a
    report stamped that way cannot be reproduced from any commit.
    """
    root = Path(repo_root) if repo_root else Path(__file__).resolve().parent

    def _git(*argv: str) -> Optional[str]:
        try:
            completed = subprocess.run(
                ["git", *argv], cwd=root, capture_output=True, text=True,
                timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        if completed.returncode != 0:
            return None
        return completed.stdout

    describe = _git("describe", "--always", "--tags")
    status = _git("status", "--porcelain")
    dirty = False
    if status is not None:
        for line in status.splitlines():
            path = line[3:].strip()
            name = path.rsplit("/", 1)[-1]
            if name.startswith("BENCH_") and name.endswith(".json"):
                continue
            if "benchmarks/history/" in path.replace("\\", "/"):
                continue
            dirty = True
            break
    stamp: Dict[str, object] = {
        "git": describe.strip() if describe else None,
        "dirty": dirty,
    }
    if dirty and warn:
        print("WARNING: bench report stamped from a dirty working tree "
              "(uncommitted code changes); the recorded numbers are not "
              "reproducible from any commit", file=sys.stderr)
    return stamp


def _telemetry_block(report: ExperimentReport) -> Dict[str, object]:
    """The payload's self-description of what instrumentation was measured.

    When the run carried ``engine=...+obs`` rows (the T1 ``obs_overhead``
    mode), the measured recorder-on and hooks-disabled overheads are folded
    in — worst row wins — so the committed artifact records whether the
    observability layer stayed inside its 3% disabled-path budget.
    """
    telemetry: Dict[str, object] = {
        "tracing_enabled": False,
        "metrics": "spot-metrics/v1 registry (always on)",
        "detection_path_overhead_budget_pct": 3.0,
    }
    obs_rows = [row for row in report.rows
                if str(row.get("engine", "")).endswith("+obs")]
    if obs_rows:
        telemetry["recorder_on_overhead_pct"] = max(
            float(row.get("obs_overhead_pct", 0.0)) for row in obs_rows)
        telemetry["recorder_off_overhead_pct"] = max(
            float(row.get("disabled_overhead_pct", 0.0)) for row in obs_rows)
    return telemetry


def build_bench_payload(spec: BenchSpec, params: Mapping[str, object],
                        report: ExperimentReport, *,
                        stamp: Optional[Dict[str, object]] = None
                        ) -> Dict[str, object]:
    """Assemble the unified ``spot-bench/v1`` payload for one bench run."""
    payload: Dict[str, object] = {
        "schema": BENCH_SCHEMA,
        "benchmark": spec.benchmark,
        "experiment": report.experiment_id,
        "title": report.title,
        "workload": spec.workload_desc,
        "params": _jsonify(dict(params)),
        "seed": params.get("seed"),
        "config": _jsonify(spec.config_builder(params)),
        "provenance": stamp if stamp is not None else bench_stamp(),
        # Harness runs keep telemetry dark: services are built without a
        # tracer (the NULL_TRACER no-op path) so the recorded numbers carry
        # no instrumentation overhead beyond the registry counters the
        # serving layer always maintained.  Recorded so a payload is
        # self-describing about what was (not) measured alongside it.
        "telemetry": _telemetry_block(report),
        "rows": [_jsonify(dict(row)) for row in report.rows],
    }
    if spec.grid is not None:
        payload["grid"] = {axis.name: _jsonify(params[axis.source])
                           for axis in spec.grid.axes}
    return payload


def validate_bench_payload(payload: Mapping[str, object]) -> List[str]:
    """Check a payload against the unified schema; return the problems found.

    An empty list means the payload is a valid ``spot-bench/v1`` report.
    """
    problems: List[str] = []
    if not isinstance(payload, Mapping):
        return ["payload is not a JSON object"]
    if payload.get("schema") != BENCH_SCHEMA:
        problems.append(
            f"schema is {payload.get('schema')!r}, expected {BENCH_SCHEMA!r}")
    for key in ("benchmark", "experiment", "workload", "title"):
        if not isinstance(payload.get(key), str) or not payload.get(key):
            problems.append(f"{key!r} must be a non-empty string")
    for key in ("params", "config"):
        if not isinstance(payload.get(key), Mapping):
            problems.append(f"{key!r} must be an object")
    seed = payload.get("seed")
    if seed is not None and not isinstance(seed, int):
        problems.append("'seed' must be an integer or null")
    provenance = payload.get("provenance")
    if not isinstance(provenance, Mapping):
        problems.append("'provenance' must be an object")
    else:
        if "git" not in provenance:
            problems.append("'provenance.git' is missing")
        if not isinstance(provenance.get("dirty"), bool):
            problems.append("'provenance.dirty' must be a boolean")
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("'rows' must be a non-empty list")
    else:
        for index, row in enumerate(rows):
            if not isinstance(row, Mapping):
                problems.append(f"rows[{index}] is not an object")
    grid = payload.get("grid")
    if grid is not None and not isinstance(grid, Mapping):
        problems.append("'grid' must be an object when present")
    telemetry = payload.get("telemetry")
    if telemetry is not None and not isinstance(telemetry, Mapping):
        problems.append("'telemetry' must be an object when present")
    return problems


def load_and_validate_bench_report(path: Path) -> List[str]:
    """Load one BENCH JSON file and validate it; return the problems found."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as exc:
        return [f"cannot load {path}: {exc}"]
    return validate_bench_payload(payload)
