"""Generic parameter sweeps over SPOT configurations.

The paper promises an evaluation "under a wide spectrum of settings"; these
helpers run the same workload against a family of configurations differing in
one parameter and collect the quality/efficiency metrics per value, so the
sensitivity of SPOT to its knobs (rd_threshold, omega, cells_per_dimension,
MaxDimension...) can be tabulated.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..core.config import SPOTConfig
from ..core.detector import SPOT
from ..core.exceptions import ConfigurationError
from .runner import evaluate_detector
from .workloads import Workload

Row = Dict[str, object]


def sweep_config_parameter(workload: Workload, base_config: SPOTConfig,
                           parameter: str, values: Sequence[object], *,
                           supervised: bool = False) -> List[Row]:
    """Evaluate SPOT on ``workload`` once per value of one config parameter.

    Returns one reporting row per value, containing the swept value plus the
    usual effectiveness / efficiency metrics.
    """
    if not values:
        raise ConfigurationError("values must not be empty")
    if parameter not in SPOTConfig.__dataclass_fields__:
        raise ConfigurationError(f"unknown SPOTConfig parameter {parameter!r}")
    rows: List[Row] = []
    for value in values:
        config = base_config.replace(**{parameter: value})
        evaluation = evaluate_detector(SPOT(config), workload,
                                       detector_name=f"SPOT[{parameter}={value}]",
                                       supervised=supervised)
        row = evaluation.as_row()
        row[parameter] = value
        rows.append(row)
    return rows


def sweep_detectors_over_workloads(
        factories: Dict[str, Callable[[], object]],
        workloads: Sequence[Workload]) -> List[Row]:
    """Cartesian sweep: every detector factory on every workload."""
    if not factories or not workloads:
        raise ConfigurationError("factories and workloads must not be empty")
    rows: List[Row] = []
    for workload in workloads:
        for name, factory in factories.items():
            evaluation = evaluate_detector(factory(), workload,
                                           detector_name=name)
            rows.append(evaluation.as_row())
    return rows
