"""Measurement helpers: percentiles, CPU time and resident memory."""

from __future__ import annotations

import math
import os
import resource
from typing import Sequence

import numpy as np


def percentile(values: Sequence[float], q: float) -> float:
    """``numpy.percentile`` of ``values``; 0.0 for an empty series, which
    the benchmark reports for a layer idle on a workload."""
    return float(np.percentile(values, q)) if len(values) else 0.0


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n - math.ceil(n * q / 100.0)


def process_cpu_seconds() -> float:
    """User plus system CPU of this process and its waited-for children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """High-water resident memory of this process, in MB.

    The measured fleet runs thread shards and a thread learning pool, so
    the program's memory is this process's.  ``ru_maxrss`` is in KiB on
    Linux.
    """
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
