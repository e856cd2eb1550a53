"""Order statistics for the benchmark's timings."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np


def percentile(values: Sequence[float], q: float) -> Tuple[float, int]:
    """The ``q``-th percentile (0-100) of ``values`` and the sample count.

    NumPy's default linear interpolation, so the 50th percentile of an
    even-sized sample is the mean of the middle pair.  Raises
    :class:`ValueError` on an empty sample or a ``q`` outside 0-100: a
    percentile of nothing is not zero.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be within 0..100, got {q}")
    if len(values) == 0:
        raise ValueError("percentile of an empty sample")
    return float(np.percentile(values, q)), len(values)


@dataclass(frozen=True)
class Timing:
    """Median and 90th percentile of one kind of operation, with counts."""

    p50: float
    p90: float
    n: int
    #: samples strictly above the 90th percentile; fewer than ten means the
    #: tail percentile rests on too few samples to compare runs by it
    beyond_p90: int

    @staticmethod
    def of(values: Sequence[float]) -> "Timing":
        p50, n = percentile(values, 50)
        p90, _ = percentile(values, 90)
        return Timing(p50=p50, p90=p90, n=n,
                      beyond_p90=sum(1 for v in values if v > p90))
