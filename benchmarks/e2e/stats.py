"""Order statistics for benchmark samples.

A percentile is only reported when at least ``MIN_BEYOND`` samples lie
beyond it: a p99 over 200 requests rests on two samples and repeats
poorly, so the helper refuses it instead of printing a number.
"""

from __future__ import annotations

import statistics
from typing import Dict, Sequence

import numpy as np

MIN_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def percentile(values: Sequence[float], q: int,
               min_beyond: int = MIN_BEYOND) -> float:
    """The ``q``-th percentile (integer ``0 < q < 100``) of ``values``.

    Raises :class:`TooFewSamples` when fewer than ``min_beyond`` samples
    lie beyond it, i.e. when ``len(values) * (100 - q) / 100 < min_beyond``.
    """
    if not 0 < q < 100 or int(q) != q:
        raise ValueError(f"percentile must be an integer in (0, 100), got {q}")
    n = len(values)
    if n == 0 or n * (100 - q) < min_beyond * 100:
        need = -(-min_beyond * 100 // (100 - q))
        raise TooFewSamples(
            f"p{q} needs at least {need} samples for {min_beyond} beyond "
            f"it; got {n}")
    return float(np.percentile(np.asarray(values, dtype=float), q))


def quartiles(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    values = [float(v) for v in values]
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"q1": q1, "median": median, "q3": q3}


def relative_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median."""
    q = quartiles(values)
    return (q["q3"] - q["q1"]) / abs(q["median"]) if q["median"] else 0.0


def geometric_mean(values: Sequence[float]) -> float:
    return float(np.exp(np.mean(np.log(np.asarray(values, dtype=float)))))
