"""The statistics e2ebench reports: median, quartiles and the tail rule.

A timing is reported as its median plus the highest percentile that has at
least ten samples beyond it, together with the sample count. Quartiles are
the ones Python's statistics.quantiles(values, n=4) gives (its default
"exclusive" method), which is also how run-to-run spread is judged: the
distance between the first and third quartile as a share of the median.
"""
import math
import re
import statistics

METRIC_NAME = re.compile(r"[A-Za-z0-9_.-]+")
TAIL_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
MIN_BEYOND = 10


def median(values):
    if not values:
        raise ValueError("median of no values")
    return statistics.median(values)


def quartiles(values):
    """(q1, median, q3); a single value is its own three quartiles."""
    if not values:
        raise ValueError("quartiles of no values")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / abs(q2) if q2 else math.inf


def tail(values, ladder=TAIL_LADDER, min_beyond=MIN_BEYOND):
    """The highest ladder percentile with at least `min_beyond` samples
    beyond it, as (percentile, value, samples beyond, sample count).

    The percentile is nearest-rank: the sample at rank ceil(p/100 * n) of
    the sorted values; the samples beyond it are the n - rank after it.
    None when even the median has fewer than `min_beyond` beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    best = None
    for pct in ladder:
        rank = max(1, math.ceil(pct * n / 100.0 - 1e-9))
        if rank <= n and n - rank >= min_beyond:
            best = (pct, ordered[rank - 1], n - rank, n)
    return best


def check_metric_names(names):
    bad = [name for name in names if not METRIC_NAME.fullmatch(name)]
    if bad:
        raise ValueError(f"metric names outside [A-Za-z0-9_.-]+: {bad}")
