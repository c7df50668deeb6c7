"""Sample statistics and metric-name rules shared by the benchmark."""

import math
import re
import statistics

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")

# A tail percentile is reported only when at least this many samples
# lie beyond it.
MIN_BEYOND = 10


def check_name(name):
    """Return ``name`` if it is a valid metric name, else raise ValueError.

    A name starts with a letter or digit and is made of at most 64
    letters, digits, ``_``, ``.`` and ``-``.
    """
    if not isinstance(name, str) or not NAME_RE.match(name):
        raise ValueError("invalid metric name %r" % (name,))
    return name


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile (0 < q < 100) of ``samples``.

    Returns None unless at least ``MIN_BEYOND`` samples lie strictly
    beyond the percentile's rank, so a p99 needs 1000 samples and a p50
    needs 20.
    """
    if not 0 < q < 100:
        raise ValueError("percentile %r outside (0, 100)" % (q,))
    n = len(samples)
    if n == 0:
        return None
    rank = max(1, math.ceil(q / 100.0 * n))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(samples)[rank - 1]


def median(samples):
    """Median of a non-empty list of whole-run samples (any count)."""
    if not samples:
        raise ValueError("median of no samples")
    return statistics.median(samples)


def coverage(root, children):
    """Share of the interval ``root`` = (t0, t1) covered by the union of
    the ``children`` intervals (clipped to the root)."""
    t0, t1 = root
    if t1 <= t0:
        return 0.0
    covered = 0.0
    end = t0
    for a, b in sorted((max(a, t0), min(b, t1)) for a, b in children):
        if b <= end:
            continue
        covered += b - max(a, end)
        end = b
    return covered / (t1 - t0)
