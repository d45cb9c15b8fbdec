"""Interleaved wall-clock trials for the secure-set throughput benches.

Best-of-N timing of one configuration after another is too noisy on a
shared machine to support ratios: a load spike lands on whichever
configuration happened to run then.  Here every trial runs each
configuration once, in a fixed order, so slow periods hit all of them
alike; results are reported as the median and interquartile range.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, Sequence, Tuple

import numpy as np

#: Trials per secure-set bench (the minimum for a median + IQR claim).
TRIALS = 10


def interleaved_walls(
    runs: Dict[str, Callable[[], object]], trials: int = TRIALS
) -> Dict[str, np.ndarray]:
    """Wall seconds of each ``runs`` entry over ``trials`` interleaved rounds."""
    walls: Dict[str, list] = {name: [] for name in runs}
    for _ in range(trials):
        for name, run in runs.items():
            start = time.perf_counter()
            run()
            walls[name].append(time.perf_counter() - start)
    return {name: np.asarray(w) for name, w in walls.items()}


def median_iqr(values: Sequence[float]) -> Tuple[float, float]:
    """``(median, q3 - q1)`` of ``values``."""
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return float(median), float(q3 - q1)
