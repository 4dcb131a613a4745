"""Small numeric helpers: log-log slope fits."""

import numpy as np


def fit_loglog_slope(xs, ys):
    """Least-squares slope of log(y) against log(x).

    Returns (slope, intercept).  Requires positive data.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if len(xs) < 2:
        raise ValueError("slope fit needs at least two points")
    if np.any(xs <= 0) or np.any(ys <= 0):
        raise ValueError("slope fit needs positive data")
    slope, intercept = np.polyfit(np.log(xs), np.log(ys), 1)
    return float(slope), float(intercept)
