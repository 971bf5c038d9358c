"""Small shared numerics: least-squares line fitting."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class FitResult:
    """Least-squares line fit y = slope * x + intercept."""

    slope: float
    intercept: float
    r_squared: float
    points_used: int


def linear_fit(xs: Sequence[float], ys: Sequence[float]) -> FitResult:
    """Ordinary least squares on (xs, ys); needs at least 3 points."""
    n = len(xs)
    if n != len(ys):
        raise ValueError("mismatched fit inputs")
    if n < 3:
        raise ValueError("need at least 3 points to fit")
    mean_x = math.fsum(xs) / n
    mean_y = math.fsum(ys) / n
    sxx = math.fsum((x - mean_x) ** 2 for x in xs)
    sxy = math.fsum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    syy = math.fsum((y - mean_y) ** 2 for y in ys)
    if sxx == 0:
        raise ValueError("degenerate fit: all x identical")
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    r_squared = 1.0 if syy == 0 else min(1.0, max(0.0, (sxy * sxy) / (sxx * syy)))
    return FitResult(slope=slope, intercept=intercept, r_squared=r_squared, points_used=n)

