"""Measurement statistics: Welch's two-sample t-test and Winsorized filtering.

The two-sided p-value comes from the Student-t distribution evaluated
through the regularized incomplete beta function, computed with the
modified Lentz continued-fraction scheme to a 1e-12 tolerance, so there is
no dependency on an external statistics package (one is used as an oracle
in the tests instead).
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class StatsError(Exception):
    pass


@dataclass(frozen=True)
class SampleSet:
    values: tuple[float, ...]
    label: str = ""

    def __post_init__(self):
        if any(not math.isfinite(v) for v in self.values):
            raise StatsError(f"sample set {self.label!r} contains non-finite values")

    @property
    def n(self) -> int:
        return len(self.values)

    def mean(self) -> float:
        return sum(self.values) / self.n

    def var(self) -> float:
        m = self.mean()
        return sum((v - m) ** 2 for v in self.values) / (self.n - 1)


def _betacf(a: float, b: float, x: float) -> float:
    """Continued fraction for the incomplete beta function (modified Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, 501):
        m2 = 2 * m
        # one Lentz update each for the even and the odd coefficient
        for aa in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                   -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + aa * d
            if abs(d) < tiny:
                d = tiny
            c = 1.0 + aa / c
            if abs(c) < tiny:
                c = tiny
            d = 1.0 / d
            delta = d * c
            h *= delta
        if abs(delta - 1.0) < 1e-12:
            return h
    raise StatsError("incomplete beta continued fraction did not converge")


def betainc_regularized(a: float, b: float, x: float) -> float:
    """I_x(a, b), the regularized incomplete beta function."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    front = math.exp(
        math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        + a * math.log(x) + b * math.log1p(-x)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betacf(a, b, x) / a
    return 1.0 - front * _betacf(b, a, 1.0 - x) / b


def student_t_sf(t: float, df: float) -> float:
    """P(T >= t) for Student's t with `df` degrees of freedom."""
    if df <= 0:
        raise StatsError("degrees of freedom must be positive")
    x = df / (df + t * t)
    p = 0.5 * betainc_regularized(df / 2.0, 0.5, x)
    return p if t >= 0 else 1.0 - p


@dataclass(frozen=True)
class WelchResult:
    t: float
    df: float
    p: float
    degenerate: bool = False  # both variances were zero


def welch_t(a: SampleSet, b: SampleSet) -> WelchResult:
    """Welch's unequal-variance t-test; two-sided p-value.

    Zero variance on both sides degenerates: equal means give p = 1, unequal
    means give p = 0 with the degenerate flag set.
    """
    if a.n < 2 or b.n < 2:
        raise StatsError("both samples need at least two values")
    va, vb = a.var(), b.var()
    se2 = va / a.n + vb / b.n
    diff = a.mean() - b.mean()
    if se2 == 0.0:
        if diff == 0.0:
            return WelchResult(0.0, float(a.n + b.n - 2), 1.0, True)
        return WelchResult(math.inf if diff > 0 else -math.inf,
                           float(a.n + b.n - 2), 0.0, True)
    t = diff / math.sqrt(se2)
    df = se2**2 / (
        (va / a.n) ** 2 / (a.n - 1) + (vb / b.n) ** 2 / (b.n - 1)
    )
    p = 2.0 * student_t_sf(abs(t), df)
    return WelchResult(t, df, min(1.0, p))


def winsorize(a: SampleSet, fraction: float) -> SampleSet:
    """Clamp the lowest and highest floor(fraction*n) values to the nearest
    retained value; order and length are preserved."""
    if not 0.0 <= fraction < 0.5:
        raise StatsError("winsor fraction must be in [0, 0.5)")
    n = a.n
    k = int(fraction * n)
    if k == 0:
        return a
    ranked = sorted(a.values)
    lo, hi = ranked[k], ranked[n - 1 - k]
    return SampleSet(tuple(min(max(v, lo), hi) for v in a.values), a.label)
