"""Summary statistics used by experiment harnesses and schedulers."""

import math
from dataclasses import asdict, dataclass
from typing import Dict, Iterable, List, Sequence


def percentile(values: Sequence[float], p: float) -> float:
    """Return the p-th percentile (0..100) by linear interpolation.

    Matches numpy's default ("linear") method so results line up with any
    external analysis a user does on exported data.
    """
    if not values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} out of range [0, 100]")
    ordered = sorted(values)
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (p / 100.0) * (len(ordered) - 1)
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return float(ordered[lo])
    frac = rank - lo
    return ordered[lo] * (1.0 - frac) + ordered[hi] * frac


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1.0 is perfectly fair, 1/n maximally unfair."""
    if not shares:
        raise ValueError("fairness of empty sequence")
    peak = max(map(abs, shares))
    if peak == 0:
        return 1.0  # everyone got exactly zero: degenerate but "fair"
    # Scaled to the largest share: the squares of tiny shares lose their
    # precision to underflow, which lifts the index past 1.
    total = sum(s / peak for s in shares)
    sq = sum((s / peak) ** 2 for s in shares)
    return (total * total) / (len(shares) * sq)


def geomean(values: Sequence[float]) -> float:
    """Geometric mean; standard for normalized-overhead summaries."""
    if not values:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geomean requires strictly positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    stdev: float
    minimum: float
    p50: float
    p95: float
    p99: float
    maximum: float

    @classmethod
    def of(cls, values: Iterable[float]) -> "Summary":
        data: List[float] = [float(v) for v in values]
        if not data:
            raise ValueError("summary of empty sequence")
        n = len(data)
        mean = sum(data) / n
        var = sum((v - mean) ** 2 for v in data) / n
        return cls(
            count=n,
            mean=mean,
            stdev=math.sqrt(var),
            minimum=min(data),
            p50=percentile(data, 50),
            p95=percentile(data, 95),
            p99=percentile(data, 99),
            maximum=max(data),
        )

    def to_dict(self) -> Dict[str, float]:
        """Plain JSON-serializable mapping (field name -> value)."""
        return asdict(self)
