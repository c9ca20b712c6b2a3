"""Deterministic random number generation.

Every stochastic decision in pyvisor (workload address streams, device
latencies, scheduler tie-breaking, page contents for the sharing scanner)
draws from a :class:`DeterministicRNG` that the caller seeds explicitly.
Results are therefore a pure function of (configuration, seed), which is
what lets every table in EXPERIMENTS.md regenerate bit-identically.

The generator is xorshift64* -- tiny, fast in pure Python, and with far
better statistical behaviour than a raw LCG. It is *not* cryptographic
and must never be used for anything security-sensitive.
"""

from typing import List, Sequence, TypeVar

_T = TypeVar("_T")

_MASK64 = (1 << 64) - 1
_MULT = 0x2545F4914F6CDD1D


class DeterministicRNG:
    """Seedable xorshift64* generator with a small convenience API."""

    def __init__(self, seed: int = 1):
        if seed == 0:
            # xorshift has an all-zero fixed point; remap like SplitMix does.
            seed = 0x9E3779B97F4A7C15
        self._state = seed & _MASK64

    def fork(self, salt: int) -> "DeterministicRNG":
        """Return an independent generator derived from this one.

        Forking (rather than sharing) keeps component streams decoupled:
        adding a draw in one subsystem does not perturb another's stream.
        The (state, salt) pair is passed through the SplitMix64 finalizer
        so that nearby states or salts -- e.g. plan seeds 42 and 43 --
        still yield unrelated child streams.
        """
        z = (self._state ^ ((salt * _MULT) & _MASK64)) & _MASK64
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        z ^= z >> 31
        return DeterministicRNG(z)

    def fork_seed(self, salt: int) -> int:
        """A derived 64-bit seed for a child component.

        Components that take an integer seed (fault plans, shard
        states) rather than an RNG instance use this to derive
        decoupled per-component seeds from one root: it is the state a
        :meth:`fork` child would start from.
        """
        return self.fork(salt)._state

    def next_u64(self) -> int:
        """Return the next raw 64-bit value."""
        x = self._state
        x ^= (x >> 12)
        x ^= (x << 25) & _MASK64
        x ^= (x >> 27)
        self._state = x
        return (x * _MULT) & _MASK64

    def randint(self, lo: int, hi: int) -> int:
        """Return a uniform integer in the inclusive range [lo, hi]."""
        if hi < lo:
            raise ValueError(f"empty range [{lo}, {hi}]")
        span = hi - lo + 1
        return lo + self.next_u64() % span

    def random(self) -> float:
        """Return a uniform float in [0, 1)."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def choice(self, seq: Sequence[_T]) -> _T:
        """Return a uniformly chosen element of a non-empty sequence."""
        if not seq:
            raise ValueError("cannot choose from an empty sequence")
        return seq[self.randint(0, len(seq) - 1)]

    def sample_zipf(self, n: int) -> int:
        """Return an index in [0, n) with a Zipf(1) popularity skew.

        Used by workload generators to produce realistic hot/cold
        popularity. Implemented by inverse-CDF over the harmonic weights.
        """
        if n <= 0:
            raise ValueError("n must be positive")
        if n == 1:
            return 0
        cdf = self._zipf_cdf(n)
        u = self.random()
        lo, hi = 0, n - 1
        while lo < hi:
            mid = (lo + hi) // 2
            if cdf[mid] < u:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # A tiny per-instance cache: workloads call sample_zipf in a loop with
    # constant n, and recomputing the CDF per draw would be O(n) per
    # sample.
    def _zipf_cdf(self, n: int) -> List[float]:
        cache = getattr(self, "_zipf_cache", None)
        if cache is None:
            cache = {}
            self._zipf_cache = cache
        cdf = cache.get(n)
        if cdf is None:
            weights = [1.0 / (i + 1) for i in range(n)]
            total = sum(weights)
            acc = 0.0
            cdf = []
            for w in weights:
                acc += w / total
                cdf.append(acc)
            cdf[-1] = 1.0
            cache[n] = cdf
        return cdf
