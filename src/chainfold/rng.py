"""Deterministic pseudorandom generator for all randomized components.

SplitMix64: a fixed, well-documented 64-bit generator (Steele, Lea, Flood,
"Fast splittable pseudorandom number generators", OOPSLA 2014).  Chosen over
the stdlib Mersenne Twister because the whole state is one 64-bit word and
the stream is trivially reproducible from a printed seed on any platform.

Identical seeds reproduce identical draws byte-for-byte; every randomized
path in the package funnels through this class.
"""

MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class SplitMix64:
    """Seeded 64-bit generator."""

    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next64(self) -> int:
        self.state = (self.state + _GOLDEN) & MASK64
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        return z ^ (z >> 31)

    def randbelow(self, bound: int) -> int:
        """Uniform integer in [0, bound), by rejection (unbiased)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        limit = (1 << 64) - ((1 << 64) % bound)
        while True:
            r = self.next64()
            if r < limit:
                return r % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randbelow(i + 1)
            items[i], items[j] = items[j], items[i]

    def permutation(self, n: int) -> tuple[int, ...]:
        """Uniform permutation of [n], as a tuple of the values 1..n."""
        items = list(range(1, n + 1))
        self.shuffle(items)
        return tuple(items)

    def sample(self, n: int, k: int) -> tuple[int, ...]:
        """Uniform k-subset of [n], returned sorted."""
        if not 0 <= k <= n:
            raise ValueError("need 0 <= k <= n")
        items = list(range(1, n + 1))
        for i in range(k):
            j = i + self.randbelow(n - i)
            items[i], items[j] = items[j], items[i]
        return tuple(sorted(items[:k]))
