"""Slow reference computations that the tests compare the package to."""

from votephase.model import BadParameter, _as_probability, _as_size


def geometric_variance_factor_direct(gamma: float, n: int) -> float:
    """O(n) sum 1 + 2 sum_{j<n} (1 - j/n) gamma**j for the closed form."""
    g = _as_probability(gamma, "gamma", BadParameter)
    n = _as_size(n, "n")
    total = 1.0
    power = 1.0
    for j in range(1, n):
        power *= g
        total += 2.0 * (1.0 - j / n) * power
    return total
