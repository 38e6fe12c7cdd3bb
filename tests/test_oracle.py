import functools
import hashlib
import math
import os
import subprocess
import sys
import threading
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import betainc
from scipy.stats import binom

from votephase import oracle
from votephase.analytic import (
    estimated_error_asymptotic,
    limiting_error,
    mean_individual_error,
    sum_variance,
)
from votephase.model import (
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    Prior,
    RatePair,
    SizeGuardExceeded,
)
from votephase.oracle import (
    BINOMIAL_SIZE_GUARD,
    BRUTE_FORCE_SIZE_GUARD,
    GEOMETRIC_SIZE_GUARD,
    GEOMETRIC_THREAD_MIN_N,
    binomial_pmf,
    brute_force_error,
    class_pmfs,
    exact_error,
    exact_vote_pmf,
)
from reference import (
    decimal_markov_pmf_at,
    exact_error_fraction,
    exact_pmf,
    markov_sum_pmf_dp,
    pmf_mean,
    pmf_variance,
    run_count_log_pmf,
)

rates = st.floats(min_value=0.01, max_value=0.99)
params = st.floats(min_value=0.01, max_value=0.99)


def _cfg(n, p, q, pi=0.5, model=None):
    return EnsembleConfig(
        n=n, rates=RatePair(p=p, q=q), prior=Prior(pi=pi), model=model or Independent()
    )


class TestBinomialPmf:
    def test_frozen_bin_5_07(self):
        expected = [0.00243, 0.02835, 0.1323, 0.3087, 0.36015, 0.16807]
        np.testing.assert_allclose(binomial_pmf(5, 0.7), expected, rtol=0, atol=1e-15)

    def test_n_one(self):
        np.testing.assert_allclose(binomial_pmf(1, 0.3), [0.7, 0.3], atol=1e-15)

    @given(n=st.integers(min_value=1, max_value=500), r=rates)
    @settings(max_examples=150)
    def test_moments(self, n, r):
        pmf = binomial_pmf(n, r)
        k = np.arange(n + 1)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-12)
        assert float(k @ pmf) == pytest.approx(n * r, rel=1e-11)
        assert float(((k - n * r) ** 2) @ pmf) == pytest.approx(
            n * r * (1 - r), rel=1e-9
        )

    @given(
        n=st.integers(min_value=1, max_value=2000),
        r=rates,
        frac=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=150)
    def test_lower_tail_matches_incomplete_beta(self, n, r, frac):
        # independent route: P(X <= k) = I_{1-r}(n - k, k + 1)
        k = min(int(frac * n), n - 1) if n > 1 else 0
        tail = float(binomial_pmf(n, r)[: k + 1].sum())
        reference = float(betainc(n - k, k + 1, 1.0 - r))
        assert tail == pytest.approx(reference, rel=1e-9, abs=1e-14)

    def test_large_n_stability(self):
        pmf = binomial_pmf(100_000, 0.3)
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        assert np.all(pmf >= 0)
        k = np.arange(100_001)
        assert float(k @ pmf) == pytest.approx(30_000.0, rel=1e-10)

    @pytest.mark.parametrize("n", [7, 15, 21, 101, 1001])
    def test_matches_exact_rationals(self, n):
        for r in (0.6, 0.4, 0.3, 0.01, 0.65):
            # r = a / d exactly; the numerators comb(n, k) a^k b^(n-k) come
            # from b^n by an exact integer recurrence, and int / int rounds
            # each mass correctly.
            a, d = Fraction(r).as_integer_ratio()
            b = d - a
            scale, numerator, exact = d**n, b**n, []
            for k in range(n + 1):
                exact.append(numerator / scale)
                numerator = numerator * (n - k) * a // ((k + 1) * b)
            exact = np.array(exact)
            big = exact >= 1e-200
            np.testing.assert_allclose(
                binomial_pmf(n, r)[big], exact[big], rtol=1e-12, atol=0, err_msg=f"r={r}"
            )

    @pytest.mark.parametrize("n", [10**5, 10**6])
    def test_matches_scipy_at_large_n(self, n):
        for r in (0.6, 0.4, 0.3, 1e-5):
            mass = binomial_pmf(n, r)
            ref = binom.pmf(np.arange(n + 1), n, r)
            big = ref >= 1e-300
            assert np.all(mass[big] > 0.0)
            np.testing.assert_allclose(mass[big], ref[big], rtol=1e-10, atol=0, err_msg=f"r={r}")


class TestVotePmf:
    def test_mass_is_read_only(self):
        # Held as given, and built from the factors on first read.
        for model in (Independent(), Equicorrelated(lam=0.3), Geometric(gamma=0.5)):
            pmf = exact_vote_pmf(model, 3, 0.4)
            with pytest.raises(ValueError):
                pmf.mass[0] = 1.0

    def test_tails_are_complementary(self):
        pmf = exact_vote_pmf(Independent(), 9, 0.35)
        for k in range(-5, 14):
            assert pmf.cdf_at(k) + pmf.upper_tail(k) == pytest.approx(1.0, abs=1e-12)
        assert pmf.cdf_at(-1) == 0.0
        assert pmf.upper_tail(9) == 0.0
        # Below -1 a bare negative slice bound would wrap without error.
        assert pmf.cdf_at(-5) == 0.0
        assert pmf.upper_tail(-5) == pmf.upper_tail(-1)
        assert pmf.cdf_at(13) == pmf.cdf_at(9)
        assert pmf.upper_tail(13) == 0.0


# Geometric masses as the oracle computes them: (n, rate, gamma) ->
# float.hex of each mass, and for larger n the SHA-256 of the
# little-endian float64 masses. Up to n = 2001 they are the full-pmf
# oracle's of commit 172710e, before a geometric pmf held its
# transfer-matrix factors. At n = 10001 and 20001 the factors are wider
# than ``oracle._BLOCK``, where products split into blocks and squarings
# take four products; that rounds differently, so these two digests pin
# the split products' masses, and ``tests/accuracy.py`` bounds their
# error.
_FROZEN_MASSES = {
    (1, 0.7, 0.9): ["0x1.3333333333334p-2", "0x1.6666666666666p-1"],
    (5, 0.6, 0.8): [
        "0x1.eb453b7c0a9b3p-3", "0x1.3081a80b4c645p-4", "0x1.4aadce2ef78f4p-4",
        "0x1.5f910a28f8c79p-4", "0x1.6e198e1b8c227p-4", "0x1.b826dea2487b1p-2",
    ],
    (8, 0.3, 0.5): [
        "0x1.cb944de815529p-3", "0x1.6a931e758bf34p-3", "0x1.5d3c89d3d3d23p-3",
        "0x1.2b3bed20d537bp-3", "0x1.cdfc29e75a16dp-4", "0x1.41e566363fd81p-4",
        "0x1.91b1ce99ab8d2p-5", "0x1.b722ba6a1eac9p-6", "0x1.e1e89ab39fffap-7",
    ],
}
_FROZEN_DIGESTS = {
    (2001, 0.6, 0.8): "d6b8dcb8b841ef12dd5f04ecaa0f1fa7bd9dc1bd716dc00fb2872758198a6620",
    (2001, 0.4, 0.8): "9e4bc29aa42d25b19c2719fa3bd973eccae2cc63a76ce27683990b78fa4d6432",
    (10001, 0.6, 0.99): "34d96da0754fd750800a4c4f4d6a231f9847a1757f99cb465b81797911811fdc",
    (20001, 0.6, 0.8): "490fa67f1c18412bc6bb5a5f2a8641595f412c3ae1a3f4d3a8fde439e29adb95",
}


@pytest.fixture
def product_widths(monkeypatch):
    """Width of every polynomial product the oracle computes from here on."""
    widths = []
    product = oracle._poly_product

    def spy(a, b):
        out = product(a, b)
        widths.append(0 if out is None else len(out[1]))
        return out

    monkeypatch.setattr(oracle, "_poly_product", spy)
    return widths


class TestFactorTails:
    """A geometric pmf reads its tails from the pgf's transfer-matrix
    factors and builds its n + 1 masses only when they are read."""

    def test_exact_error_convolves_nothing_wider_than_a_factor(self, product_widths):
        n, model = 2001, Geometric(gamma=0.8)
        exact_error(_cfg(n, 0.6, 0.4, model=model))
        widest = max(product_widths)
        # A factor of P**1000 holds at most 1001 masses; the pmf holds 2002.
        assert widest <= n // 2 + 1
        factors = [oracle._markov_factors(n, rate, model)[0] for rate in (0.6, 0.4)]
        assert widest <= max(len(f[1]) for pairs in factors for pair in pairs for f in pair)

    @pytest.mark.parametrize("n, rate, gamma", [*_FROZEN_MASSES, *_FROZEN_DIGESTS])
    def test_first_mass_read_builds_the_frozen_pmf(self, n, rate, gamma, product_widths):
        pmf = exact_vote_pmf(Geometric(gamma=gamma), n, rate)
        product_widths.clear()
        mass = pmf.mass
        if n > 1:
            assert max(product_widths) > n // 2 + 2
        built = len(product_widths)
        assert pmf.mass is mass and len(product_widths) == built
        assert not mass.flags.writeable
        if (n, rate, gamma) in _FROZEN_MASSES:
            assert [m.hex() for m in mass] == _FROZEN_MASSES[n, rate, gamma]
        else:
            digest = hashlib.sha256(mass.astype("<f8").tobytes()).hexdigest()
            assert digest == _FROZEN_DIGESTS[n, rate, gamma]

    @pytest.mark.parametrize(
        "model",
        [Geometric(gamma=0.3), Geometric(gamma=0.8), Geometric(gamma=0.999), Independent(),
         Equicorrelated(lam=0.3)],
        ids=lambda m: "-".join(map(str, m.to_dict().values())),
    )
    def test_tails_match_fsum_of_the_masses(self, model):
        for n in range(1, 41):
            for rate in (0.01, 0.1, 0.35, 0.6, 0.9, 0.99):
                pmf = exact_vote_pmf(model, n, rate)
                mass = pmf.mass
                for k in range(-3, n + 4):
                    cut = max(k + 1, 0)
                    lower, upper = min(1.0, math.fsum(mass[:cut])), min(1.0, math.fsum(mass[cut:]))
                    for got, want in ((pmf.cdf_at(k), lower), (pmf.upper_tail(k), upper)):
                        assert abs(got - want) <= 4 * 2**-52 * want, (n, rate, k)

    def test_lower_tail_below_tiny_reads_zero(self):
        pmf = exact_vote_pmf(Geometric(gamma=0.3), 2001, 0.99)
        first = int(np.flatnonzero(pmf.mass)[0])
        # P(g <= first - 1) is about 1.6e-308, below tiny, and
        # P(g <= first // 2) about 1e-625, below every double.
        assert pmf.cdf_at(first - 1) == 0.0 < TINY <= pmf.cdf_at(first)
        assert pmf.cdf_at(first // 2) == 0.0


class TestExactVotePmf:
    def test_independent_is_binomial(self):
        np.testing.assert_array_equal(
            exact_vote_pmf(Independent(), 7, 0.4).mass, binomial_pmf(7, 0.4)
        )

    def test_frozen_markov_n2(self):
        # t11 = 0.8, t01 = 0.3 at r = 0.6, gamma = 0.5
        pmf = exact_vote_pmf(Geometric(gamma=0.5), 2, 0.6)
        np.testing.assert_allclose(pmf.mass, [0.28, 0.24, 0.48], atol=1e-15)

    def test_markov_n1_is_marginal(self):
        pmf = exact_vote_pmf(Geometric(gamma=0.9), 1, 0.3)
        np.testing.assert_allclose(pmf.mass, [0.7, 0.3], atol=1e-15)

    def test_markov_small_gamma_approaches_binomial(self):
        pmf = exact_vote_pmf(Geometric(gamma=1e-9), 10, 0.45)
        np.testing.assert_allclose(pmf.mass, binomial_pmf(10, 0.45), atol=1e-7)

    def test_frozen_equicorrelated_endpoint_mass(self):
        pmf = exact_vote_pmf(Equicorrelated(lam=0.2), 5, 0.7)
        assert pmf.mass[0] == pytest.approx(0.061944, abs=1e-15)
        assert pmf.mass[5] == pytest.approx(0.2 * 0.7 + 0.8 * 0.7**5, rel=1e-12)

    @given(
        n=st.integers(min_value=1, max_value=64),
        r=rates,
        gamma=params,
        lam=params,
    )
    @settings(max_examples=100)
    def test_mean_and_variance_per_model(self, n, r, gamma, lam):
        for model in (Independent(), Geometric(gamma=gamma), Equicorrelated(lam=lam)):
            pmf = exact_vote_pmf(model, n, r)
            assert pmf_mean(pmf) == pytest.approx(n * r, rel=1e-10, abs=1e-12)
            assert pmf_variance(pmf) == pytest.approx(
                sum_variance(model, n, r), rel=1e-9, abs=1e-12
            )

    # Windows [lo, hi) that touch 0 (r = 5e-324) or n (r = 1 - 2**-53)
    # or both (n = 1, 2); at lam = 1e-300 the shared coin's end mass is
    # subnormal before the flush. A window narrower by one at either edge
    # leaves a nonzero mass unscaled.
    @pytest.mark.parametrize(
        "n, rate, lam",
        [
            (1, 0.6, 0.3),
            (2, 0.6, 0.3),
            (1, 5e-324, 0.3),
            (2, 1 - 2**-53, 0.3),
            (100, 5e-324, 0.3),
            (100, 1 - 2**-53, 0.3),
            (100, 1 - 2**-53, 1e-300),
            (100, 2**-53, 1e-300),
            (101, 0.5, 0.999),
            (1_000_000, 0.6, 0.3),
            (1_000_000, 0.4, 1e-300),
        ],
    )
    def test_equicorrelated_matches_the_full_array_mixture(self, n, rate, lam):
        want = binomial_pmf(n, rate)
        want *= 1.0 - lam
        want[0] += lam * (1.0 - rate)
        want[n] += lam * rate
        want[want < TINY] = 0.0
        got = exact_vote_pmf(Equicorrelated(lam=lam), n, rate).mass
        assert got.tobytes() == want.tobytes()

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="needs VmHWM")
    def test_equicorrelated_touches_only_the_window(self):
        # The n + 1 zeros come from np.zeros, whose pages are not resident
        # until written: scaling all of them grows the peak RSS by about
        # 86 MiB at n = 10**7, the binomial window and its temporaries by
        # about 6 MiB. The child reads VmHWM, its own address space's peak:
        # its ru_maxrss starts from the spawning test process's.
        code = """
from votephase.model import Equicorrelated
from votephase.oracle import exact_vote_pmf

def peak_kib():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

exact_vote_pmf(Equicorrelated(0.3), 1000, 0.6)
before = peak_kib()
exact_vote_pmf(Equicorrelated(0.3), 10**7, 0.6)
print(peak_kib() - before)
"""
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        proc = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        assert int(proc.stdout) / 1024 < 24

    @pytest.mark.parametrize(
        "model", [Independent(), Equicorrelated(lam=0.3)], ids=["independent", "equicorrelated"]
    )
    def test_binomial_size_guard(self, model):
        with pytest.raises(SizeGuardExceeded, match="binomial"):
            exact_vote_pmf(model, BINOMIAL_SIZE_GUARD + 1, 0.5)

    def test_geometric_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            exact_vote_pmf(Geometric(gamma=0.5), GEOMETRIC_SIZE_GUARD + 1, 0.5)


TINY = np.finfo(float).tiny


# The large geometric pmfs take about 0.1 s each; build each once.
_cached_pmf = functools.lru_cache(maxsize=None)(exact_vote_pmf)


# Two ordinary chains at n = 20001 whose tails underflow, and a nearly
# bimodal one (long runs) whose whole support is representable.
LARGE_GEOMETRIC = [(20001, 0.6, 0.8), (20001, 0.4, 0.3), (12001, 0.6, 0.999)]

# P(g = k) at both window edges of each LARGE_GEOMETRIC pmf: the four
# outermost reported masses on each side and the first k the oracle
# reports as 0 (none past k = 0 or k = n), each made by
#     f"{reference.decimal_markov_pmf_at(n, rate, gamma, k):.25e}"
# It takes 0.3-1.2 s per k at gamma = 0.8 and 7.5-17 s at gamma = 0.3
# on a 2-vCPU Xeon VM, too slow to run in every test run.
DECIMAL_EDGE_PINS = {
    (20001, 0.6, 0.8): {
        "low": {
            4220: "1.9417062257429763992607266e-308",
            4221: "2.3679766666756012624045777e-308",
            4222: "2.8877126703273159712894338e-308",
            4223: "3.5213825421049893929605748e-308",
            4224: "4.2939314642720549039540687e-308",
        },
        "high": {
            18520: "7.1753536175123529209206795e-308",
            18521: "5.2748790503076027140296574e-308",
            18522: "3.8771886085393195627702123e-308",
            18523: "2.8494203109991705837467672e-308",
            18524: "2.0937807813489691191482505e-308",
        },
    },
    (20001, 0.4, 0.3): {
        "low": {
            4630: "1.7215920173350089013691633e-308",
            4631: "2.6919915387895476394515923e-308",
            4632: "4.2086656407511498985972925e-308",
            4633: "6.5787359636291318470094200e-308",
            4634: "1.0281768021719813086428355e-307",
        },
        "high": {
            11602: "9.8259575113453299398707483e-308",
            11603: "6.6644252189257193447759528e-308",
            11604: "4.5196288576677652949761523e-308",
            11605: "3.0647503345846574053125030e-308",
            11606: "2.0779719536037594111642261e-308",
        },
    },
    (12001, 0.6, 0.999): {
        "low": {
            0: "2.9798971178592548108044200e-4",
            1: "1.2169718821118047203314724e-6",
            2: "1.2195210237012446448430760e-6",
            3: "1.2220735376034108759633052e-6",
        },
        "high": {
            11998: "1.8221287864877005244746683e-5",
            11999: "1.8193438966573142400203970e-5",
            12000: "1.8165607814655216784779370e-5",
            12001: "4.9331089064918881183524028e-3",
        },
    },
}


class TestGeometricLargeN:
    def test_reference_matches_dp_exhaustively_at_small_n(self):
        n, rate, gamma = 60, 0.35, 0.6
        ref = np.exp(run_count_log_pmf(n, rate, gamma, range(n + 1)))
        mass = exact_vote_pmf(Geometric(gamma=gamma), n, rate).mass
        np.testing.assert_allclose(mass, ref, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n, rate, gamma", LARGE_GEOMETRIC)
    def test_matches_run_count_reference(self, n, rate, gamma):
        mass = _cached_pmf(Geometric(gamma=gamma), n, rate).mass
        support = np.flatnonzero(mass)
        lo, hi, mode = support[0], support[-1], int(np.argmax(mass))
        ks = sorted(
            k
            for k in {
                0,
                n,
                *range(lo - 40, lo + 300, 4),
                *range(hi - 300, hi + 40, 4),
                *range(mode - 2, mode + 3),
                *range(n // 2 - 2, n // 2 + 3),
            }
            if 0 <= k <= n
        )
        log_ref = run_count_log_pmf(n, rate, gamma, ks)
        dp = mass[ks]
        reported = dp > 0.0
        assert reported.sum() >= 10
        # log-factorials near 2e5 carry ~3e-11 absolute error each; the
        # edge masses next to tiny are held to the same bound.
        np.testing.assert_allclose(dp[reported], np.exp(log_ref[reported]), rtol=1e-10)
        assert np.all(log_ref[~reported] < math.log(TINY))

    def test_decimal_reference_matches_exact_rationals(self):
        n, rate, gamma = 60, 0.35, 0.6
        exact = exact_pmf(Geometric(gamma=gamma), n, rate)
        for k in range(n + 1):
            got = Fraction(decimal_markov_pmf_at(n, rate, gamma, k))
            assert abs(got - exact[k]) <= Fraction(1, 10**40) * exact[k], k

    @pytest.mark.parametrize("n, rate, gamma", LARGE_GEOMETRIC)
    def test_edges_match_decimal_pins(self, n, rate, gamma):
        mass = _cached_pmf(Geometric(gamma=gamma), n, rate).mass
        support = np.flatnonzero(mass)
        low, high = DECIMAL_EDGE_PINS[n, rate, gamma].values()
        # The pins hold each edge and the first zeroed k beyond it.
        assert support[0] in low and (support[0] - 1 in low or support[0] == 0)
        assert support[-1] in high and (support[-1] + 1 in high or support[-1] == n)
        for k, pin in {**low, **high}.items():
            want = float(pin)
            if mass[k] > 0.0:
                assert abs(mass[k] - want) <= 1e-12 * want, k
            else:
                assert want < TINY, k

    @pytest.mark.parametrize("n, rate, gamma", LARGE_GEOMETRIC)
    def test_moments(self, n, rate, gamma):
        pmf = _cached_pmf(Geometric(gamma=gamma), n, rate)
        assert pmf_mean(pmf) == pytest.approx(n * rate, rel=1e-11)
        assert pmf_variance(pmf) == pytest.approx(
            sum_variance(Geometric(gamma=gamma), n, rate), rel=1e-11
        )


class TestTransferMatrixMatchesDp:
    """The transfer-matrix product against the step-by-step DP.

    r = 1 - 2**-53 is in the grid; gamma = 1 - 2**-53 is not: there both
    codes accumulate about n ulps of rounding and differ by 3.9e-13 at
    n = 4097.
    """

    RATES = (5e-324, 1e-9, 0.3, 0.5, 0.7, 1 - 1e-9, 1 - 2**-53)
    GAMMAS = (1e-9, 0.1, 0.5, 0.8, 0.9, 0.99, 0.999)

    @staticmethod
    def _assert_agree(mass, dp):
        big = dp >= 1e-200
        np.testing.assert_allclose(mass[big], dp[big], rtol=1e-12, atol=0)
        assert np.all(dp[mass >= 1e-200] > 0.0)

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 33, 64, 257, 1000, 4097])
    def test_grid(self, n):
        for rate in self.RATES:
            for gamma in self.GAMMAS:
                model = Geometric(gamma=gamma)
                mass = exact_vote_pmf(model, n, rate).mass
                self._assert_agree(mass, markov_sum_pmf_dp(n, rate, model))

    @pytest.mark.parametrize(
        "n, rate, gamma", [*LARGE_GEOMETRIC[:2], (20001, 1e-9, 0.5)]
    )
    def test_large_n(self, n, rate, gamma):
        model = Geometric(gamma=gamma)
        mass = _cached_pmf(model, n, rate).mass
        self._assert_agree(mass, markov_sum_pmf_dp(n, rate, model))

    # Where a rate or a transition is subnormal, whole matrix entries
    # trim away.
    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("rate", [5e-324, 1 - 2**-53])
    @pytest.mark.parametrize("gamma", [1e-9, 0.999])
    def test_edge_rates(self, n, rate, gamma):
        model = Geometric(gamma=gamma)
        mass = exact_vote_pmf(model, n, rate).mass
        assert mass.sum() == pytest.approx(1.0, rel=0, abs=1e-15)
        assert not np.any((mass > 0.0) & (mass < TINY))
        dp = markov_sum_pmf_dp(n, rate, model)
        big = dp >= 1e-200
        # The product adds (a + c) + (b + d) where the DP adds
        # (a + b) + (c + d), so a mass may differ in its last bit.
        np.testing.assert_array_max_ulp(mass[big], dp[big], maxulp=1)


def _random_poly(rng, tail):
    """(offset, masses) of 1-12 masses, or None; ``tail`` is the smallest
    mass the factor may reach, and both end masses are at least ``tail``."""
    if rng.random() < 0.15:
        return None
    width = int(rng.integers(1, 13))
    masses = np.exp(rng.uniform(math.log(tail), 0.0, width))
    masses[rng.random(width) < 0.2] = 0.0
    masses[[0, -1]] = np.maximum(masses[[0, -1]], tail)
    return int(rng.integers(0, 4)), masses


def _wide_poly(rng, tail, width):
    """(offset, masses) of ``width`` masses, the middle one in [0.5, 1)
    and both end masses in [tail, 2 tail)."""
    masses = np.exp(rng.uniform(math.log(tail), 0.0, width))
    masses[rng.random(width) < 0.2] = 0.0
    masses[width // 2] = rng.uniform(0.5, 1.0)
    masses[[0, -1]] = tail * rng.uniform(1.0, 2.0, 2)
    return int(rng.integers(0, 4)), masses


def _assert_matches_rationals(a, b, product):
    """Every mass of ``product`` = a * b at or above tiny is within
    min(widths) x 2**-52 of the exact rational one; below tiny, the
    exact mass is below 2 tiny."""
    (oa, x), (ob, y) = a, b
    exact = [Fraction(0)] * (len(x) + len(y) - 1)
    for i, xi in enumerate(map(Fraction, x)):
        for j, yj in enumerate(map(Fraction, y)):
            exact[i + j] += xi * yj
    got = np.zeros(len(exact))
    if product is not None:
        got[product[0] - oa - ob : product[0] - oa - ob + len(product[1])] = product[1]
    bound = min(len(x), len(y)) * Fraction(2) ** -52
    for value, want in zip(got, exact):
        if value >= TINY:
            assert abs(Fraction(value) - want) <= bound * want
        else:
            assert want < 2 * TINY


class TestPolynomialProducts:
    """``_square``, ``_square_power``, the block products of
    ``_convolve`` and the power-of-two scaling in ``_poly_product``."""

    # Both sides trim end masses below the trim floor, each from different
    # partial sums, so a mass may differ by up to width x floor, well
    # under width x tiny, on top of rounding.
    @staticmethod
    def _assert_close(got, want, width):
        dense = np.zeros((2, 4 * width + 8))
        for row, poly in zip(dense, (got, want)):
            if poly is not None:
                row[poly[0] : poly[0] + len(poly[1])] = poly[1]
        np.testing.assert_allclose(*dense, rtol=4 * width * 2.0**-52, atol=width * TINY)

    @pytest.mark.parametrize("seed", range(40))
    def test_square_matches_matmul_on_random_matrices(self, seed):
        rng = np.random.default_rng(seed)
        tail = [1e-3, 1e-150, TINY][seed % 3]
        m = [[_random_poly(rng, tail) for _ in range(2)] for _ in range(2)]
        width = 2 * max([len(e[1]) for row in m for e in row if e is not None], default=1)
        for got, want in zip(sum(oracle._square(m), []), sum(oracle._matmul(m, m), [])):
            self._assert_close(got, want, width)

    # At r = 0, r = 1 and r = 5e-324 one transition trims to the zero
    # polynomial; squaring repeatedly reaches wide, deep-tailed entries.
    @pytest.mark.parametrize("rate", [0.0, 1.0, 5e-324, 0.3, 0.99])
    @pytest.mark.parametrize("gamma", [1e-9, 0.5, 0.99])
    def test_square_matches_matmul_on_step_powers(self, rate, gamma):
        t11, t01 = Geometric(gamma=gamma).transitions(rate)
        m = [oracle._vote(t01), oracle._vote(t11)]
        for k in range(12):
            want = oracle._matmul(m, m)
            got = oracle._square(m)
            for g, w in zip(sum(got, []), sum(want, [])):
                self._assert_close(g, w, 2 ** (k + 1))
            m = want

    @pytest.mark.parametrize("seed", range(10))
    def test_scaled_product_is_convolve_where_no_product_underflows(self, seed):
        rng = np.random.default_rng(seed)
        widths = rng.integers(200, 600, 2)
        x, y = (
            np.exp(np.linspace(math.log(0.9), math.log(2.3e-308), w)) * rng.uniform(0.5, 1.0, w)
            for w in widths
        )
        x[-1] = y[-1] = 2.3e-308
        offset, got = oracle._poly_product((0, x), (0, y))
        want = np.convolve(x, y)
        # Output k is free of underflow when every product x[i] y[k - i]
        # is normal; a margin of 2 keeps rounding at the edge out.
        products = np.outer(x, y)
        clean = np.array([np.fliplr(products).diagonal(len(y) - 1 - k).min() >= 2 * TINY
                          for k in range(len(want))])
        assert offset == 0 and clean.any() and not clean.all()
        assert np.array_equal(got[clean[: len(got)]], want[: len(got)][clean[: len(got)]])

    # From seed 60 on, the factors' end masses are subnormal, down to the
    # trim floor, so the scaling must be exact on subnormals too.
    @pytest.mark.parametrize("seed", range(80))
    def test_scaled_product_matches_exact_rationals(self, seed):
        rng = np.random.default_rng(seed)
        tail = [1e-200, 1e-300, TINY][seed % 3] if seed < 60 else oracle._TRIM_FLOOR
        (oa, x), (ob, y) = (_random_poly(rng, tail) or (0, np.array([tail])) for _ in range(2))
        if tail < TINY:
            for masses in (x, y):
                masses[[0, -1]] = np.exp(rng.uniform(math.log(tail), math.log(TINY), 2))
        _assert_matches_rationals((oa, x), (ob, y), oracle._poly_product((oa, x), (ob, y)))

    # Past the block width, patched here to 8 masses, a square splits in
    # halves two or three levels deep and any other product sums block
    # products. End masses of 1e-3 and 1e-150 take the plain path, tiny
    # and the trim floor the scaled one, where a square scales both
    # factors by one power of two and so still reaches the split. The
    # scale s is odd at 25 masses and even at 50; a square evens it.
    @pytest.mark.parametrize("square", [False, True], ids=["general", "square"])
    @pytest.mark.parametrize("seed", range(12))
    def test_wide_product_matches_exact_rationals(self, seed, square, monkeypatch):
        monkeypatch.setattr(oracle, "_BLOCK", 8)
        squares = []
        convolve = oracle._convolve

        def spy(x, y):
            squares.append(x is y)
            return convolve(x, y)

        monkeypatch.setattr(oracle, "_convolve", spy)
        rng = np.random.default_rng(seed)
        tail = [1e-3, 1e-150, TINY, oracle._TRIM_FLOOR][seed % 4]
        width = (25, 50)[seed // 4 % 2]
        a = _wide_poly(rng, tail, width)
        b = a if square else _wide_poly(rng, tail, width + 7)
        product = oracle._poly_product(a, b)
        assert squares[0] is square and (len(squares) > 3) is square
        _assert_matches_rationals(a, b, product)

    # A product whose narrower factor is at most the block width is one
    # np.convolve, so every factor and mass of a pmf up to n of about
    # 4000 keeps its bits. Widths are in block widths.
    @pytest.mark.parametrize("blocks", [(1, 1), (1, 4), (3, 1), (0, 5), (0.1, 1)])
    def test_product_within_the_block_width_is_convolve(self, blocks):
        rng = np.random.default_rng(0)
        x, y = (rng.uniform(0.1, 1.0, max(1, int(b * oracle._BLOCK))) for b in blocks)
        assert np.array_equal(oracle._convolve(x, y), np.convolve(x, y))
        for z in (x, y):
            if len(z) <= oracle._BLOCK:
                square = (0, z)
                assert np.array_equal(oracle._poly_product(square, square)[1], np.convolve(z, z))

    # From P**2048 to P**8192 the entries grow past the block width
    # wherever the chain's window does. At r = 0, 1 and 5e-324 an
    # off-diagonal entry is 0 or kappa is not finite, and below the
    # block width the matrix is narrow: each of these squares by
    # ``_square``, in five products, the rest by reversibility in four.
    @pytest.mark.parametrize("rate", [0.0, 1.0, 5e-324, 0.3, 0.99])
    @pytest.mark.parametrize("gamma", [1e-9, 0.5, 0.99])
    def test_square_power_matches_matmul_past_the_block_width(self, rate, gamma, product_widths):
        t11, t01 = Geometric(gamma=gamma).transitions(rate)
        kappa = (1.0 - t11) / t01 if t01 else math.inf
        m = [oracle._vote(t01), oracle._vote(t11)]
        for _ in range(11):
            m = oracle._matmul(m, m)
        counts = []
        for k in range(11, 14):
            want = oracle._matmul(m, m)
            product_widths.clear()
            got = oracle._square_power(m, kappa)
            counts.append(len(product_widths))
            for g, w in zip(sum(got, []), sum(want, [])):
                self._assert_close(g, w, 2 ** (k + 1))
            m = want
        reversible = {(0.3, 1e-9), (0.3, 0.5), (0.3, 0.99), (0.99, 0.99)}
        assert (4 in counts) is ((rate, gamma) in reversible)
        assert set(counts) <= {4, 5}

    # The whole pmf against one with every product one np.convolve and
    # every squaring five products. kappa = (1 - r) / r in place of the
    # double transitions' (1 - t11) / t01 moves masses at r = 0.99,
    # gamma = 0.999 by about 4e-12.
    @pytest.mark.parametrize("rate, gamma", [(0.99, 0.999), (0.01, 0.999), (0.3, 0.99)])
    def test_split_products_keep_the_pmf_of_whole_products(self, rate, gamma, monkeypatch):
        n = 10001
        got = exact_vote_pmf(Geometric(gamma=gamma), n, rate).mass
        monkeypatch.setattr(oracle, "_BLOCK", n)
        want = exact_vote_pmf(Geometric(gamma=gamma), n, rate).mass
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=TINY)


class TestNoSubnormals:
    # Equicorrelated at lam = 1e-300 and r = 1 - 2**-53 or 2**-53: the
    # shared coin's lam (1 - r) or lam r is subnormal before the flush.
    @pytest.mark.parametrize(
        "model, n, rate",
        [
            (Independent(), 1_000_000, 0.6),
            (Independent(), 1001, 0.6),
            (Independent(), 1001, 5e-324),
            (Equicorrelated(lam=0.3), 1_000_000, 0.4),
            (Equicorrelated(lam=1e-300), 100, 1 - 2**-53),
            (Equicorrelated(lam=1e-300), 100, 2**-53),
            (Geometric(gamma=0.8), 20001, 0.6),
            (Geometric(gamma=0.999), 12001, 0.6),
            (Geometric(gamma=0.3), 1001, 5e-324),
        ],
    )
    def test_no_subnormal_masses(self, model, n, rate):
        mass = _cached_pmf(model, n, rate).mass
        assert mass.shape == (n + 1,) and not mass.flags.writeable
        assert not np.any((mass > 0.0) & (mass < TINY))
        assert not np.any(np.signbit(mass))
        assert abs(mass.sum() - 1.0) <= 1e-12

    @pytest.mark.parametrize("n", [1001, 1_000_000, BINOMIAL_SIZE_GUARD])
    def test_binomial_pmf_direct_call(self, n):
        # 10, 949 and 3003 masses here are subnormal before the flush
        mass = binomial_pmf(n, 0.6)
        assert mass.sum() == pytest.approx(1.0, rel=0, abs=1e-12)
        assert not np.any((mass > 0.0) & (mass < TINY))
        np.testing.assert_array_equal(mass, exact_vote_pmf(Independent(), n, 0.6).mass)


class TestExactError:
    def test_frozen_binomial_case(self):
        assert exact_error(_cfg(5, 0.7, 0.3)) == pytest.approx(0.16308, abs=1e-12)

    def test_frozen_equicorrelated_case(self):
        got = exact_error(_cfg(5, 0.7, 0.3, model=Equicorrelated(lam=0.2)))
        assert got == pytest.approx(0.190464, abs=1e-12)

    def test_even_n_tie_goes_to_class_zero(self):
        # n = 2, class 1 errs unless both vote 1: 1 - p^2
        got = exact_error(_cfg(2, 0.6, 0.3, pi=0.5))
        want = (1 - 0.36) * 0.5 + 0.09 * 0.5
        assert got == pytest.approx(want, rel=1e-12)

    def test_n_one_reduces_to_individual_error(self):
        cfg = _cfg(1, 0.7, 0.2, pi=0.3)
        assert exact_error(cfg) == pytest.approx(
            mean_individual_error(cfg.rates, cfg.prior), rel=1e-12
        )

    @given(n=st.integers(min_value=1, max_value=101), p=rates, q=rates, pi=rates)
    @example(n=89, p=0.01, q=0.875, pi=0.75)  # cdf_at(44) summed to 1 + 1 ulp
    @settings(max_examples=100)
    def test_in_unit_interval(self, n, p, q, pi):
        assert 0.0 <= exact_error(_cfg(n, p, q, pi)) <= 1.0

    def test_large_n_converges_to_limit(self):
        # p > 1/2 > q: majority error vanishes
        assert exact_error(_cfg(10_001, 0.6, 0.4)) < 1e-3


def _nine_cells(d):
    """(p, q) at 1/2 - d, 1/2 and 1/2 + d on each axis: one point per
    cell of the limit table."""
    sides = (0.5 - d, 0.5, 0.5 + d)
    return [RatePair(p=p, q=q) for p in sides for q in sides]


class TestNineCellLimit:
    """The paper's nine-cell limit against the exact oracle.

    n is odd, so a rate of exactly 1/2 puts mass 1/2 on each side of
    the tie by symmetry, which is the limit's on-boundary value. Off
    the boundary, 1/2 +- d sits far enough out at these n that the
    exact tails are below 1e-30.
    """

    PRIOR = Prior(pi=0.3)

    @pytest.mark.parametrize(
        "model, n, d",
        [(Independent(), 10**6 + 1, 0.01), (Geometric(gamma=0.5), 10_001, 0.1)],
        ids=["independent", "geometric"],
    )
    def test_exact_error_reaches_the_limit(self, model, n, d):
        for rates in _nine_cells(d):
            got = exact_error(EnsembleConfig(n=n, rates=rates, prior=self.PRIOR, model=model))
            assert abs(got - limiting_error(rates, self.PRIOR)) <= 1e-12, rates

    def test_equicorrelated_mixes_member_error_into_the_limit(self):
        # With probability lam every member copies one coin, so the
        # majority errs as one member does; otherwise the votes are
        # independent and reach the limit. The n-free plug-in value
        # misses this everywhere off the centre cell.
        lam = 0.1
        model = Equicorrelated(lam=lam)
        for rates in _nine_cells(0.01):
            cfg = EnsembleConfig(n=10**6 + 1, rates=rates, prior=self.PRIOR, model=model)
            got = exact_error(cfg)
            err = mean_individual_error(rates, self.PRIOR)
            want = lam * err + (1.0 - lam) * limiting_error(rates, self.PRIOR)
            assert abs(got - want) <= 1e-12, rates
            plug_in = estimated_error_asymptotic(rates, self.PRIOR, model)
            if (rates.p, rates.q) == (0.5, 0.5):
                assert abs(got - plug_in) <= 1e-12
            else:
                assert abs(got - plug_in) > 0.1, rates


def _geometric_cfg(n, gamma):
    return _cfg(n, 0.6, 0.4, model=Geometric(gamma=gamma))


class TestClassPmfs:
    """The two class pmfs of a large geometric config run on two threads
    when more than one CPU is usable; nothing else may change."""

    @pytest.mark.parametrize(
        "cfg",
        [
            *(_geometric_cfg(n, g) for n in (GEOMETRIC_THREAD_MIN_N, 10_001) for g in (0.3, 0.8, 0.99)),
            _cfg(10_001, 0.6, 0.4),
            _cfg(10_001, 0.6, 0.4, model=Equicorrelated(lam=0.3)),
        ],
        ids=lambda cfg: "-".join(map(str, [cfg.n, *cfg.model.to_dict().values()])),
    )
    def test_threads_change_no_value(self, cfg, monkeypatch):
        results = {}
        for cpus in (1, 2):
            monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
            results[cpus] = exact_error(cfg), [pmf.mass.tobytes() for pmf in class_pmfs(cfg)]
        assert results[1] == results[2]

    def test_large_geometric_pair_runs_on_worker_threads(self, monkeypatch):
        monkeypatch.setattr("votephase.model._cpus", lambda: 2)
        threads = []

        def traced(*args):
            threads.append(threading.get_ident())
            return exact_vote_pmf(*args)

        monkeypatch.setattr(oracle, "exact_vote_pmf", traced)
        class_pmfs(_geometric_cfg(GEOMETRIC_THREAD_MIN_N, 0.8))
        assert len(threads) == 2 and threading.get_ident() not in threads

    @pytest.mark.parametrize(
        "cpus, cfg",
        [
            (1, _geometric_cfg(GEOMETRIC_THREAD_MIN_N, 0.8)),
            (2, _geometric_cfg(GEOMETRIC_THREAD_MIN_N - 1, 0.8)),
            (2, _cfg(10_001, 0.6, 0.4)),
            (2, _cfg(10_001, 0.6, 0.4, model=Equicorrelated(lam=0.3))),
        ],
        ids=["one-cpu", "below-threshold", "independent", "equicorrelated"],
    )
    def test_no_thread_starts(self, cpus, cfg, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a thread was started")

        monkeypatch.setattr("votephase.model._cpus", lambda: cpus)
        monkeypatch.setattr(threading, "Thread", refuse)
        exact_error(cfg)
        # the patch does catch the threaded path
        monkeypatch.setattr("votephase.model._cpus", lambda: 2)
        with pytest.raises(AssertionError, match="a thread was started"):
            class_pmfs(_geometric_cfg(GEOMETRIC_THREAD_MIN_N, 0.8))

    def test_size_guard_error_reaches_caller(self, monkeypatch):
        monkeypatch.setattr("votephase.model._cpus", lambda: 2)
        before = threading.active_count()
        n = GEOMETRIC_SIZE_GUARD + 1
        with pytest.raises(SizeGuardExceeded) as caught:
            exact_error(_geometric_cfg(n, 0.8))
        assert str(caught.value) == f"geometric pmf n={n} exceeds guard {GEOMETRIC_SIZE_GUARD}"
        assert threading.active_count() == before

    @pytest.mark.parametrize("failing", [0.6, 0.4], ids=["p", "q"])
    def test_pmf_error_reaches_caller_and_no_thread_outlives_it(self, failing, monkeypatch):
        monkeypatch.setattr("votephase.model._cpus", lambda: 2)
        error = SizeGuardExceeded("pmf failed")

        def pmf(model, n, rate):
            if rate == failing:
                raise error
            return exact_vote_pmf(model, n, rate)

        monkeypatch.setattr(oracle, "exact_vote_pmf", pmf)
        before = threading.active_count()
        with pytest.raises(SizeGuardExceeded) as caught:
            exact_error(_geometric_cfg(GEOMETRIC_THREAD_MIN_N, 0.8))
        assert caught.value is error
        assert threading.active_count() == before


# (model, n, p, q, pi): float rates up to n = 60, and n = 200 at dyadic
# parameters, whose transitions are exact doubles as well.
_RATIONAL_CASES = [
    pytest.param(model, n, p, q, pi, id=f"{model.kind}-n{n}-p{p}")
    for model, n, p, q, pi in [
        *(
            (model, n, p, q, pi)
            for model in (Independent(), Geometric(gamma=0.7), Equicorrelated(lam=0.4))
            for n in (1, 2, 3, 7, 20, 60)
            for p, q, pi in ((0.65, 0.3, 0.4), (0.99, 0.01, 0.5))
        ),
        *(
            (model, 200, 0.625, 0.375, 0.5)
            for model in (Independent(), Geometric(gamma=0.75), Equicorrelated(lam=0.75))
        ),
    ]
]


class TestExactRationalReference:
    """The oracle and brute force against exact-rational pmfs."""

    @pytest.mark.parametrize("model, n, p, q, pi", _RATIONAL_CASES)
    def test_masses(self, model, n, p, q, pi):
        for rate in (p, q):
            exact = np.array([float(m) for m in exact_pmf(model, n, rate)])
            big = exact >= 1e-300
            np.testing.assert_allclose(
                exact_vote_pmf(model, n, rate).mass[big], exact[big], rtol=1e-13, atol=0
            )

    @pytest.mark.parametrize("model, n, p, q, pi", _RATIONAL_CASES)
    def test_errors(self, model, n, p, q, pi):
        cfg = _cfg(n, p, q, pi=pi, model=model)
        exact = float(exact_error_fraction(cfg))
        assert abs(exact_error(cfg) - exact) <= 1e-15
        if n <= BRUTE_FORCE_SIZE_GUARD:
            assert abs(brute_force_error(cfg) - exact) <= 1e-15


class TestBruteForce:
    def test_matches_exact_error_all_models(self):
        for model in (Independent(), Geometric(gamma=0.7), Equicorrelated(lam=0.4)):
            for n in (1, 2, 3, 6, BRUTE_FORCE_SIZE_GUARD):
                cfg = _cfg(n, 0.65, 0.3, pi=0.4, model=model)
                assert brute_force_error(cfg) == pytest.approx(
                    exact_error(cfg), abs=1e-12
                )

    def test_pinned_geometric_value(self):
        cfg = _cfg(18, 0.6, 0.4, pi=0.3, model=Geometric(gamma=0.8))
        assert brute_force_error(cfg) == 0.355608035385387

    @pytest.mark.parametrize(
        "model, value",
        [(Independent(), 0.17324755315484267), (Equicorrelated(lam=0.4), 0.2639485318929056)],
        ids=["independent", "equicorrelated"],
    )
    def test_pinned_value(self, model, value):
        cfg = _cfg(18, 0.6, 0.4, pi=0.3, model=model)
        assert brute_force_error(cfg) == value

    def test_size_guard(self):
        with pytest.raises(SizeGuardExceeded):
            brute_force_error(_cfg(BRUTE_FORCE_SIZE_GUARD + 1, 0.6, 0.4))
