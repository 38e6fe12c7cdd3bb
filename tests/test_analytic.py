import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from votephase.analytic import (
    Phase,
    Side,
    delta,
    estimated_error,
    estimated_error_asymptotic,
    limiting_delta,
    limiting_error,
    mean_individual_error,
    phase_of,
    side_of,
    std_normal_cdf,
    sum_variance,
)
from votephase.grid import point
from votephase.model import (
    BadParameter,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    Prior,
    RatePair,
)
from reference import (
    asymptotic_sigma_sq,
    delta_asymptotic,
    geometric_variance_factor,
    geometric_variance_factor_direct,
    uses_abusive_variance,
)

rates = st.floats(min_value=0.01, max_value=0.99)
params = st.floats(min_value=0.01, max_value=0.99)


def _cfg(n, p, q, pi=0.5, model=None):
    return EnsembleConfig(
        n=n,
        rates=RatePair(p=p, q=q),
        prior=Prior(pi=pi),
        model=model or Independent(),
    )


class TestStdNormalCdf:
    # reference values computed independently at 50-digit precision
    FROZEN = [
        (0.0, 0.5),
        (1.0, 0.84134474606854294859),
        (-1.0, 0.15865525393145705141),
        (2.5, 0.99379033467422386483),
        (-8.0, 6.2209605742717841235e-16),
    ]

    @pytest.mark.parametrize("x,expected", FROZEN)
    def test_frozen_values(self, x, expected):
        assert std_normal_cdf(x) == pytest.approx(expected, rel=1e-13)

    def test_saturation(self):
        assert std_normal_cdf(41.0) == 1.0
        assert std_normal_cdf(-41.0) == 0.0
        assert std_normal_cdf(1e308) == 1.0
        assert std_normal_cdf(40.000001) == 1.0
        assert std_normal_cdf(-40.000001) == 0.0
        assert std_normal_cdf(math.inf) == 1.0
        assert std_normal_cdf(-math.inf) == 0.0

    def test_nan_rejected(self):
        with pytest.raises(BadParameter):
            std_normal_cdf(float("nan"))

    @given(x=st.floats(min_value=-39.0, max_value=39.0))
    @settings(max_examples=300)
    def test_symmetry(self, x):
        assert std_normal_cdf(x) + std_normal_cdf(-x) == pytest.approx(1.0, abs=1e-15)

    @given(
        x=st.floats(min_value=-10.0, max_value=10.0),
        step=st.floats(min_value=1e-3, max_value=5.0),
    )
    @settings(max_examples=200)
    def test_monotone(self, x, step):
        assert std_normal_cdf(x + step) >= std_normal_cdf(x)


class TestMeanIndividualError:
    def test_examples(self):
        assert mean_individual_error(RatePair(p=0.6, q=0.4), Prior(pi=0.5)) == 0.4
        assert mean_individual_error(RatePair(p=0.9, q=0.2), Prior(pi=0.25)) == pytest.approx(
            0.1 * 0.25 + 0.2 * 0.75
        )

    @given(p=rates, q=rates, pi=rates)
    @settings(max_examples=200)
    def test_bounds_and_formula(self, p, q, pi):
        err = mean_individual_error(RatePair(p=p, q=q), Prior(pi=pi))
        assert 0.0 < err < 1.0
        assert err == (1.0 - p) * pi + q * (1.0 - pi)


class TestGeometricVarianceFactor:
    def test_frozen_value(self):
        # 1 + 2*(g/(1-g))*(1 - (1-g^n)/(n(1-g))) at g=0.8, n=100
        assert geometric_variance_factor(0.8, 100) == pytest.approx(
            8.600000000081481, rel=1e-12
        )

    def test_n_one_is_unity(self):
        assert geometric_variance_factor(0.5, 1) == 1.0

    def test_small_gamma_is_nearly_independent(self):
        assert geometric_variance_factor(1e-12, 50) == pytest.approx(1.0, abs=1e-10)

    @given(gamma=params, n=st.integers(min_value=1, max_value=400))
    @settings(max_examples=200)
    def test_closed_form_matches_direct_sum(self, gamma, n):
        closed = geometric_variance_factor(gamma, n)
        direct = geometric_variance_factor_direct(gamma, n)
        assert closed == pytest.approx(direct, rel=1e-12)

    @given(gamma=params, n=st.integers(min_value=2, max_value=1000))
    @settings(max_examples=200)
    def test_bounded_by_asymptote(self, gamma, n):
        factor = geometric_variance_factor(gamma, n)
        assert 1.0 < factor < (1.0 + gamma) / (1.0 - gamma)


class TestSumVariance:
    def test_independent(self):
        assert sum_variance(Independent(), 10, 0.5) == 2.5

    def test_geometric(self):
        expected = 100 * 0.24 * geometric_variance_factor(0.8, 100)
        assert sum_variance(Geometric(gamma=0.8), 100, 0.6) == pytest.approx(
            expected, rel=1e-15
        )

    def test_equicorrelated_quadratic_term(self):
        got = sum_variance(Equicorrelated(lam=0.3), 10, 0.5)
        assert got == pytest.approx(100 * 0.3 * 0.25 + 10 * 0.7 * 0.25, rel=1e-15)

    @given(n=st.integers(min_value=1, max_value=500), r=rates, lam=params)
    @settings(max_examples=100)
    def test_equicorrelated_dominates_independent(self, n, r, lam):
        # equality at n = 1, strict dominance beyond; 1 ulp slack
        equi = sum_variance(Equicorrelated(lam=lam), n, r)
        indep = sum_variance(Independent(), n, r)
        assert equi >= indep * (1.0 - 1e-15)


class TestAsymptoticSigmaSq:
    def test_per_model(self):
        assert asymptotic_sigma_sq(Independent(), 0.5) == 0.25
        geo = asymptotic_sigma_sq(Geometric(gamma=0.5), 0.5)
        assert geo == pytest.approx(0.25 * 3.0, rel=1e-15)
        assert asymptotic_sigma_sq(Equicorrelated(lam=0.1), 0.5) == math.inf

    def test_uses_abusive_variance(self):
        assert uses_abusive_variance(Equicorrelated(lam=0.5))
        assert not uses_abusive_variance(Independent())
        assert not uses_abusive_variance(Geometric(gamma=0.5))


class TestEstimatedError:
    def test_frozen_independent_n1000(self):
        # Phi(-100/sqrt(240)) at both class tails; 50-digit reference
        got = estimated_error(_cfg(1000, 0.6, 0.4))
        assert got == pytest.approx(5.4119369546745314472e-11, rel=1e-12)

    def test_deep_tail_n2001(self):
        got = estimated_error(_cfg(2001, 0.6, 0.4))
        assert 0.0 < got < 1e-15

    def test_tie_free_symmetric_instance(self):
        # p + q = 1 at pi = 1/2 makes both tails equal
        cfg = _cfg(25, 0.7, 0.3)
        miss = std_normal_cdf((25 / 2.0 - 25 * 0.7) / math.sqrt(25 * 0.7 * 0.3))
        assert estimated_error(cfg) == pytest.approx(miss, rel=1e-15)

    @given(n=st.integers(min_value=1, max_value=2000), p=rates, q=rates, pi=rates)
    @settings(max_examples=200)
    def test_in_unit_interval(self, n, p, q, pi):
        assert 0.0 <= estimated_error(_cfg(n, p, q, pi)) <= 1.0

    @given(p=rates, q=rates, pi=rates, lam=params, n=st.integers(min_value=1, max_value=300))
    @settings(max_examples=150)
    def test_equicorrelated_estimate_is_n_free_in_the_limit(self, p, q, pi, lam, n):
        # the quadratic variance term dominates: finite-n values approach
        # the n-free asymptotic plug-in from n = 1 upward
        model = Equicorrelated(lam=lam)
        finite = estimated_error(_cfg(n, p, q, pi, model=model))
        asym = estimated_error_asymptotic(RatePair(p=p, q=q), Prior(pi=pi), model)
        big = estimated_error(_cfg(10**7, p, q, pi, model=model))
        assert abs(big - asym) <= abs(finite - asym) + 1e-12


class TestDelta:
    def test_frozen_geometric_n100(self):
        got = delta(_cfg(100, 0.6, 0.4, model=Geometric(gamma=0.8)))
        assert got == pytest.approx(-0.15680360772169990022, rel=1e-12)

    def test_sign_flips_with_quality(self):
        assert delta(_cfg(1001, 0.6, 0.4)) < 0
        assert delta(_cfg(1001, 0.45, 0.55)) > 0

    def test_delta_asymptotic_matches_limit_for_finite_sigma(self):
        r, pr = RatePair(p=0.6, q=0.4), Prior(pi=0.5)
        assert delta_asymptotic(r, pr, Independent()) == limiting_delta(r, pr).delta_inf
        assert delta_asymptotic(r, pr, Geometric(gamma=0.9)) == limiting_delta(r, pr).delta_inf

    def test_frozen_equicorrelated_asymptotic(self):
        got = estimated_error_asymptotic(
            RatePair(p=0.9, q=0.1), Prior(pi=0.5), Equicorrelated(lam=0.7)
        )
        assert got == pytest.approx(0.055508552756093087247, rel=1e-12)

    def test_golden_region_failure_under_equicorrelation(self):
        r, pr = RatePair(p=0.6, q=0.4), Prior(pi=0.5)
        assert limiting_delta(r, pr).delta_inf == -0.4
        assert delta_asymptotic(r, pr, Equicorrelated(lam=0.7)) > 0.0


class TestEquicorrelatedUnderflow:
    # lam r (1 - r) underflows to 0 at these points, where the plug-in
    # value is the limit itself
    @pytest.mark.parametrize(
        "p,q,lam",
        [
            (0.6, 0.4, 5e-324),
            (1e-300, 0.4, 1e-30),
            *((p, q, 5e-324) for p in (0.01, 0.5, 0.99) for q in (0.01, 0.5, 0.99)),
        ],
    )
    def test_plug_in_value_is_the_limit(self, p, q, lam):
        r, pr = RatePair(p=p, q=q), Prior(pi=0.5)
        assert estimated_error_asymptotic(r, pr, Equicorrelated(lam=lam)) == limiting_error(r, pr)


# Values out to both ends of the open interval, where a class variance
# can round to 0; 0.5 is where lam r (1 - r) and (1 - lam) r (1 - r)
# round to 0 together at r = 5e-324.
edge_values = st.one_of(
    st.sampled_from([5e-324, 1e-300, 0.5, 1 - 2**-53]),
    st.floats(min_value=5e-324, max_value=1 - 2**-53),
)


class TestEveryRowIsFinite:
    @given(
        n=st.sampled_from([1, 2, 3, 101]),
        p=edge_values,
        q=edge_values,
        pi=st.one_of(st.just(0.5), rates),
        param=edge_values,
    )
    @example(n=1, p=5e-324, q=0.4, pi=0.5, param=0.5)
    @settings(max_examples=300)
    def test_err_hat_and_delta_n(self, n, p, q, pi, param):
        for model in (Independent(), Geometric(gamma=param), Equicorrelated(lam=param)):
            row = point(RatePair(p=p, q=q), Prior(pi=pi), model, n)
            assert 0.0 <= row.err_hat <= 1.0, (model, row)
            assert math.isfinite(row.delta_n), (model, row)


class TestLimitingError:
    # nine representative points, one per region
    POINTS = [(0.25, 0.25), (0.5, 0.25), (0.75, 0.25),
              (0.25, 0.5), (0.5, 0.5), (0.75, 0.5),
              (0.25, 0.75), (0.5, 0.75), (0.75, 0.75)]

    def test_table_at_pi_030(self):
        pi = 0.3
        expected = {
            (0.25, 0.75): 1.0, (0.5, 0.75): 1.0 - pi / 2.0, (0.75, 0.75): 1.0 - pi,
            (0.25, 0.5): (1.0 + pi) / 2.0, (0.5, 0.5): 0.5, (0.75, 0.5): (1.0 - pi) / 2.0,
            (0.25, 0.25): pi, (0.5, 0.25): pi / 2.0, (0.75, 0.25): 0.0,
        }
        for (p, q), want in expected.items():
            assert limiting_error(RatePair(p=p, q=q), Prior(pi=pi)) == want

    @given(p=rates, q=rates, pi=rates)
    @settings(max_examples=300)
    def test_depends_only_on_sides(self, p, q, pi):
        value = limiting_error(RatePair(p=p, q=q), Prior(pi=pi))
        rep = {Side.BELOW: 0.25, Side.ON: 0.5, Side.ABOVE: 0.75}
        twin = limiting_error(
            RatePair(p=rep[side_of(p)], q=rep[side_of(q)]), Prior(pi=pi)
        )
        assert value == twin
        assert 0.0 <= value <= 1.0


class TestPhaseMachinery:
    def test_side_of(self):
        assert side_of(0.49) is Side.BELOW
        assert side_of(0.5) is Side.ON
        assert side_of(0.51) is Side.ABOVE

    def test_phase_of(self):
        assert phase_of(-0.1) is Phase.BENEFICIAL
        assert phase_of(0.1) is Phase.HARMFUL
        assert phase_of(0.0) is Phase.NEUTRAL
        with pytest.raises(BadParameter):
            phase_of(float("nan"))

    def test_limiting_delta_verdict_fields(self):
        v = limiting_delta(RatePair(p=0.75, q=0.25), Prior(pi=0.5))
        assert v.delta_inf == -0.25
        assert v.phase is Phase.BENEFICIAL
        assert v.p_side is Side.ABOVE and v.q_side is Side.BELOW
        assert v.region == "p>1/2, q<1/2"

    def test_jump_in_p_direction_is_half_pi(self):
        # offset discontinuity, measured after removing the continuous
        # part A = pi*p - (1-pi)*q; dyadic probes keep floats exact
        pi, q = 0.75, 0.25
        def off(p):
            d = limiting_delta(RatePair(p=p, q=q), Prior(pi=pi)).delta_inf
            return d - (pi * p - (1 - pi) * q)
        assert off(0.5) - off(0.25) == -pi / 2
        assert off(0.75) - off(0.5) == -pi / 2

    def test_jump_in_q_direction_is_half_one_minus_pi(self):
        pi, p = 0.75, 0.25
        def off(q):
            d = limiting_delta(RatePair(p=p, q=q), Prior(pi=pi)).delta_inf
            return d - (pi * p - (1 - pi) * q)
        assert off(0.5) - off(0.25) == (1 - pi) / 2
        assert off(0.75) - off(0.5) == (1 - pi) / 2

    def test_neutral_center(self):
        assert limiting_delta(RatePair(p=0.5, q=0.5), Prior(pi=0.5)).phase is Phase.NEUTRAL
