import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votephase.analytic import Phase
from votephase.grid import max_improvement, sweep
from votephase.model import (
    ASYMPTOTIC,
    Equicorrelated,
    Geometric,
    GridSpec,
    Prior,
)


def _spec(**kw):
    base = dict(
        p_min=0.25,
        p_max=0.75,
        q_min=0.25,
        q_max=0.75,
        resolution=3,
        n=ASYMPTOTIC,
        prior=Prior(pi=0.5),
    )
    base.update(kw)
    return GridSpec(**base)


class TestSweep:
    def test_row_major_ordering(self):
        spec = _spec(p_min=0.4, p_max=0.6, q_min=0.4, q_max=0.6, resolution=2, n=7)
        coords = [(r.p, r.q) for r in sweep(spec)]
        assert coords == [(0.4, 0.4), (0.4, 0.6), (0.6, 0.4), (0.6, 0.6)]

    def test_nine_cell_delta_inf_at_half(self):
        # pi = 1/2 limiting gaps over {0.25, 0.5, 0.75}^2; dyadic points
        # make the closed forms exact in floating point
        rows = {(r.p, r.q): r.delta_inf for r in sweep(_spec(n=1000))}
        assert rows[(0.75, 0.25)] == -0.25
        assert rows[(0.25, 0.75)] == 0.25
        assert rows[(0.5, 0.5)] == 0.0
        assert rows[(0.25, 0.25)] == 0.0
        assert rows[(0.75, 0.75)] == 0.0
        assert rows[(0.5, 0.25)] == -0.125
        assert rows[(0.25, 0.5)] == 0.125
        assert rows[(0.75, 0.5)] == -0.125
        assert rows[(0.5, 0.75)] == 0.125

    def test_delta_n_identity_and_phase_sign(self):
        for row in sweep(_spec(n=40, model=Geometric(gamma=0.3))):
            assert row.delta_n == row.err_hat - row.err
            if row.delta_inf < 0:
                assert row.phase is Phase.BENEFICIAL
            elif row.delta_inf > 0:
                assert row.phase is Phase.HARMFUL
            else:
                assert row.phase is Phase.NEUTRAL

    def test_asymptotic_rows_collapse_delta_n_to_delta_inf(self):
        for row in sweep(_spec()):
            assert row.delta_n == row.delta_inf

    def test_abusive_flag_tracks_model(self):
        assert all(not r.abusive for r in sweep(_spec()))
        assert all(r.abusive for r in sweep(_spec(model=Equicorrelated(lam=0.5))))

    def test_symmetry_at_half_prior(self):
        # delta_inf(p, q) = delta_inf(1-q, 1-p) at pi = 1/2
        spec = GridSpec(
            p_min=0.1,
            p_max=0.9,
            q_min=0.1,
            q_max=0.9,
            resolution=9,
            n=ASYMPTOTIC,
            prior=Prior(pi=0.5),
        )
        table = {(round(r.p, 10), round(r.q, 10)): r.delta_inf for r in sweep(spec)}
        for (p, q), value in table.items():
            mirrored = table[(round(1 - q, 10), round(1 - p, 10))]
            assert value == pytest.approx(mirrored, abs=1e-15)

    def test_golden_region_failure_under_high_lambda(self):
        spec = _spec(
            p_min=0.6, p_max=0.6, q_min=0.4, q_max=0.4, resolution=1,
            model=Equicorrelated(lam=0.7),
        )
        (row,) = sweep(spec)
        assert row.p >= 0.5 >= row.q
        assert row.delta_inf > 0
        assert row.phase is Phase.HARMFUL

    def test_finite_geometric_err_hat_uses_inflated_variance(self):
        plain = {(r.p, r.q): r.err_hat for r in sweep(_spec(n=100))}
        geo = {
            (r.p, r.q): r.err_hat
            for r in sweep(_spec(n=100, model=Geometric(gamma=0.8)))
        }
        # inflated variance pulls the estimate toward 1/2 at (0.75, 0.25)
        assert geo[(0.75, 0.25)] > plain[(0.75, 0.25)]

    @given(
        res=st.integers(min_value=1, max_value=6),
        n=st.one_of(st.just(ASYMPTOTIC), st.integers(min_value=1, max_value=200)),
    )
    @settings(max_examples=40, deadline=None)
    def test_row_count_matches_resolution(self, res, n):
        if res == 1:
            spec = _spec(p_min=0.3, p_max=0.3, q_min=0.6, q_max=0.6, resolution=1, n=n)
        else:
            spec = _spec(resolution=res, n=n)
        assert len(sweep(spec)) == res * res


class TestMaxImprovement:
    def test_degenerate_center_grid(self):
        spec = _spec(p_min=0.5, p_max=0.5, q_min=0.5, q_max=0.5, resolution=1, n=100)
        result = max_improvement(spec)
        assert result.value == 0.0
        assert result.at == (0.5, 0.5)

    def test_finds_the_beneficial_corner(self):
        result = max_improvement(_spec(n=1000))
        assert result.at == (0.75, 0.25)
        assert result.value == pytest.approx(0.25, abs=1e-6)

    def test_value_is_max_of_negated_delta(self):
        spec = _spec(n=50)
        rows = sweep(spec)
        assert max_improvement(spec).value == max(-r.delta_n for r in rows)
