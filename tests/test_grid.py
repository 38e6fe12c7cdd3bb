import contextlib
import hashlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votephase.analytic import Phase, estimated_error_asymptotic
from votephase.cli import main
from votephase.grid import point, sweep
from votephase.model import (
    ASYMPTOTIC,
    Equicorrelated,
    Geometric,
    GridSpec,
    Independent,
    Prior,
    RatePair,
)
from reference import delta_asymptotic, max_improvement

rates = st.floats(min_value=0.01, max_value=0.99)
models = st.one_of(
    st.just(Independent()),
    st.builds(Geometric, st.floats(min_value=0.01, max_value=0.99)),
    st.builds(Equicorrelated, st.floats(min_value=0.01, max_value=0.99)),
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


class TestPoint:
    @given(p=st.one_of(st.just(0.5), rates), q=st.one_of(st.just(0.5), rates), pi=rates, model=models)
    @settings(max_examples=300)
    def test_asymptotic_row_is_the_asymptotic_estimate(self, p, q, pi, model):
        r, prior = RatePair(p=p, q=q), Prior(pi=pi)
        row = point(r, prior, model, ASYMPTOTIC)
        assert row.err_hat == estimated_error_asymptotic(r, prior, model)
        assert row.delta_inf == delta_asymptotic(r, prior, model)
        assert (row.p, row.q) == (p, q)


# sha256 of phase-grid stdout on a 49 x 49 grid that contains 0.5 on
# both axes, generated from the source before grid rows and the
# analytic subcommand shared ``point``.
_GRID_AXES = [
    "--p-min", "0.02", "--p-max", "0.98", "--q-min", "0.02", "--q-max", "0.98",
    "--step", "0.02", "--pi", "0.4",
]
_GRID_MODELS = {
    "independent": [],
    "geometric": ["--model", "geometric", "--gamma", "0.6"],
    "equicorrelated": ["--model", "equicorrelated", "--lambda", "0.3"],
}
_GRID_DIGESTS = {
    ("independent", "101", "csv"): "2926d8a4bde6869f58fa8f1b1c2f0d2c575f03c549a2866d57b5a217bc379f8c",
    ("independent", "101", "json"): "9f195cfdf696d213237c343b9f44d766cc59487f1ac6eb748bc8cc4127f30547",
    ("independent", "asymptotic", "csv"): "335416b41bf05926d46bbf1b6c7d83ba5328a085cb5b2acb6517cb79480cf862",
    ("independent", "asymptotic", "json"): "35b85811213119e29a3e4903c951ad6c880aad39e12f154e65af1f84d37c68ae",
    ("geometric", "101", "csv"): "0afbd7b220e20b7c6b7aa82ca9d9eec226751f5c743b5cfeb52dd92c48dfc0aa",
    ("geometric", "101", "json"): "498d7be481da28277cb8401be98eabda5dbc9c95c28238a14bd9479a53551752",
    ("geometric", "asymptotic", "csv"): "335416b41bf05926d46bbf1b6c7d83ba5328a085cb5b2acb6517cb79480cf862",
    ("geometric", "asymptotic", "json"): "2ca7d8bbed9eccfafa81c0875603821bd62fefe68dabb2923ba70414ad5cfbef",
    ("equicorrelated", "101", "csv"): "452d63c261fb7699f8f800059a4b765ae8f6127d7c9b0ce3f505ae2a03b6367b",
    ("equicorrelated", "101", "json"): "e60c8e1d0ec46842ac39e66dbab7e98ef04a842d6ec4f68e133171215e798cd3",
    ("equicorrelated", "asymptotic", "csv"): "4b202c17458c58c1fa8fe5bab0f37c7f145044c5693e4cb34e89800c76540a74",
    ("equicorrelated", "asymptotic", "json"): "460253e885f5c0e9ccbb68034fa9d5364fd440591afa7f3961ba170b5a2c2395",
}


@pytest.mark.parametrize("key", sorted(_GRID_DIGESTS), ids="-".join)
def test_phase_grid_output_is_pinned(key):
    model, n, fmt = key
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["phase-grid", *_GRID_AXES, *_GRID_MODELS[model], "--n", n, "--format", fmt]) == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == _GRID_DIGESTS[key]
