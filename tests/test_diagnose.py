import importlib
import io
import json
import math
import tempfile
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from votephase.analytic import Phase, Side, limiting_delta
from votephase.cli import main
from votephase.diagnose import (
    CLASSIFIERS_GUARD,
    NonBinaryEntry,
    PredictionMatrix,
    SingleClassData,
    _parse_csv,
    diagnose,
    format_report,
    read_prediction_csv,
)
from votephase.model import (
    BadParameter,
    BadSize,
    EnsembleConfig,
    Equicorrelated,
    Geometric,
    Independent,
    Prior,
    RatePair,
    SizeGuardExceeded,
)
from votephase.oracle import exact_error
from votephase.sampler import RngSeed, make_rng

from reference import (
    decimal_sqrt,
    exact_correlation,
    parse_outcome as _outcome,
    sample_labeled_votes,
    within_ulps,
)


def _synthetic(p, q, pi=0.5, n_samples=10_000, m=25, model=None, seed=1):
    cfg = EnsembleConfig(
        n=m, rates=RatePair(p=p, q=q), prior=Prior(pi=pi), model=model or Independent()
    )
    labels, votes = sample_labeled_votes(cfg, n_samples, make_rng(RngSeed(seed=seed)))
    return PredictionMatrix(labels=labels, votes=votes)


class TestPredictionMatrix:
    def test_valid(self):
        m = PredictionMatrix(labels=[0, 1, 1], votes=[[1, 0], [0, 1], [1, 1]])
        assert m.n_samples == 3 and m.n_classifiers == 2
        assert m.votes.dtype == np.uint8

    def test_single_class_rejected(self):
        with pytest.raises(SingleClassData):
            PredictionMatrix(labels=[1, 1, 1], votes=[[1], [0], [1]])

    def test_non_binary_rejected(self):
        with pytest.raises(NonBinaryEntry):
            PredictionMatrix(labels=[0, 2], votes=[[1], [0]])
        with pytest.raises(NonBinaryEntry):
            PredictionMatrix(labels=[0, 1], votes=[[1], [5]])
        # values are compared whatever the dtype: "0"/"1" text is not
        # binary, while 0/1 held as bool, float or object is
        for bad in (
            np.array(["1", "0"]),
            np.array([1, "0"], dtype=object),
            [1.0, 0.5],
            [1.0, np.nan],
            [1, 2],
        ):
            with pytest.raises(NonBinaryEntry, match="labels"):
                PredictionMatrix(labels=bad, votes=[[1], [0]])
            with pytest.raises(NonBinaryEntry, match="votes"):
                PredictionMatrix(labels=[0, 1], votes=np.asarray(bad)[:, None])
        for good in (np.array([True, False]), np.array([1, 0], dtype=object), [1.0, 0.0]):
            matrix = PredictionMatrix(labels=good, votes=np.asarray(good)[:, None])
            assert matrix.labels.tolist() == [1, 0] and matrix.votes.tolist() == [[1], [0]]

    def test_too_small_rejected(self):
        with pytest.raises(BadSize):
            PredictionMatrix(labels=[1], votes=[[1]])

    def test_no_classifier_column_rejected(self):
        with pytest.raises(BadSize, match="need at least 1 classifier column"):
            PredictionMatrix(labels=[0, 1], votes=np.zeros((2, 0)))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(BadParameter):
            PredictionMatrix(labels=[0, 1], votes=[[1], [0], [1]])

    def test_immutable(self):
        m = PredictionMatrix(labels=[0, 1], votes=[[1], [0]])
        with pytest.raises(ValueError):
            m.votes[0, 0] = 0


class TestDiagnose:
    def test_recovers_generator_rates(self):
        matrix = _synthetic(0.7, 0.3)
        report = diagnose(matrix)
        n1 = int(matrix.labels.sum())
        se_p = math.sqrt(0.7 * 0.3 / (n1 * 25))
        assert report.p_hat == pytest.approx(0.7, abs=4 * se_p)
        assert report.q_hat == pytest.approx(0.3, abs=0.01)
        assert report.verdict.phase is Phase.BENEFICIAL
        assert report.pi_source == "estimated"
        assert report.pi_used == pytest.approx(0.5, abs=0.02)

    def test_harmful_when_tpr_below_half(self):
        # p < 1/2 drives the class-1 limit to certain error, so voting
        # loses to a single classifier whenever p > q.
        report = diagnose(_synthetic(0.45, 0.3, n_samples=20_000))
        assert report.p_hat < 0.5 and report.q_hat < 0.5
        assert report.verdict.phase is Phase.HARMFUL
        assert report.verdict.delta_inf > 0

    def test_perfect_classifiers_clamped_with_warning(self):
        labels = np.array([0, 1] * 50)
        votes = np.tile(labels[:, None], (1, 5))
        report = diagnose(PredictionMatrix(labels=labels, votes=votes))
        assert report.p_hat == 1.0 and report.q_hat == 0.0
        assert any("boundary" in w for w in report.warnings)
        assert report.verdict.phase is Phase.BENEFICIAL
        assert report.err_majority == 0.0

    def test_prior_override(self):
        matrix = _synthetic(0.7, 0.3, pi=0.5)
        report = diagnose(matrix, prior_override=Prior(pi=0.2))
        assert report.pi_used == 0.2 and report.pi_source == "override"
        expected = (1 - report.p_hat) * 0.2 + report.q_hat * 0.8
        assert report.err_hat_individual == expected

    def test_err_hat_individual_identity(self):
        report = diagnose(_synthetic(0.6, 0.45, seed=9))
        pi = report.pi_used
        assert report.err_hat_individual == (1 - report.p_hat) * pi + report.q_hat * (1 - pi)

    def test_majority_error_matches_oracle_on_independent_data(self):
        p, q, m, N = 0.7, 0.3, 25, 10_000
        matrix = _synthetic(p, q, m=m, n_samples=N, seed=17)
        report = diagnose(matrix)
        cfg = EnsembleConfig(n=m, rates=RatePair(p=p, q=q), prior=Prior(pi=0.5))
        err = exact_error(cfg)
        assert report.err_majority == pytest.approx(
            err, abs=4 * math.sqrt(err * (1 - err) / N)
        )

    def test_correlation_recovery_equicorrelated(self):
        matrix = _synthetic(0.7, 0.3, model=Equicorrelated(lam=0.3), n_samples=20_000, seed=23)
        report = diagnose(matrix)
        assert report.corr_class1 == pytest.approx(0.3, abs=0.02)
        assert report.corr_class0 == pytest.approx(0.3, abs=0.02)

    def test_high_correlation_warning(self):
        matrix = _synthetic(0.7, 0.3, model=Equicorrelated(lam=0.65), n_samples=20_000, seed=29)
        report = diagnose(matrix)
        assert any("weak dependence" in w for w in report.warnings)

    def test_near_boundary_rate_warns_indeterminate(self):
        matrix = _synthetic(0.502, 0.3, n_samples=800, m=4, seed=31)
        report = diagnose(matrix)
        assert any("indeterminate" in w for w in report.warnings)

    def test_ordered_unlocks_lag_means(self):
        matrix = _synthetic(0.6, 0.4, model=Geometric(gamma=0.6), n_samples=20_000, seed=37)
        plain = diagnose(matrix)
        ordered = diagnose(matrix, assume_ordered=True)
        assert plain.lag_means_class1 is None
        assert ordered.lag_means_class1 is not None
        assert ordered.lag_means_class1[0] == pytest.approx(0.6, abs=0.03)
        assert ordered.lag_means_class1[2] == pytest.approx(0.216, abs=0.03)

    def test_constant_classifier_excluded_from_correlation(self):
        labels = np.array([0, 1, 0, 1, 0, 1, 0, 1])
        votes = np.array(
            [
                [1, 0, 1],
                [1, 1, 0],
                [1, 1, 0],
                [1, 0, 1],
                [1, 0, 0],
                [1, 1, 1],
                [1, 1, 1],
                [1, 0, 0],
            ]
        )
        report = diagnose(PredictionMatrix(labels=labels, votes=votes))
        assert any("constantly" in w for w in report.warnings)
        assert report.warnings[:2] == [
            f"class {cls}: classifiers [0] vote constantly within the class; "
            "their pairs are excluded from correlation averages"
            for cls in (1, 0)
        ]

    def test_verdict_matches_limiting_delta_at_estimates(self):
        report = diagnose(_synthetic(0.8, 0.2, seed=41))
        twin = limiting_delta(
            RatePair(p=report.p_hat, q=report.q_hat), Prior(pi=report.pi_used)
        )
        assert report.verdict == twin


class TestExactCounts:
    def test_pooled_rate_of_exactly_half_is_on_the_boundary(self):
        # 336 ones in 56 x 12 class-1 votes: the mean of the 12 member
        # rates rounds to 0.5000000000000001, the count ratio is 1/2.
        counts = np.array([25, 26, 29, 22, 35, 31, 24, 20, 34, 31, 31, 28])
        class1 = (np.arange(56)[:, None] - 5 * np.arange(12)) % 56 < counts
        class0 = np.arange(40)[:, None] % 4 == np.arange(12) % 4
        labels = np.r_[np.ones(56, dtype=int), np.zeros(40, dtype=int)]
        report = diagnose(PredictionMatrix(labels=labels, votes=np.r_[class1, class0]))
        assert report.p_hat == 0.5 and report.q_hat == 0.25
        assert report.verdict.p_side is Side.ON
        assert report.warnings == [
            "p_hat sits exactly on the 1/2 boundary; phase taken from the boundary row/column"
        ]

    @pytest.mark.parametrize("seed", range(6))
    def test_rates_se_and_correlations_match_exact_rationals(self, seed):
        rng = np.random.default_rng(seed)
        m = 5
        labels = np.r_[[0, 1], rng.integers(0, 2, size=int(rng.integers(8, 120)))]
        # a shared latent draw correlates the members
        latent = rng.random(labels.size)[:, None]
        mix = rng.random(m)
        votes = mix * latent + (1 - mix) * rng.random((labels.size, m)) < rng.random(m)
        matrix = PredictionMatrix(labels=labels, votes=votes)
        report = diagnose(matrix)
        for cls, rates, rate, se in (
            (1, report.p_hat_i, report.p_hat, report.p_std_error),
            (0, report.q_hat_i, report.q_hat, report.q_std_error),
        ):
            block = matrix.votes[matrix.labels == cls].astype(int).tolist()
            n = len(block)
            columns = [list(col) for col in zip(*block)]
            assert rates.tolist() == [float(Fraction(sum(col), n)) for col in columns]
            assert rate == float(Fraction(sum(map(sum, block)), n * m))
            row_means = [Fraction(sum(row), m) for row in block]
            mean = sum(row_means) / n
            variance = sum((x - mean) ** 2 for x in row_means) / (n - 1)
            assert within_ulps(se, decimal_sqrt(variance / n), 1)
        # A two-column matrix reports its one correlation as its lag-1 mean.
        for i in range(m):
            for j in range(i + 1, m):
                pair = PredictionMatrix(labels=labels, votes=votes[:, [i, j]])
                pair_report = diagnose(pair, assume_ordered=True)
                for cls, lag in (
                    (1, pair_report.lag_means_class1),
                    (0, pair_report.lag_means_class0),
                ):
                    block = pair.votes[pair.labels == cls].astype(int)
                    exact = exact_correlation(block[:, 0].tolist(), block[:, 1].tolist())
                    if exact is None:
                        assert math.isnan(lag[0])
                    else:
                        assert within_ulps(lag[0], exact, 4), (cls, i, j)


    def test_gram_slices_sum_to_the_whole(self, monkeypatch):
        matrix = _synthetic(0.6, 0.4, model=Geometric(gamma=0.5), n_samples=300, m=7, seed=43)
        whole = diagnose(matrix, assume_ordered=True).to_dict()
        module = importlib.import_module("votephase.diagnose")
        monkeypatch.setattr(module, "_GRAM_ROWS", 16)
        assert diagnose(matrix, assume_ordered=True).to_dict() == whole


class TestClassRowsGuard:
    @pytest.fixture
    def small_guard(self, monkeypatch):
        # The guard's own value would need a class of 2**31 rows.
        module = importlib.import_module("votephase.diagnose")
        monkeypatch.setattr(module, "CLASS_ROWS_GUARD", 3)

    def test_library_refuses_a_class_over_the_guard(self, small_guard):
        matrix = PredictionMatrix(labels=[1, 1, 1, 0, 0, 0, 0], votes=[[1]] * 7)
        with pytest.raises(SizeGuardExceeded, match="^diagnose class rows=4 exceeds guard 3$"):
            diagnose(matrix)
        assert diagnose(PredictionMatrix(labels=[1, 0, 0, 0], votes=[[1]] * 4)).q_hat == 1.0

    def test_cli_prints_one_error_line(self, small_guard, capsys, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("y,f1\n" + "1,1\n" * 4 + "0,0\n")
        assert main(["diagnose", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "votephase: error: diagnose class rows=4 exceeds guard 3\n"


class TestClassifiersGuard:
    @pytest.fixture
    def small_guard(self, monkeypatch):
        # A matrix accepted at the guard's own value would take about
        # 0.7 GiB, so both sides are tested at a small one.
        module = importlib.import_module("votephase.diagnose")
        monkeypatch.setattr(module, "CLASSIFIERS_GUARD", 3)

    def test_library_refuses_a_matrix_over_the_guard(self, small_guard):
        matrix = PredictionMatrix(labels=[1, 0], votes=[[1, 0, 1, 0]] * 2)
        with pytest.raises(SizeGuardExceeded, match="^diagnose classifiers=4 exceeds guard 3$"):
            diagnose(matrix)
        assert diagnose(PredictionMatrix(labels=[1, 0], votes=[[1, 0, 1]] * 2)).n_classifiers == 3

    def test_refuses_before_any_m_by_m_array(self):
        m = CLASSIFIERS_GUARD + 1
        matrix = PredictionMatrix(labels=[1, 0], votes=np.ones((2, m), dtype=np.uint8))
        tracemalloc.start()
        try:
            with pytest.raises(SizeGuardExceeded, match=f"^diagnose classifiers={m} exceeds"):
                diagnose(matrix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < m * m

    def test_cli_prints_one_error_line(self, small_guard, capsys, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("y,f1,f2,f3,f4\n1,1,0,1,0\n0,0,1,0,1\n")
        assert main(["diagnose", "--input", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "votephase: error: diagnose classifiers=4 exceeds guard 3\n"


class TestReportSerialization:
    def test_to_dict_is_json_ready(self):
        report = diagnose(_synthetic(0.7, 0.3, n_samples=500, m=5), assume_ordered=True)
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["n_classifiers"] == 5
        assert payload["verdict"]["phase"] == "beneficial"
        assert len(payload["p_hat_i"]) == 5
        assert "lag_means_class1" in payload

    def test_format_report_mentions_key_numbers(self):
        report = diagnose(_synthetic(0.7, 0.3, n_samples=500, m=5))
        text = format_report(report)
        assert "p_hat" in text and "verdict" in text
        assert "beneficial" in text


class TestReadPredictionCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_text("y,f1,f2\n1,1,0\n0,0,1\n1,1,1\n0,0,0\n")
        matrix = read_prediction_csv(str(path))
        assert matrix.n_samples == 4 and matrix.n_classifiers == 2
        np.testing.assert_array_equal(matrix.labels, [1, 0, 1, 0])

    def test_accepts_path_like(self, tmp_path):
        path = tmp_path / "preds.csv"
        for text in ("y,f1\n0,1\n1,0\n", "y, f1\r\n0, 1\r\n1, 0"):
            path.write_bytes(text.encode())
            matrix = read_prediction_csv(path)
            np.testing.assert_array_equal(matrix.labels, [0, 1])
            np.testing.assert_array_equal(matrix.votes, [[1], [0]])

    def test_accepts_file_objects(self):
        matrix = read_prediction_csv(io.StringIO("y,f1\n0,1\n1,0\n"))
        assert matrix.n_samples == 2
        # a stream's text is read as UTF-8 bytes, where a lone surrogate is invalid
        with pytest.raises(BadParameter, match="^CSV is not UTF-8 text: "):
            read_prediction_csv(io.StringIO("y,f1\n0,\ud800\n1,0\n"))

    def test_byte_order_mark_dropped_from_text_streams(self, tmp_path):
        plain = tmp_path / "plain.csv"
        plain.write_text("y,f1\n0,1\n1,0\n")
        marked = tmp_path / "marked.csv"
        marked.write_text("\ufeffy,f1\n0,1\n1,0\n", encoding="utf-8")
        want = _outcome(read_prediction_csv, plain)
        assert want == ([0, 1], [[1], [0]])
        with open(marked, encoding="utf-8", newline="") as fh:
            assert _outcome(read_prediction_csv, fh) == want
        assert _outcome(read_prediction_csv, io.StringIO(marked.read_text(encoding="utf-8"))) == want
        # the mark goes before the csv module splits the header, so a
        # quoted first name parses, and a mark alone is an empty file
        for text, outcome in [
            ('\ufeff"y",f1\n0,1\n1,0\n', want),
            ("\ufeff", (BadParameter, "empty CSV: expected header y,f1,...,fm")),
        ]:
            marked.write_text(text, encoding="utf-8")
            assert _outcome(read_prediction_csv, marked) == outcome
            with open(marked, encoding="utf-8", newline="") as fh:
                assert _outcome(read_prediction_csv, fh) == outcome
            assert _outcome(read_prediction_csv, io.StringIO(text)) == outcome

    def test_bad_header(self):
        with pytest.raises(BadParameter):
            read_prediction_csv(io.StringIO("label,f1\n0,1\n1,0\n"))
        with pytest.raises(BadParameter):
            read_prediction_csv(io.StringIO("y\n0\n1\n"))

    def test_empty_and_headerless(self):
        with pytest.raises(BadParameter):
            read_prediction_csv(io.StringIO(""))
        with pytest.raises(BadSize):
            read_prediction_csv(io.StringIO("y,f1\n"))

    def test_non_binary_entry_reports_location(self):
        with pytest.raises(NonBinaryEntry, match="line 3"):
            read_prediction_csv(io.StringIO("y,f1\n0,1\n1,7\n"))
        # the physical line, past a quoted newline in the header
        with pytest.raises(NonBinaryEntry, match="line 4,"):
            read_prediction_csv(io.StringIO('y,"f\n1"\n0,1\n1,7\n'))

    def test_bad_row_reported_before_bad_bytes_further_down(self, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_bytes(b"y,f1\n0,1\n1,7\n" + b"0,1\n" * 5000 + b"0,\xff\n")
        with pytest.raises(NonBinaryEntry, match="line 3"):
            read_prediction_csv(path)

    def test_ragged_row_rejected(self):
        with pytest.raises(BadParameter, match="line 2"):
            read_prediction_csv(io.StringIO("y,f1,f2\n0,1\n"))
        with pytest.raises(BadParameter, match="^line 4: expected 2 fields, got 1$"):
            read_prediction_csv(io.StringIO('y,"f\n1"\n0,1\n1\n'))

    def test_cell_over_csv_field_limit_rejected(self):
        with pytest.raises(BadParameter, match="malformed CSV: field larger"):
            read_prediction_csv(io.StringIO("y,f1\n1," + "1" * 200_000 + "\n0,0\n"))


@st.composite
def _canonical_csv(draw) -> str:
    """A canonical y,f1,...,fm file: N >= 2 rows of one-digit 0/1
    cells, each row ending in a newline; often of one class only."""
    m = draw(st.integers(1, 8))
    classes = draw(st.sampled_from([[0], [1], [0, 1]]))
    labels = draw(st.lists(st.sampled_from(classes), min_size=2, max_size=30))
    rows = [[y, *draw(st.lists(st.sampled_from([0, 1]), min_size=m, max_size=m))] for y in labels]
    header = ["y", *(f"f{i}" for i in range(1, m + 1))]
    return "".join(",".join(map(str, row)) + "\n" for row in [header, *rows])


class TestCanonicalFastPath:
    @given(text=_canonical_csv())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_line_by_line_parser(self, text):
        with tempfile.TemporaryDirectory() as directory:
            path = Path(directory) / "preds.csv"
            path.write_bytes(text.encode())
            fast = _outcome(read_prediction_csv, path)
        assert fast == _outcome(_parse_csv, io.StringIO(text, newline=""))

    @pytest.mark.parametrize(
        "data",
        [
            b"y,f1\n0,1,1,0,",
            b"y,f1\n0,1\r1,0\n",
            b"y,f1\n0;1\n1,0\n",
            b"y,f1\n0,1\n1,2\n",
            b"y,f1\n0,1\n1,/\n",
            b"y,f1\n0,1\n1,0",
            b"y,f1\n0,1\n\n1,0\n",
            b"y,f1\r\n0,1\r\n1,0\r\n",
            b'"y",f1\n0,1\n1,0\n',
            b'y,"f1,f2"\n0,1,1\n1,0,0\n',
            b"y,f1\r0,1\n1,0,1\n0,1,0\n",
            b" y , f1 \n0,1\n1,0\n",
            b"y,f\xc3\xa9\n0,1\n1,0\n",
            b"\n0,1\n1,0\n",
            b"y\n0\n1\n",
            b"y,f1\n",
        ],
    )
    def test_near_canonical_layouts_match_line_by_line_parser(self, data, tmp_path):
        path = tmp_path / "preds.csv"
        path.write_bytes(data)
        text = io.StringIO(data.decode(), newline="")
        assert _outcome(read_prediction_csv, path) == _outcome(_parse_csv, text)
