"""Empirical diagnosis of a real prediction matrix.

Input is an N x m table of binary votes plus the true labels. The
output estimates the ensemble's average true/false positive rates, the
within-class dependence between members, the observed majority-vote
error, and the phase verdict the asymptotic theory assigns to the
estimated operating point: would an infinitely large ensemble of
members like these beat one typical member, lose to it, or tie.

Every rate, standard error and correlation is a function of exact
integer counts of the 0/1 votes, read from one integer Gram matrix per
class, so a pooled rate of exactly 1/2 is reported as 1/2, and each
rate, standard error and pairwise correlation is within a few ulps of
its exact value. ``_gram`` is the one routine that forms a Gram and
``_class_counts`` the one that turns it into these statistics;
``montecarlo.mc_correlation_matrix`` reads its correlations of sampled
votes through the same two.

The verdict is a plug-in of point estimates into a discontinuous
function, so the report attaches warnings whenever that is fragile:
rate estimates at the {0, 1} boundary (clamped before the verdict),
rate estimates exactly on the 1/2 phase boundary or within two
standard errors of it, and mean within-class correlation at or above
0.5, where the weak dependence behind the asymptotic limit is no
longer credible.

The package imports this module eagerly, so numpy is imported inside
the functions that compute with arrays, not at module level.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import os
from dataclasses import dataclass, field, fields
from typing import Union

from .analytic import PhaseVerdict, _individual_error, limiting_delta
from .model import (
    BadParameter,
    BadSize,
    Prior,
    RatePair,
    VotePhaseError,
    _check_guard,
)

# Verdict clamp for boundary estimates; the analysis excludes closed
# boundaries so exact 0/1 rates have no phase of their own.
RATE_CLAMP = 1e-9

HIGH_CORRELATION = 0.5

# Largest class diagnose accepts, in rows; see _gram.
CLASS_ROWS_GUARD = 2**31

# Most classifier columns diagnose accepts; see _gram. Its m x m arrays
# take about 16 bytes per column pair at a time (tracemalloc, 6 rows
# at m = 1024 and 2048): a 6-row CSV of 2**12 columns peaks at 288 MiB
# RSS, and 2**13 columns would need about 1.1 GiB.
CLASSIFIERS_GUARD = 2**12

# Rows per float32 Gram slice: fewer than 2**24, so every count in it
# is exact, and few enough that the slice's float32 copy stays small.
_GRAM_ROWS = 2**16


class SingleClassData(VotePhaseError, ValueError):
    """The label column contains only one class."""


class NonBinaryEntry(VotePhaseError, ValueError):
    """A label or vote entry was not 0 or 1."""


@dataclass(frozen=True)
class PredictionMatrix:
    """True labels and an N x m matrix of member votes."""

    labels: np.ndarray
    votes: np.ndarray

    def __post_init__(self) -> None:
        import numpy as np

        labels = np.asarray(self.labels)
        votes = np.asarray(self.votes)
        if labels.ndim != 1 or votes.ndim != 2 or votes.shape[0] != labels.shape[0]:
            raise BadParameter(
                f"need labels (N,) and votes (N, m); got {labels.shape} and {votes.shape}"
            )
        if labels.shape[0] < 2:
            raise BadSize(f"need at least 2 samples, got {labels.shape[0]}")
        if votes.shape[1] < 1:
            raise BadSize("need at least 1 classifier column")
        if not ((labels == 0) | (labels == 1)).all():
            raise NonBinaryEntry("labels must be 0 or 1")
        if not ((votes == 0) | (votes == 1)).all():
            raise NonBinaryEntry("votes must be 0 or 1")
        labels = labels.astype(np.uint8)
        votes = votes.astype(np.uint8)
        for cls in (0, 1):
            if not np.any(labels == cls):
                raise SingleClassData(f"no samples of class {cls}")
        labels.flags.writeable = False
        votes.flags.writeable = False
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "votes", votes)

    @property
    def n_samples(self) -> int:
        return int(self.labels.shape[0])

    @property
    def n_classifiers(self) -> int:
        return int(self.votes.shape[1])


@dataclass(frozen=True)
class DiagnosisReport:
    """Everything diagnose() can say about one prediction matrix."""

    n_samples: int
    n_classifiers: int
    p_hat: float
    q_hat: float
    p_hat_i: np.ndarray
    q_hat_i: np.ndarray
    p_std_error: float
    q_std_error: float
    corr_class1: float
    corr_class0: float
    pi_used: float
    pi_source: str
    err_hat_individual: float
    err_majority: float
    verdict: PhaseVerdict
    warnings: list = field(default_factory=list)
    lag_means_class1: Union[np.ndarray, None] = None
    lag_means_class0: Union[np.ndarray, None] = None

    def to_dict(self) -> dict:
        """JSON-ready fields, converted by kind: an array becomes a list,
        a float or array entry that is not finite becomes None, a None
        field is left out, and the verdict becomes a dict."""
        import numpy as np

        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, np.ndarray):
                out[f.name] = [_finite(v) for v in value]
            elif isinstance(value, float):
                out[f.name] = _finite(value)
            elif value is not None:
                out[f.name] = value
        out["verdict"] = {
            "delta_inf": _finite(self.verdict.delta_inf),
            "phase": self.verdict.phase.name.lower(),
            "sign": self.verdict.phase.value,
            "p_side": self.verdict.p_side.value,
            "q_side": self.verdict.q_side.value,
            "region": self.verdict.region,
        }
        out["warnings"] = list(self.warnings)
        return out


def _finite(x: float) -> Union[float, None]:
    """float(x), or None (JSON null) for nan and the infinities."""
    x = float(x)
    return x if math.isfinite(x) else None


def _gram(block: np.ndarray) -> np.ndarray:
    """The exact int64 Gram matrix block.T @ block of a 0/1 block.

    The only place a vote block meets its transpose. Slices of
    _GRAM_ROWS rows are multiplied in float32, which holds each slice's
    counts exactly, and added into the int64 Gram in place. A block of
    more than CLASS_ROWS_GUARD rows or CLASSIFIERS_GUARD columns is
    refused before any m x m array is allocated.
    """
    import numpy as np

    rows, m = block.shape
    # N * n_ij reaches N**2 in _class_counts, which fits in int64 for N <= 2**31.
    _check_guard("diagnose class rows", rows, CLASS_ROWS_GUARD)
    _check_guard("diagnose classifiers", m, CLASSIFIERS_GUARD)
    gram = np.zeros((m, m), dtype=np.int64)
    for lo in range(0, rows, _GRAM_ROWS):
        chunk = block[lo : lo + _GRAM_ROWS].astype(np.float32)
        np.add(gram, chunk.T @ chunk, out=gram, casting="unsafe")
    return gram


def _class_counts(gram: np.ndarray, rows: int) -> tuple:
    """Rates, SE and correlations of one class's 0/1 block, from its Gram.

    ``gram`` is the block's exact Gram G = block.T @ block (see _gram)
    and ``rows`` its row count N. The diagonal of G gives the column
    counts n_i, its off-diagonal the pair counts n_ij, and its sum S2
    the sum of the squared row sums. With m columns and S1 = sum n_i,
    the pooled rate S1 / (N m) and the SE of the mean of the per-row
    vote averages, sqrt((N S2 - S1^2) / (N^2 (N - 1) m^2)), are each one
    correctly rounded division of exact integers. That SE honors
    within-row correlation without modeling it. The Pearson correlation
    of columns i and j is (N n_ij - n_i n_j) / sqrt(v_i v_j) with
    v_i = N n_i - n_i^2. Its numerator is exact in int64 while
    N <= 2**31, so each entry is within a few ulps of its exact value
    and the diagonal, v_i / sqrt(v_i v_i), is exactly 1.0. A constant
    column has v_i = 0 and nan pairs; its index is reported back.

    The caller hands the Gram over and must not read it again: it
    becomes the int64 numerator in place and is divided into the
    float64 correlation matrix, the only other m x m array, so about
    16 bytes per column pair are held at a time.

    Returns (member rates, pooled rate, SE, mean correlation, correlation
    matrix, constant column indices). With fewer than 2 rows the SE is
    nan; with fewer than 2 rows or columns the mean correlation is nan
    and the matrix None.
    """
    import numpy as np

    m = gram.shape[0]
    counts = gram.diagonal().copy()
    s1, s2 = int(counts.sum()), int(gram.sum())
    rates, rate = counts / rows, s1 / (rows * m)
    scale = rows * rows * (rows - 1) * m * m
    se = math.sqrt((rows * s2 - s1 * s1) / scale) if scale else float("nan")
    if rows < 2 or m < 2:
        return rates, rate, se, float("nan"), None, []
    var = (rows * counts - counts * counts).astype(np.float64)
    gram *= rows
    gram -= np.outer(counts, counts)
    corr = np.outer(var, var)
    np.sqrt(corr, out=corr)
    with np.errstate(invalid="ignore"):
        np.divide(gram, corr, out=corr)
    del gram
    # The mean runs over the off-diagonal entries in row-major order, the
    # order a boolean mask picks them in; a mean over one triangle, or
    # nan-as-zero sums, would round differently.
    diagonal = corr.diagonal().copy()
    np.fill_diagonal(corr, np.nan)
    mean = _nanmean(corr.ravel())
    np.fill_diagonal(corr, diagonal)
    return rates, rate, se, mean, corr, np.flatnonzero(var == 0).tolist()


def _nanmean(values: np.ndarray) -> float:
    """Mean of the entries that are not nan; nan when there are none."""
    import numpy as np

    valid = values[~np.isnan(values)]
    return float(valid.mean()) if valid.size else float("nan")


def _lag_means(corr: np.ndarray) -> np.ndarray:
    import numpy as np

    return np.array([_nanmean(np.diag(corr, k)) for k in range(1, corr.shape[0])])


def diagnose(
    matrix: PredictionMatrix,
    prior_override: Union[Prior, None] = None,
    assume_ordered: bool = False,
) -> DiagnosisReport:
    """Estimate rates, dependence, and the asymptotic phase verdict.

    ``prior_override`` replaces the empirical class-1 fraction in the
    error formulas and verdict (use it when the sample is not drawn
    from the deployment class balance). ``assume_ordered`` asserts that
    classifier columns have a meaningful order, unlocking per-lag mean
    correlations for comparison against a gamma**k profile.
    """
    import numpy as np

    votes = matrix.votes
    labels = matrix.labels
    warnings: list = []

    def summary(block: np.ndarray) -> tuple:
        # The lag means are read, and the m x m correlations dropped,
        # before the next class forms its Gram.
        *stats, corr, constant = _class_counts(_gram(block), len(block))
        return *stats, _lag_means(corr) if assume_ordered and corr is not None else None, constant

    p_hat_i, p_hat, p_se, corr1, lags1, constant1 = summary(votes[labels == 1])
    q_hat_i, q_hat, q_se, corr0, lags0, constant0 = summary(votes[labels == 0])

    if prior_override is not None:
        pi_used, pi_source = prior_override.pi, "override"
    else:
        pi_used, pi_source = float(labels.mean()), "estimated"

    for cls, constant in ((1, constant1), (0, constant0)):
        if constant:
            warnings.append(
                f"class {cls}: classifiers {constant} vote constantly within the "
                "class; their pairs are excluded from correlation averages"
            )

    clamped = {}
    for name, value in (("p", p_hat), ("q", q_hat)):
        clamped[name] = min(max(value, RATE_CLAMP), 1.0 - RATE_CLAMP)
        if clamped[name] != value:
            warnings.append(
                f"{name}_hat = {value:g} sits on the {{0,1}} boundary; verdict "
                f"computed after clamping into [{RATE_CLAMP:g}, 1 - {RATE_CLAMP:g}] "
                "(the asymptotic analysis excludes closed boundaries)"
            )
    verdict_prior = Prior(pi=pi_used)
    verdict = limiting_delta(RatePair(p=clamped["p"], q=clamped["q"]), verdict_prior)

    for name, value, se in (("p", p_hat, p_se), ("q", q_hat, q_se)):
        if np.isfinite(se) and abs(value - 0.5) <= 2.0 * se and value != 0.5:
            warnings.append(
                f"{name}_hat = {value:.4f} is within 2 standard errors "
                f"({se:.4f}) of the 1/2 boundary; phase indeterminate"
            )
        elif value == 0.5:
            warnings.append(
                f"{name}_hat sits exactly on the 1/2 boundary; phase taken "
                "from the boundary row/column"
            )

    for cls, value in ((1, corr1), (0, corr0)):
        if np.isfinite(value) and value >= HIGH_CORRELATION:
            warnings.append(
                f"class {cls}: mean within-class correlation {value:.3f} >= "
                f"{HIGH_CORRELATION}; the asymptotic verdict assumes weak "
                "dependence and is unreliable here"
            )

    err_hat_individual = _individual_error(p_hat, q_hat, pi_used)
    majority_one = 2 * votes.sum(axis=1, dtype=np.int64) > matrix.n_classifiers
    err_majority = float((majority_one != (labels == 1)).mean())

    return DiagnosisReport(
        n_samples=matrix.n_samples,
        n_classifiers=matrix.n_classifiers,
        p_hat=p_hat,
        q_hat=q_hat,
        p_hat_i=p_hat_i,
        q_hat_i=q_hat_i,
        p_std_error=p_se,
        q_std_error=q_se,
        corr_class1=corr1,
        corr_class0=corr0,
        pi_used=pi_used,
        pi_source=pi_source,
        err_hat_individual=err_hat_individual,
        err_majority=err_majority,
        verdict=verdict,
        warnings=warnings,
        lag_means_class1=lags1,
        lag_means_class0=lags0,
    )


def read_prediction_csv(
    source: Union[str, bytes, os.PathLike, io.TextIOBase],
) -> PredictionMatrix:
    """Parse the ``y,f1,...,fm`` CSV schema into a PredictionMatrix.

    Every source becomes bytes once: a path (str, bytes or os.PathLike)
    gives the file's bytes, and a text stream is read whole and its text
    encoded as UTF-8, so a stream is parsed exactly like a file of that
    text, bulk path and errors included. A leading UTF-8 byte-order mark
    is dropped. A canonical file is parsed in one numpy pass: an ASCII
    header line without quotes or carriage returns, then rows of
    one-byte 0/1 cells joined by ``,``, each row ending in a newline.
    Any other file is parsed line by line as UTF-8 text; both ways give
    the same matrix, and every error comes from the line-by-line way.
    Bytes that are not UTF-8 (from a text stream, a lone surrogate),
    and rows the csv module cannot split (such as a cell over its field
    size limit), raise BadParameter.
    """
    try:
        if isinstance(source, (str, bytes, os.PathLike)):
            with open(source, "rb") as fh:
                data = fh.read()
        else:
            data = source.read().encode("utf-8", "surrogatepass")
        data = data.removeprefix(codecs.BOM_UTF8)
        matrix = _parse_canonical(data)
        if matrix is None:
            # decoded lazily, as a file opened in text mode is, so a
            # bad row still wins over bad bytes further down the file
            text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
            matrix = _parse_csv(text)
        return matrix
    except UnicodeDecodeError as exc:
        raise BadParameter(f"CSV is not UTF-8 text: {exc}") from None
    except csv.Error as exc:
        raise BadParameter(f"malformed CSV: {exc}") from None


def _parse_canonical(data: bytes) -> Union[PredictionMatrix, None]:
    """The matrix of a canonical file, or None for any other layout."""
    import numpy as np

    head, _, body = data.partition(b"\n")
    if not head.isascii() or b'"' in head or b"\r" in head:
        return None
    header = [h.strip() for h in head.decode("ascii").split(",")]
    row = 2 * len(header)
    if header[0] != "y" or len(header) < 2 or not body or len(body) % row:
        return None
    text = np.frombuffer(body, dtype=np.uint8).reshape(-1, row)
    digits = text[:, 0::2]
    if (
        (digits - ord("0") > 1).any()
        or (text[:, 1:-1:2] != ord(",")).any()
        or (text[:, -1] != ord("\n")).any()
    ):
        return None
    return _digit_matrix(digits)


def _digit_matrix(digits: np.ndarray) -> PredictionMatrix:
    """The matrix of an (N, 1 + m) array of ASCII 0/1 digits, label first."""
    cells = digits - ord("0")
    return PredictionMatrix(labels=cells[:, 0], votes=cells[:, 1:])


def _parse_csv(fh) -> PredictionMatrix:
    import numpy as np

    reader = csv.reader(fh)
    try:
        header = next(reader)
    except StopIteration:
        raise BadParameter("empty CSV: expected header y,f1,...,fm") from None
    header = [h.strip() for h in header]
    if not header or header[0] != "y" or len(header) < 2:
        raise BadParameter(
            f"CSV header must be y,f1,...,fm with m >= 1, got {header!r}"
        )
    width = len(header)
    rows = []
    # line_num is the physical line a row ends on, past quoted newlines
    for row in reader:
        if not row:
            continue
        if len(row) != width:
            raise BadParameter(
                f"line {reader.line_num}: expected {width} fields, got {len(row)}"
            )
        cells = [cell.strip() for cell in row]
        for col, cell in zip(header, cells):
            if cell not in ("0", "1"):
                raise NonBinaryEntry(
                    f"line {reader.line_num}, column {col!r}: entry {cell!r} is not 0 or 1"
                )
        rows.append("".join(cells))
    if not rows:
        raise BadSize("CSV contains a header but no data rows")
    digits = np.frombuffer("".join(rows).encode("ascii"), dtype=np.uint8)
    return _digit_matrix(digits.reshape(-1, width))


def format_report(report: DiagnosisReport) -> str:
    """Human-readable rendering of a DiagnosisReport."""
    v = report.verdict
    lines = [
        f"samples: {report.n_samples}   classifiers: {report.n_classifiers}",
        f"p_hat = {report.p_hat:.6f} (se {report.p_std_error:.6f})   "
        f"q_hat = {report.q_hat:.6f} (se {report.q_std_error:.6f})",
        f"pi = {report.pi_used:.6f} ({report.pi_source})",
        f"mean within-class correlation: class1 {report.corr_class1:.4f}, "
        f"class0 {report.corr_class0:.4f}",
        f"individual error (estimate): {report.err_hat_individual:.6f}",
        f"observed majority-vote error: {report.err_majority:.6f}",
        f"asymptotic verdict: {v.phase.name.lower()} (delta_inf = {v.delta_inf:.6f}, "
        f"region {v.region})",
    ]
    for label, lags in ((1, report.lag_means_class1), (0, report.lag_means_class0)):
        if lags is not None:
            lead = ", ".join(f"{x:.4f}" for x in lags[:5])
            lines.append(f"lag means (class {label}, first 5): {lead}")
    for w in report.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines)
