"""Output checks. Each raises CheckFailed when a result is wrong, so the
operation that produced it counts as failed."""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Monte Carlo results must lie within this many standard errors.
SIGMAS = 5.0
# Relative tolerance of a pmf's mean and variance against closed forms.
PMF_MOMENT_RTOL = 1e-8
# Absolute agreement of brute force and the exact oracle.
BRUTE_FORCE_ATOL = 1e-12


class CheckFailed(Exception):
    """An operation returned a wrong answer."""


def within_sigmas(value: float, std_error: float, exact: float, what: str) -> None:
    """|value - exact| <= SIGMAS standard errors; a zero SE admits nothing."""
    if not abs(value - exact) <= SIGMAS * std_error:
        raise CheckFailed(
            f"{what}: {value!r} is not within {SIGMAS} SE ({std_error!r}) of {exact!r}"
        )


def repeats(memo: dict, key: str, value) -> None:
    """The first value seen under a key is the reference for later repeats,
    which must be bit-identical (floats, bytes or arrays)."""
    if isinstance(value, np.ndarray):
        value = (value.dtype.str, value.shape, value.tobytes())
    if key not in memo:
        memo[key] = value
    elif memo[key] != value:
        raise CheckFailed(f"{key}: repeated call gave a different result")


def lag1_near_gamma(lag1_mean: float, gamma: float, reps: int) -> None:
    """Mean lag-1 sample correlation within its sampling tolerance of gamma.

    One sample correlation at true value rho has standard error about
    (1 - rho**2) / sqrt(reps); the mean over pairs is no less precise.
    """
    tol = SIGMAS * (1.0 - gamma * gamma) / math.sqrt(reps)
    if not abs(lag1_mean - gamma) <= tol:
        raise CheckFailed(f"lag-1 mean {lag1_mean!r} is not within {tol:.3g} of gamma {gamma!r}")


def pmf_moments(mass: np.ndarray, n: int, rate: float, variance: float) -> None:
    """The pmf's mean is n r and its variance the closed-form sum variance."""
    k = np.arange(n + 1, dtype=float)
    mean = float(k @ mass)
    var = float(((k - mean) ** 2) @ mass)
    if not math.isclose(mean, n * rate, rel_tol=PMF_MOMENT_RTOL):
        raise CheckFailed(f"pmf n={n} r={rate!r}: mean {mean!r} != n r = {n * rate!r}")
    if not math.isclose(var, variance, rel_tol=PMF_MOMENT_RTOL):
        raise CheckFailed(f"pmf n={n} r={rate!r}: variance {var!r} != {variance!r}")


def agrees(value: float, reference: float, atol: float, what: str) -> None:
    if not abs(value - reference) <= atol:
        raise CheckFailed(f"{what}: {value!r} differs from {reference!r} by more than {atol}")


def equals(value, expected, what: str) -> None:
    if value != expected:
        raise CheckFailed(f"{what}: got {value!r}, expected {expected!r}")


def exited_ok(returncode: int, stderr: bytes) -> None:
    if returncode != 0:
        tail = stderr.decode(errors="replace").strip().splitlines()[-1:] or [""]
        raise CheckFailed(f"exit status {returncode}: {tail[0]}")


def json_fields(stdout: str, expected: dict) -> None:
    """Each dotted key of ``expected`` has exactly that value in the JSON."""
    data = json.loads(stdout)
    for dotted, want in expected.items():
        node = data
        for part in dotted.split("."):
            node = node[part]
        equals(node, want, dotted)


def csv_columns(stdout: str, expected: dict) -> None:
    """Each named column of the CSV equals the expected list of cells."""
    rows = list(csv.DictReader(io.StringIO(stdout)))
    for column, want in expected.items():
        got = [row[column] for row in rows]
        if len(got) != len(want):
            raise CheckFailed(f"{len(got)} rows, expected {len(want)}")
        for i, (a, b) in enumerate(zip(got, want)):
            if a != b:
                raise CheckFailed(f"column {column!r} row {i}: got {a!r}, expected {b!r}")
