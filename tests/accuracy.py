"""Accuracy ledger of the exact oracle: how far its numbers are from exact.

For each case it prints the largest relative error of the
``exact_vote_pmf`` masses, and of ``exact_error`` where
``reference.exact_error_fraction`` gives a rational reference. A mass
counts where it or its reference is at least tiny, the smallest normal
double, so a mass reported as 0 whose true value is at least tiny counts
as error 1; below tiny on both sides, 0 is the honest report.

* Rational cases: n in (60, 200, 400) x r in RATES, under the geometric
  model at each gamma in GAMMAS, the independent model and the
  equicorrelated model at lam = 0.3. The errors pair every p in RATES
  above 1/2 with every q below it, at pi = 0.5.
* Binomial cases: the independent pmf at each (n, r) in BINOMIAL_CASES,
  rates far from 1/2 where ``binomial_pmf``'s log-space sums gather
  rounding.
* Large-n cases: each ``LARGE_GEOMETRIC`` pmf at both edges of its
  reported window, against the run-count closed form
  ``reference.run_count_log_pmf``, itself good to about 1e-10, and
  against the ``DECIMAL_EDGE_PINS``, values of
  ``reference.decimal_markov_pmf_at`` good to far below 1e-12.

Run from the repository root; one run takes under a minute:

    PYTHONPATH=src python3 tests/accuracy.py

It compares each row with the committed row of the same case in
ACCURACY.json at the repository root. If any row is ``regressed``, it
prints those rows, leaves the file untouched and exits 1; otherwise it
writes every row, new cases included. To accept a worse row on purpose,
delete its case from ACCURACY.json first, so that the diff shows it.
A change to the oracle quotes the ledger's diff;
``test_accuracy_ledger.py`` recomputes the n = 60 rows in every test
run.
"""

import functools
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

import reference
from test_oracle import DECIMAL_EDGE_PINS, LARGE_GEOMETRIC
from votephase import EnsembleConfig, Equicorrelated, Geometric, Independent, Prior, RatePair
from votephase import exact_error, exact_vote_pmf

OUT = Path(__file__).resolve().parents[1] / "ACCURACY.json"
NS = (60, 200, 400)
RATES = (0.01, 0.3, 0.625, 0.65, 0.99)
GAMMAS = (0.3, 0.75, 0.95)
MODELS = [*(Geometric(gamma=g) for g in GAMMAS), Independent(), Equicorrelated(lam=0.3)]
BINOMIAL_CASES = ((60, 0.99998), (200, 0.0039), (200, 0.125))
EDGE_WIDTH = 40  # masses checked inside each edge of a large-n window
TINY = float(np.finfo(float).tiny)

# exact_error_fraction reads exact_pmf from its module; caching it there
# builds each rational pmf once for the pmf and the error cases.
reference.exact_pmf = functools.lru_cache(maxsize=None)(reference.exact_pmf)


def regressed(row: dict, committed: dict) -> bool:
    """True when a row's error exceeds max(2 x its committed error, 2**-51)."""
    key = "pmf" if "pmf" in committed else "error"
    return row[key] > max(2 * committed[key], 2**-51)


def _relative_error(got: float, want) -> float:
    if max(got, want) < TINY:
        return 0.0
    return float(abs(Fraction(got) - want) / want)


def _label(model) -> str:
    params = ", ".join(f"{key}={value}" for key, value in vars(model).items())
    return f"{type(model).__name__.lower()}({params})"


def _pmf_row(model, n: int, rate: float) -> dict:
    mass = exact_vote_pmf(model, n, rate).mass
    exact = reference.exact_pmf(model, n, rate)
    worst = max(_relative_error(float(m), e) for m, e in zip(mass, exact))
    return {"case": f"{_label(model)} n={n} r={rate}", "pmf": worst}


def rational_rows(ns=NS) -> list:
    """The rational and binomial rows at the sizes in ns."""
    rows = []
    for model in MODELS:
        for n in ns:
            rows += [_pmf_row(model, n, rate) for rate in RATES]
            for p in (r for r in RATES if r > 0.5):
                for q in (r for r in RATES if r < 0.5):
                    cfg = EnsembleConfig(n=n, rates=RatePair(p=p, q=q), prior=Prior(pi=0.5), model=model)
                    worst = _relative_error(exact_error(cfg), reference.exact_error_fraction(cfg))
                    rows.append({"case": f"{_label(model)} n={n} p={p} q={q} pi=0.5", "error": worst})
    return rows + [_pmf_row(Independent(), n, rate) for n, rate in BINOMIAL_CASES if n in ns]


def edge_rows() -> list:
    rows = []
    for n, rate, gamma in LARGE_GEOMETRIC:
        mass = exact_vote_pmf(Geometric(gamma=gamma), n, rate).mass
        support = np.flatnonzero(mass)
        edges = {
            "low": range(max(support[0] - 5, 0), support[0] + EDGE_WIDTH),
            "high": range(support[-1] - EDGE_WIDTH + 1, min(support[-1] + 6, n + 1)),
        }
        for side, ks in edges.items():
            want = np.exp(reference.run_count_log_pmf(n, rate, gamma, ks))
            worst = max(_relative_error(float(mass[k]), Fraction(w)) for k, w in zip(ks, want))
            case = f"{_label(Geometric(gamma=gamma))} n={n} r={rate} {side} edge"
            rows.append({"case": case, "k": [ks[0], ks[-1]], "pmf": worst})
    return rows


def pin_rows() -> list:
    rows = []
    for (n, rate, gamma), sides in DECIMAL_EDGE_PINS.items():
        mass = exact_vote_pmf(Geometric(gamma=gamma), n, rate).mass
        for side, pins in sides.items():
            worst = max(_relative_error(float(mass[k]), Fraction(pin)) for k, pin in pins.items())
            case = f"{_label(Geometric(gamma=gamma))} n={n} r={rate} {side} edge decimal pins"
            rows.append({"case": case, "k": [min(pins), max(pins)], "pmf": worst})
    return rows


def _print(rows: list) -> None:
    for row in rows:
        what = "pmf" if "pmf" in row else "error"
        print(f"{row[what]:9.2e}  {what:<5}  {row['case']}", *row.get("k", ()))


def main() -> None:
    start = time.perf_counter()
    rows = rational_rows() + edge_rows() + pin_rows()
    _print(rows)
    committed = {row["case"]: row for row in json.loads(OUT.read_text())} if OUT.exists() else {}
    worse = [row for row in rows if row["case"] in committed and regressed(row, committed[row["case"]])]
    if worse:
        print(f"\n{len(worse)} rows exceed max(2 x committed, 2**-51); {OUT.name} left untouched:")
        _print(worse)
        sys.exit(1)
    OUT.write_text(json.dumps(rows, indent=1) + "\n")
    print(f"wrote {len(rows)} rows to {OUT.name} in {time.perf_counter() - start:.1f} s")


if __name__ == "__main__":
    main()
