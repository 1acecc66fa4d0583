"""Exponent estimation and systematic inequality verification.

The estimators fit individual (beta) and uniform (alpha) Diophantine
exponents from exact best-approximation tables; the checkers evaluate the
classical and sharpened transference inequalities between the four
exponents of a system and its transpose, and the dominance classifier says
which of the three individual-exponent lower bounds is strongest.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import SimpleNamespace
from typing import Optional, Sequence

from .errors import DomainError, HypothesisViolated
from .exactlinalg import gram_det, orthogonal_lattice, saturate
from .functions import FunctionSpec
from .geometry import System, best_approx_table
from .presets import PRESETS, cubic_pair_family, random_rational_system, random_system
from .radicals import exact_div, exact_le, exact_mul, power_le
from .sectiondual import cube_section_volume_squared, delta_d
from .transfer import (
    lemma_bound_holds,
    lemma_constant_sq,
    lemma_terms,
    mahler_transfer,
    mahler_transfer_asymmetric,
    main_lemma_transfer,
    main_lemma_transfer_3d,
)
from .verify import verify_certificate

MAX_EXP = Fraction(50)
DEFAULT_TOL = 0.1


# ---------------------------------------------------------------------------
# exponent estimation
# ---------------------------------------------------------------------------


def _log_fraction(f: Fraction) -> float:
    # math.log handles arbitrary-size integers; Fractions it does not.
    return math.log(f.numerator) - math.log(f.denominator)


@dataclass
class ExponentEstimate:
    side: str
    t_max: int
    alpha_fit: float
    beta_fit: float
    alpha_lower: Fraction  # certified: psi(t) <= t^-alpha_lower on the window
    beta_lower: Fraction  # certified: psi(t) <= t^-beta_lower at some record
    capped: bool
    n_records: int

    def as_dict(self):
        return {
            "side": self.side,
            "t_max": self.t_max,
            "alpha_fit": self.alpha_fit,
            "beta_fit": self.beta_fit,
            "alpha_lower": str(self.alpha_lower),
            "beta_lower": str(self.beta_lower),
            "capped": self.capped,
            "n_records": self.n_records,
        }


def _trend_slope(pts: Sequence[tuple[float, float]]) -> float:
    """Theil-Sen slope (median of pairwise slopes): robust against the
    isolated exceptionally-good records that real systems produce."""
    slopes = sorted(
        (pts[j][1] - pts[i][1]) / (pts[j][0] - pts[i][0])
        for i in range(len(pts))
        for j in range(i + 1, len(pts))
        if pts[j][0] > pts[i][0]
    )
    if not slopes:
        return 0.0
    k = len(slopes)
    mid = k // 2
    return slopes[mid] if k % 2 else (slopes[mid - 1] + slopes[mid]) / 2


def _certify_record_exponent(psi: Fraction, t: int, start: float) -> Fraction:
    """Largest gamma = p/64 <= min(start, MAX_EXP) with psi <= t^-gamma, exact
    (0 when there is none).  psi > 0 and t >= 2.

    A float guess of p is corrected one step at a time; each step is decided
    in integers by ``radicals.power_le``, on the 64-bit heads of psi first
    and on the full 64th powers only when the heads cannot decide."""
    top = math.floor(64 * min(start, float(MAX_EXP)))
    p = max(0, min(top, math.floor(-64 * _log_fraction(psi) / math.log(t))))
    while p > 0 and not power_le(psi, t, p):
        p -= 1
    while p < top and power_le(psi, t, p + 1):
        p += 1
    return Fraction(p, 64)


def estimate_exponents(system: System, side: str, t_max: int) -> ExponentEstimate:
    """Fit alpha and beta from the jump table of the best-approximation
    function.

    beta_fit is a robust trend slope of -log psi against log t over the
    records (limsup proxy; the median of pairwise slopes cancels the
    multiplicative constant and discounts isolated lucky records), with an
    end-of-scan anchor when the table is too sparse for a slope.  alpha_fit
    is the min over the last-decade window of -log psi(t-) / log t evaluated
    just before each jump (liminf proxy), refined by the same trend fit on
    the pre-jump points.  Exact certified record exponents accompany both
    fits.  psi = 0 records (exactly rational directions) cap the exponents
    at MAX_EXP.
    """
    records = best_approx_table(system, side, t_max).records
    capped = any(rec.psi == 0 for rec in records)

    # Working points: (log t, -log psi).  The plain ratio -log psi / log t
    # carries an O(1/log t) bias from the multiplicative constant of psi, so
    # the slope estimates below come from least-squares fits, which cancel
    # that constant; raw ratios are kept as exact-data fallbacks.
    pts = [
        (math.log(rec.t), -_log_fraction(rec.psi))
        for rec in records
        if rec.t >= 2 and rec.psi > 0
    ]

    beta_fit = 0.0
    beta_lower = Fraction(0)
    if capped:
        beta_fit = float(MAX_EXP)
        beta_lower = MAX_EXP
    elif len(pts) >= 5:
        beta_fit = _trend_slope(pts)
    elif pts:
        # Too few records for a slope: anchor at the end of the scan.  The
        # scan certifies psi(t_max) exactly, whereas the ratio at a lone
        # record's own scale just echoes that record's fluctuation.
        beta_fit = pts[-1][1] / math.log(t_max)
    beta_fit = max(0.0, min(beta_fit, float(MAX_EXP)))
    if pts and not capped:
        # certified statement about the deepest record only
        x, y = pts[-1]
        rec = next(r for r in reversed(records) if r.psi > 0 and r.t >= 2)
        beta_lower = _certify_record_exponent(rec.psi, rec.t, y / x)

    # alpha: the value held just before each new record arrives, i.e. the
    # pairs (log t_{k+1}, -log psi_k); slope fit over all pairs, floored by
    # the raw minimum over the last decade of the scan.
    window_lo = max(2, t_max // 10)
    jump_pts = []
    raw_window = []
    alpha_lower = MAX_EXP
    for i, rec in enumerate(records):
        t_end = records[i + 1].t if i + 1 < len(records) else t_max
        if rec.t < 2 or t_end < 2:
            continue
        if rec.psi == 0:
            continue
        val = -_log_fraction(rec.psi) / math.log(t_end)
        jump_pts.append((math.log(t_end), -_log_fraction(rec.psi)))
        if t_end >= window_lo:
            raw_window.append(val)
            alpha_lower = min(alpha_lower, _certify_record_exponent(rec.psi, t_end, val))
    alpha_fit = float(MAX_EXP)
    if raw_window:
        alpha_fit = min(raw_window)
    if len(jump_pts) >= 5:
        slope = _trend_slope(jump_pts)
        alpha_fit = min(alpha_fit, max(slope, 0.0))
    # the uniform exponent never exceeds the individual one
    alpha_fit = min(alpha_fit, beta_fit)
    alpha_lower = min(alpha_lower, beta_lower)
    return ExponentEstimate(
        side=side,
        t_max=t_max,
        alpha_fit=alpha_fit,
        beta_fit=beta_fit,
        alpha_lower=alpha_lower,
        beta_lower=beta_lower,
        capped=capped,
        n_records=len(records),
    )


# ---------------------------------------------------------------------------
# inequality checkers
# ---------------------------------------------------------------------------

_CAP = float(MAX_EXP)


@dataclass
class InequalityReport:
    family: str
    n: int
    m: int
    inputs: dict
    lhs: float
    rhs: float
    slack: float
    passed: bool
    tol: float
    note: str = ""

    def as_dict(self):
        return {
            "family": self.family,
            "n": self.n,
            "m": self.m,
            "inputs": self.inputs,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
            "passed": self.passed,
            "tol": self.tol,
            "note": self.note,
        }


def _capped_div(num: float, den: float) -> float:
    if abs(den) < 1e-12:
        if abs(num) < 1e-12:
            return 0.0
        return _CAP if num > 0 else -_CAP
    return num / den


def _below(lhs, rhs, note=""):
    """The bound lhs >= rhs, as (lhs, rhs, slack, note)."""
    return lhs, rhs, lhs - rhs, note


def _exact_capped_div(num, den) -> Fraction:
    """num / den in Fractions, and +-MAX_EXP (0 for 0/0) at den = 0."""
    return Fraction(num) / den if den else MAX_EXP * ((num > 0) - (num < 0))


def laurent_bound(k: int, n: int, m: int, x, y):
    """Lower bound k in {1, 2, 3} on beta_t from alpha = x and beta = y, in
    the operands' arithmetic: floats through ``_capped_div``, else Fractions.
    Bound 1 is Dyson's, (n y + n - 1) / ((m - 1) y + m); bounds 2 and 3 are
    ((n - 1) p - q) / ((m - 1) p + q), (p, q) = (1 + y, 1 - x), (1 + 1/y, 1/x - 1)."""
    div = _capped_div if isinstance(y, float) else _exact_capped_div
    if k == 1:
        return div(n * y + n - 1, (m - 1) * y + m)
    if k == 2:
        p, q = 1 + y, 1 - x
    elif k == 3:
        p, q = 1 + div(1, y), div(1, x) - 1
    else:
        raise DomainError("k must be 1, 2 or 3")
    return div((n - 1) * p - q, (m - 1) * p + q)


_TWO_DIRECTIONS = "two transference directions, certified-floor left sides"


def _two_directions(m, xs, xs_t, own_eff, t_eff):
    """Lower bounds both ways: on the transposed exponent from candidates xs,
    and on the system's own from xs_t (the rearranged upper estimate)."""
    lower = min(_capped_div(x, (m - 1) * x + m) for x in xs)
    slack = min(t_eff - lower, own_eff - min(m * x + m - 1 for x in xs_t))
    return t_eff, lower, slack, _TWO_DIRECTIONS


def _jarnik_equality(e):
    lhs = _capped_div(1.0, e.a) + e.at
    return lhs, 1.0, -abs(lhs - 1.0), "1/alpha + alpha_t = 1"


def _jarnik_iii(e):
    xs = [y for y in e.AT if y < 1] or [e.at]
    rhs = min(e.m - 2 + _capped_div(1.0, 1.0 - x) for x in xs)
    return _below(e.a_eff, min(rhs, _CAP), "last term uses the transposed exponent")


def _apfelbeck_ii(e):
    n, m = e.n, e.m

    def bound(x: float) -> float:
        num = n * (n * x - m) - 2 * n * (m + n - 3)
        den = (m - 1) * (n * x - m) + m - (m - 2) * (m + n - 3)
        return (n + _capped_div(num, den)) / m

    return _below(e.at_eff, min(bound(x) for x in e.A))


def _bugeaud_laurent(e):
    m = e.m
    lower = min(
        _capped_div((x - 1) * y, ((m - 2) * x + 1) * y + (m - 1) * x)
        for x in e.A
        for y in e.B
    )
    slack = e.bt_eff - lower
    if e.at < 1:
        # upper estimate rearranged as a lower bound on beta
        b_req = min(
            _capped_div((m - 1) * y + m - 2 + x, 1 - x)
            for x in e.AT
            if x < 1
            for y in e.BT
        )
        slack = min(slack, e.b_eff - b_req)
    return e.bt_eff, lower, slack, _TWO_DIRECTIONS


def _my_inequalities(e):
    n, m = e.n, e.m
    if e.a <= 1 or m == 1:
        # one form (m=1) pins the uniform exponent at <= 1, so only this
        # case can occur; clamp estimation overshoot accordingly.
        rhs = min(_capped_div(n - 1, m - min(x, 1.0)) for x in e.A)
        return _below(e.at_eff, min(rhs, _CAP), "case alpha <= 1")
    rhs = min(_capped_div(n - _capped_div(1.0, x), m - 1) for x in e.A)
    return _below(e.at_eff, min(rhs, _CAP), "case alpha >= 1")


def _dyson(e):
    """Bound 1 of ``laurent_bound`` on beta_t, the weakest over the candidates."""
    return _below(e.bt_eff, min(laurent_bound(1, e.n, e.m, y, y) for y in e.B))


def _laurent(k):
    """Bound 2 or 3 of ``laurent_bound`` on beta_t, the weakest over the candidates, capped."""

    def bound(e):
        rhs = min(laurent_bound(k, e.n, e.m, x, y) for x in e.A for y in e.B)
        return _below(e.bt_eff, min(rhs, _CAP))

    return bound


def _always(n, m, a, at) -> bool:
    return True


def _one_form(n, m, a, at) -> bool:
    return n == 1


# family: (domain predicate on n, m, alpha, alpha_t; its DomainError message;
# bound on the exponent data of check_inequality, giving lhs, rhs, slack, note),
# in the order of reports, which campaign details and benchmark verdicts keep
_TABLE = {
    # Apfelbeck's first bound is Dyson's on the uniform exponents
    "apfelbeck_i": (_always, "", lambda e: _below(
        e.at_eff, min(laurent_bound(1, e.n, e.m, x, x) for x in e.A))),
    "dyson": (_always, "", _dyson),
    "my_inequalities": (_always, "", _my_inequalities),
    "loranoyadenie_1": (_always, "", _dyson),
    "loranoyadenie_2": (_always, "", _laurent(2)),
    "loranoyadenie_3": (_always, "", _laurent(3)),
    "jarnik_ineq_i": (_one_form, "needs n=1",
                      lambda e: _two_directions(e.m, e.A, e.AT, e.a_eff, e.at_eff)),
    "khintchine": (_one_form, "needs n=1",
                   lambda e: _two_directions(e.m, e.B, e.BT, e.b_eff, e.bt_eff)),
    "bugeaud_laurent": (_one_form, "needs n=1", _bugeaud_laurent),
    "jarnik_equality": (lambda n, m, a, at: (n, m) == (1, 2), "equality form needs n=1, m=2",
                        _jarnik_equality),
    "jarnik_ineq_ii": (
        lambda n, m, a, at: n == 1 and m > 1 and a > m * (2 * m - 3),
        "needs n=1, m>1 and alpha > m(2m-3)",
        lambda e: _below(
            e.at_eff, min((1.0 - _capped_div(1.0, x - 2 * e.m + 4)) / (e.m - 1) for x in e.A)),
    ),
    "jarnik_ineq_iii": (lambda n, m, a, at: n == 1 and at > (m - 1) / m,
                        "needs n=1 and alpha_t > (m-1)/m", _jarnik_iii),
    "apfelbeck_ii": (lambda n, m, a, at: m > 1 and a > (2 * (m + n - 1) * (m + n - 3) + m) / n,
                     "needs m > 1 and the side condition on alpha", _apfelbeck_ii),
}
FAMILIES = tuple(_TABLE)


def check_inequality(family: str, n: int, m: int, exps: dict) -> InequalityReport:
    """Evaluate one named transference inequality on exponent values.

    ``exps`` holds alpha, beta for the system and alpha_t, beta_t for the
    transpose (floats or Fractions; values at the MAX_EXP cap make the
    corresponding bound vacuous-but-finite).
    """
    if family not in _TABLE:
        raise DomainError(f"unknown family {family!r}")
    applies, domain_error, bound = _TABLE[family]
    e = SimpleNamespace(n=n, m=m)
    e.a = float(exps.get("alpha", 0.0))
    e.at = float(exps.get("alpha_t", 0.0))
    e.b = float(exps.get("beta", 0.0))
    e.bt = float(exps.get("beta_t", 0.0))
    if not applies(n, m, e.a, e.at):
        raise DomainError(domain_error)
    # Effective values for the bounded-below side of a >= check: a certified
    # record exponent is a true statement about the data, so it may raise
    # (never lower) the side a theorem bounds from below.
    e.a_eff = max(e.a, float(exps.get("alpha_lower", 0.0)))
    e.at_eff = max(e.at, float(exps.get("alpha_t_lower", 0.0)))
    e.b_eff = max(e.b, float(exps.get("beta_lower", 0.0)))
    e.bt_eff = max(e.bt, float(exps.get("beta_t_lower", 0.0)))

    # Candidate sets for exponents feeding the bounding side: the decimal fit
    # (within the exponent tolerance DEFAULT_TOL), and the certified record
    # exponent, are both data-consistent values of the same quantity, so a
    # bound is only refuted when it fails for every combination of them.
    def _cands(fit: float, key: str) -> tuple[float, ...]:
        vals = [fit]
        if fit - DEFAULT_TOL > 0:
            vals.append(fit - DEFAULT_TOL)
        lo = float(exps.get(key, 0.0))
        if lo > 0 and abs(lo - fit) > 1e-12:
            vals.append(lo)
        return tuple(vals)

    e.A = _cands(e.a, "alpha_lower")
    e.AT = _cands(e.at, "alpha_t_lower")
    e.B = _cands(e.b, "beta_lower")
    e.BT = _cands(e.bt, "beta_t_lower")

    lhs, rhs, slack, note = bound(e)
    inputs = {"alpha": e.a, "alpha_t": e.at, "beta": e.b, "beta_t": e.bt}
    passed = slack >= -DEFAULT_TOL
    return InequalityReport(family, n, m, inputs, lhs, rhs, slack, passed, DEFAULT_TOL, note)


# ---------------------------------------------------------------------------
# dominance of the three individual-exponent bounds
# ---------------------------------------------------------------------------


def _dominion_domain(n: int, m: int, alpha, beta) -> tuple[Fraction, Fraction]:
    """(alpha, beta) as Fractions, in the classifier's domain.  At n = m = 1
    that is alpha = 1 alone, where bounds 2 and 3 read 0/0."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if n == m == 1:
        raise DomainError("the classification needs n + m >= 3")
    if not (beta >= alpha >= Fraction(m, n)):
        raise DomainError("requires beta >= alpha >= m/n")
    if m == 1 and alpha > 1:
        raise DomainError("m=1 forces alpha <= 1")
    return alpha, beta


def dominions(n: int, m: int, alpha, beta) -> tuple[str, int]:
    """(case label, index of the strongest lower bound) per the threshold
    classification; requires beta >= alpha >= m/n."""
    alpha, beta = _dominion_domain(n, m, alpha, beta)
    d = n + m
    if m == 1:
        return "i", 2
    if alpha <= 1:
        if beta <= Fraction((d - 1) * alpha - m, 1) / (m - 1):
            return "ii", 2
        return "ii", 1
    if alpha < Fraction(d - 1, n):
        den = d - 1 - n * alpha
        if den > 0 and beta <= (n - 1) * alpha / den:
            return "iii", 3
        return "iii", 1
    return "iv", 3


def dominions_brute(n: int, m: int, alpha, beta) -> set[int]:
    """Indices attaining the exact pointwise maximum of the three bounds, on
    the domain of ``dominions``."""
    alpha, beta = _dominion_domain(n, m, alpha, beta)
    vals = {k: laurent_bound(k, n, m, alpha, beta) for k in (1, 2, 3)}
    top = max(vals.values())
    return {k for k, v in vals.items() if v == top}


# ---------------------------------------------------------------------------
# campaigns
# ---------------------------------------------------------------------------


@dataclass
class CampaignResult:
    family: str
    trials: int = 0
    passed: int = 0
    failures: list = field(default_factory=list)
    details: list = field(default_factory=list)

    def record(self, ok: bool, failure: dict, detail: Optional[dict] = None) -> None:
        """Count one trial: a pass, or a failure described by ``failure``;
        ``detail``, when given, is kept as the trial's detail row."""
        self.trials += 1
        if ok:
            self.passed += 1
        else:
            self.failures.append(failure)
        if detail is not None:
            self.details.append(detail)

    @property
    def all_passed(self) -> bool:
        return self.passed == self.trials

    def as_dict(self):
        return {
            "family": self.family,
            "trials": self.trials,
            "passed": self.passed,
            "failures": self.failures[:20],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2)


def _split_dims(rng: random.Random, d: int) -> tuple[int, int]:
    m = rng.randint(1, d - 1)
    return d - m, m


def campaign_mahler(
    dims: Sequence[int] = (2, 3, 4, 5),
    trials_per_dim: int = 1000,
    seed: int = 0,
) -> CampaignResult:
    """Random rational systems with Minkowski-guaranteed primal boxes; every
    transfer (symmetric, and asymmetric for each coordinate) must yield a
    verified certificate."""
    result = CampaignResult("mahler")
    for d in dims:
        for trial in range(trials_per_dim):
            rng = random.Random(f"{seed}:{d}:{trial}")
            n, m = _split_dims(rng, d)
            system = random_rational_system(rng, n, m, max_den=30)
            # X slightly above 1, U the rational rounding-up of X^(-m/n):
            # then X^m U^n >= 1 and the primal box provably has a point.
            X = 1 + Fraction(rng.randint(1, 100), 100)
            U = Fraction(float(X) ** (-m / n) * 1.01).limit_denominator(10**6)
            while X**m * U**n < 1:
                U *= Fraction(101, 100)
            variants = [("sym", lambda: mahler_transfer(system, X, U))]
            for k in range(d):
                variants.append(
                    ("asym%d" % k,
                     lambda k=k: mahler_transfer_asymmetric(system, X, U, k))
                )
            for label, run in variants:
                try:
                    ok, _ = verify_certificate(run())
                    error = None if ok else "verify failed"
                except Exception as exc:  # noqa: BLE001 - campaign collects failures
                    error = repr(exc)
                result.record(error is None,
                              {"d": d, "trial": trial, "variant": label, "error": error})
    return result


def campaign_dominions(trials: int = 1000, seed: int = 0) -> CampaignResult:
    """Classifier vs. brute-force pointwise maximum on admissible tuples."""
    rng = random.Random(seed)
    result = CampaignResult("dominions")
    for trial in range(trials):
        n = rng.randint(1, 4)
        m = rng.randint(1, 4)
        if n == m == 1:
            m = 2
        lo = Fraction(m, n)
        hi = Fraction(1) if m == 1 else lo + 5
        alpha = lo + (hi - lo) * Fraction(rng.randint(0, 1000), 1000)
        beta = alpha + Fraction(rng.randint(0, 5000), 1000)
        case, winner = dominions(n, m, alpha, beta)
        top = dominions_brute(n, m, alpha, beta)
        result.record(winner in top, {"n": n, "m": m, "alpha": str(alpha), "beta": str(beta),
                                      "case": case, "winner": winner, "brute": sorted(top)})
    return result


def t_max_for(m_eff: int, tier: str) -> int:
    """Scan depth by number of free variables (the cost driver)."""
    table = {
        "fast": {1: 10**4, 2: 800, 3: 120, 4: 40},
        "standard": {1: 10**5, 2: 3000, 3: 250, 4: 80},
        "deep": {1: 10**6, 2: 10**4, 3: 500, 4: 120},
    }
    return table[tier].get(m_eff, 30)


def exponents_for_system(system: System, tier: str):
    """(primal estimate, dual estimate) with per-side scan depths."""
    ep = estimate_exponents(system, "primal", t_max_for(system.m, tier))
    ed = estimate_exponents(system, "dual", t_max_for(system.n, tier))
    return ep, ed


def applicable_families(n: int, m: int, exps: dict) -> list[str]:
    """Families whose domain conditions hold for these dimensions/values."""
    a, at = float(exps.get("alpha", 0.0)), float(exps.get("alpha_t", 0.0))
    return [f for f, (applies, _, _) in _TABLE.items() if applies(n, m, a, at)]


# families whose checks are robust to estimation noise on short scans: the
# individual-exponent bounds plus the uniform-exponent lower bound.
CORE_FAMILIES = (
    "khintchine",
    "dyson",
    "loranoyadenie_1",
    "loranoyadenie_2",
    "loranoyadenie_3",
    "my_inequalities",
)


def check_all_inequalities(system: System, tier: str) -> list[InequalityReport]:
    """Every applicable family of CORE_FAMILIES, on the exponents of one
    scan at ``tier``."""
    ep, ed = exponents_for_system(system, tier)
    exps = {
        "alpha": ep.alpha_fit,
        "beta": ep.beta_fit,
        "alpha_t": ed.alpha_fit,
        "beta_t": ed.beta_fit,
        "alpha_lower": float(ep.alpha_lower),
        "beta_lower": float(ep.beta_lower),
        "alpha_t_lower": float(ed.alpha_lower),
        "beta_t_lower": float(ed.beta_lower),
    }
    wanted = [f for f in applicable_families(system.n, system.m, exps) if f in CORE_FAMILIES]
    return [check_inequality(f, system.n, system.m, exps) for f in wanted]


def campaign_inequalities(n: int, m: int, tier: str, trials: int = 50,
                          seed: int = 0) -> CampaignResult:
    """Random generic systems (plus matching presets): every applicable
    family of CORE_FAMILIES must pass at the tolerance DEFAULT_TOL."""
    result = CampaignResult(f"inequalities_{n}x{m}")
    systems = [(p.name, p.build()) for p in PRESETS.values() if (p.n, p.m) == (n, m)]
    rng = random.Random(seed)
    for i in range(trials):
        systems.append((f"random{i}", random_system(rng, n, m)))
    for name, system in systems:
        for rep in check_all_inequalities(system, tier):
            row = {"system": name, **rep.as_dict()}
            result.record(rep.passed, row, row)
    return result


def campaign_jarnik_equality(count: int = 50) -> CampaignResult:
    """Cubic-field pairs (1x2): the uniform exponents of a system and its
    transpose, scanned to t = 10^7 and 10^10, must satisfy
    1/alpha + alpha_t = 1 within DEFAULT_TOL."""
    result = CampaignResult("jarnik_equality")
    systems = cubic_pair_family(count)
    for p in PRESETS.values():
        if (p.n, p.m) == (1, 2):
            systems.append((p.name, p.build()))
    for name, system in systems[:count]:
        ep = estimate_exponents(system, "primal", 10**7)
        ed = estimate_exponents(system, "dual", 10**10)
        resid = abs(1.0 / ep.alpha_fit + ed.alpha_fit - 1.0)
        entry = {"system": name, "alpha": ep.alpha_fit, "alpha_t": ed.alpha_fit,
                 "residual": resid}
        result.record(resid <= DEFAULT_TOL, entry, entry)
    return result


# ---------------------------------------------------------------------------
# two-point lemma suites
# ---------------------------------------------------------------------------

_SCALE_EXPONENTS = range(-4, 14)


def _witness_pair(system):
    """Two non-collinear best-approximation witnesses of a primal scan to
    t = 12, or None."""
    tab = best_approx_table(system, "primal", 12)
    ws = [rec.witness for rec in tab.records]
    for i in range(len(ws)):
        for j in range(i + 1, len(ws)):
            if gram_det((ws[i], ws[j])) != 0:
                return ws[i], ws[j]
    return None


def _ceil_log2(num: int, den: int) -> int:
    """Least integer e with num / den <= 2**e, for positive integers."""
    e = num.bit_length() - den.bit_length()  # 2**(e-1) < num / den < 2**(e+1)
    return e if num << max(-e, 0) <= den << max(e, 0) else e + 1


def _lemma_grid_conditions(system, v1, v2, constant_sq):
    """The product bound of ``main_lemma_hypothesis`` at h = 2**a, r = 2**b
    as integer conditions (u, v, e), each holding iff u*a + v*b >= e.

    A term (T, k, u, v) of ``lemma_terms``, t = T / D**k, holds iff
    t**2 / c <= 2**(u a + v b), c = constant_sq, and e is the least integer
    with t**2 / c <= 2**e.  A term with T = 0 (a witness residual or |x| of
    0) always holds and gives no condition."""
    c = Fraction(constant_sq)
    den = system.integer_form.den
    terms, _ = lemma_terms(system, v1, v2)
    return [(u, v, _ceil_log2(t * t * c.denominator, c.numerator * den ** (2 * k)))
            for t, k, u, v in terms if t != 0]


def _cheapest_lemma_params(system, v1, v2, constant_sq):
    """Smallest-volume (h, r) = (2**a, 2**b) on the exponent grid satisfying
    the product bound, the first in grid order on a tie, or None when every
    admissible pair costs more than 3 * 10**5 enumerated points.

    The grid is solved row by row: at a fixed a each condition u*a + v*b >= e
    bounds b from below (v > 0) or above (v < 0), or decides the row alone
    (v = 0).  The cost grows with b, so the least feasible b is the only
    candidate of its row, and a row replaces the best so far only when it
    is strictly cheaper, which is min()'s tie rule over the whole grid."""
    n, m = system.n, system.m
    conditions = _lemma_grid_conditions(system, v1, v2, constant_sq)
    best = None
    for a in _SCALE_EXPONENTS:
        lo, hi = _SCALE_EXPONENTS[0], _SCALE_EXPONENTS[-1]
        for u, v, e in conditions:
            k = e - u * a  # the condition is v*b >= k
            if v > 0:
                lo = max(lo, -(-k // v))
            elif v < 0:
                hi = min(hi, k // v)
            elif k > 0:
                hi = lo - 1
        if lo > hi:
            continue
        cost = (2 * 2.0**a + 1) ** n * (2 * 2.0**lo + 2) ** m
        if cost <= 3 * 10**5 and (best is None or cost < best[0]):
            best = (cost, a, lo)
    return None if best is None else (Fraction(2) ** best[1], Fraction(2) ** best[2])


def campaign_main_lemma(
    trials: int = 500, dims: Sequence[int] = (3, 4, 5), seed: int = 0
) -> CampaignResult:
    """Random admissible (v1, v2, h, r) instances: the two-point lemma must
    deliver a verified orthogonal dual point every time."""
    result = CampaignResult("main_lemma")
    rng = random.Random(seed)
    attempts = 0
    while result.trials < trials and attempts < 50 * trials:
        attempts += 1
        d = dims[attempts % len(dims)]
        n, m = _split_dims(rng, d)
        system = random_rational_system(rng, n, m, max_den=8)
        pair = _witness_pair(system)
        if pair is None:
            continue
        v1, v2 = pair
        c2 = lemma_constant_sq(d)
        params = _cheapest_lemma_params(system, v1, v2, c2)
        if params is None:
            continue
        h, r = params
        try:
            cert = main_lemma_transfer(system, v1, v2, h, r)
            ok, checks = verify_certificate(cert)
        except Exception as exc:  # noqa: BLE001
            ok, checks = False, repr(exc)
        result.record(ok, {"d": d, "n": n, "m": m, "v1": v1, "v2": v2,
                           "h": str(h), "r": str(r), "detail": str(checks)})
    return result


def campaign_main_lemma_gap(trials: int = 100, seed: int = 1) -> CampaignResult:
    """d=3 instances strictly between the general and the sharpened product
    constants: the general form must reject, the sharpened one succeed."""
    result = CampaignResult("main_lemma_gap")
    rng = random.Random(seed)
    attempts = 0
    c2_general, c2_sharp = lemma_constant_sq(3), Fraction(1, 4)
    while result.trials < trials and attempts < 100 * trials:
        attempts += 1
        n = 1 + attempts % 2
        m = 3 - n
        system = random_rational_system(rng, n, m, max_den=8)
        pair = _witness_pair(system)
        if pair is None:
            continue
        v1, v2 = pair
        params = _cheapest_lemma_params(system, v1, v2, c2_general)
        if params is None:
            continue
        h0, r0 = params
        terms, _ = lemma_terms(system, v1, v2)
        found = None
        scale = Fraction(1)
        for _ in range(60):
            scale *= Fraction(19, 20)
            h, r = h0 * scale, r0 * scale
            if not lemma_bound_holds(system, terms, h, r, c2_sharp):
                break
            if not lemma_bound_holds(system, terms, h, r, c2_general):
                found = (h, r)
                break
        if found is None:
            continue
        h, r = found
        failure = {"n": n, "m": m, "v1": v1, "v2": v2, "h": str(h), "r": str(r),
                   "general_rejected": False}
        ok = False
        try:
            main_lemma_transfer(system, v1, v2, h, r)
        except HypothesisViolated:
            failure["general_rejected"] = True
            try:
                cert = main_lemma_transfer_3d(system, v1, v2, h, r)
                ok, _ = verify_certificate(cert)
            except Exception as exc:  # noqa: BLE001
                failure["detail"] = repr(exc)
        except Exception as exc:  # noqa: BLE001
            failure["detail"] = repr(exc)
        result.record(ok, failure)
    return result


# ---------------------------------------------------------------------------
# lattice and section campaigns
# ---------------------------------------------------------------------------


def campaign_covolumes(trials: int = 500, seed: int = 0) -> CampaignResult:
    """Saturated sublattice vs. its integer orthogonal complement in
    dimension 2 to 8: squared covolumes must agree exactly."""
    result = CampaignResult("covolumes")
    rng = random.Random(seed)
    while result.trials < trials:
        d = rng.randint(2, 8)
        k = rng.randint(1, d - 1)
        vecs = [[rng.randint(-9, 9) for _ in range(d)] for _ in range(k)]
        try:
            lat = saturate(vecs)
            if lat.rank == 0 or lat.rank == d:
                continue
            perp = orthogonal_lattice(lat)
        except Exception:  # noqa: BLE001 - degenerate sample, resample
            continue
        result.record(lat.det_squared == perp.det_squared,
                      {"d": d, "basis": lat.basis, "det2": str(lat.det_squared),
                       "perp_det2": str(perp.det_squared)})
    return result


def campaign_cube_sections(trials: int = 1000, seed: int = 0) -> CampaignResult:
    """Central hyperplane sections of the cube [-1,1]^d, d = 2..8, exact on
    squares.

    The squared volume vol2(a) of the section orthogonal to a normal a lies
    in [4^(d-1), 2*4^(d-1)] (unit-ball and diagonal extremes).  The cube's
    section-dual body, |v|^2 <= 4^(1-d) vol2(v), contains in the direction
    of a the Delta_d-cube, the inclusion behind the improved Mahler constant
    Delta_d^(-1/(d-1)): 4^(d-1) Delta_d^2 |a|_2^2 <= vol2(a) |a|_inf^2; and
    the capped octahedron sum |x_i| <= 2, |x_j| <= 1:
    4^(d-1) |a|_2^2 <= vol2(a) max(|a|_1 / 2, |a|_inf)^2."""
    result = CampaignResult("cube_sections")
    rng = random.Random(seed)
    for _ in range(trials):
        d = rng.randint(2, 8)
        normal = [Fraction(rng.randint(-20, 20), rng.randint(1, 20)) for _ in range(d)]
        if all(v == 0 for v in normal):
            normal[0] = Fraction(1)
        vol2 = cube_section_volume_squared(normal)
        face = Fraction(4) ** (d - 1)
        norm2 = sum(v * v for v in normal)
        sup = max(map(abs, normal))
        octahedron = max(sum(map(abs, normal)) / 2, sup)
        ok = (face <= vol2 <= 2 * face
              and face * delta_d(d) ** 2 * norm2 <= vol2 * sup**2
              and face * norm2 <= vol2 * octahedron**2)
        result.record(ok, {"d": d, "normal": [str(v) for v in normal], "vol2": str(vol2)})
    return result


# ---------------------------------------------------------------------------
# uniform-approximability bound comparison (1x2 sharpened constants)
# ---------------------------------------------------------------------------


def _f_spec(psi: FunctionSpec) -> FunctionSpec:
    """t * psi(t) within the same family (exponent shifted by one).  The exp
    family has no such member: t c e^(g t) is not c e^((g+1) t)."""
    if psi.family == "exp":
        raise DomainError("t * psi(t) leaves the exp family")
    return FunctionSpec(psi.family, psi.coeff, psi.exponent + 1, psi.log_exponent)


# 1 + eps + delta of the classical bound, with eps = delta = 1/1000
_CLASSICAL_SLACK = 1 + Fraction(1, 1000) + Fraction(1, 1000)


def uniform_bound_comparison(psi: FunctionSpec, t):
    """Classical vs. sharpened uniform-transfer bound at truncation t.

    Branch 'i' (t*psi decreasing): classical 12(1+eps+delta)/t * psi^-(1/t)
    vs. sharpened 3/(4t) * psi^-(2/(3t)).  Branch 'ii' (t*psi increasing):
    classical 4(1+eps+delta)/f^-(t/2) vs. sharpened 2/(3 f^-(t/2)).
    """
    t = Fraction(t)
    f = _f_spec(psi)
    if not f.increasing:
        branch = "i"
        classical = exact_mul(Fraction(12) * _CLASSICAL_SLACK / t, psi.inverse_at(Fraction(1) / t))
        sharpened = exact_mul(Fraction(3, 4) / t, psi.inverse_at(Fraction(2, 3) / t))
    else:
        branch = "ii"
        finv = f.inverse_at(t / 2)
        classical = exact_div(Fraction(4) * _CLASSICAL_SLACK, finv)
        sharpened = exact_div(Fraction(2, 3), finv)
    return branch, classical, sharpened


UNIFORM_BOUND_PSIS = (
    FunctionSpec("power", Fraction(1), Fraction(-2)),
    FunctionSpec("power", Fraction(1, 2), Fraction(-3)),
    FunctionSpec("power", Fraction(1), Fraction(-3, 2)),
    FunctionSpec("power_log", Fraction(1), Fraction(-2), Fraction(-1)),
    FunctionSpec("power", Fraction(1), Fraction(-1, 2)),
    FunctionSpec("power", Fraction(1, 3), Fraction(-2, 3)),
)
UNIFORM_BOUND_GRID = (10**2, 10**3, 10**4, 10**5, 10**6)


def campaign_uniform_bounds() -> CampaignResult:
    """Grid check over UNIFORM_BOUND_PSIS and UNIFORM_BOUND_GRID: the
    sharpened bound never exceeds the classical one, and on the decreasing
    branch beats it by at least a factor of 4."""
    result = CampaignResult("uniform-bounds")
    for psi in UNIFORM_BOUND_PSIS:
        for t in UNIFORM_BOUND_GRID:
            branch, classical, sharpened = uniform_bound_comparison(psi, t)
            ok = exact_le(sharpened, classical)
            if ok and branch == "i":
                ok = exact_le(exact_mul(Fraction(4), sharpened), classical)
            entry = {"psi": psi.describe(), "t": t, "branch": branch,
                     "classical": str(classical), "sharpened": str(sharpened)}
            result.record(ok, entry, entry)
    return result
