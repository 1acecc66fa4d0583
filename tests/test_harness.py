import json
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from diotrans import harness
from diotrans.geometry import System
from diotrans.harness import (
    CORE_FAMILIES,
    FAMILIES,
    MAX_EXP,
    applicable_families,
    check_all_inequalities,
    check_inequality,
    campaign_dominions,
    campaign_inequalities,
    campaign_uniform_bounds,
    dominions,
    dominions_brute,
    estimate_exponents,
    laurent_bound,
    uniform_bound_comparison,
    _SCALE_EXPONENTS,
    _certify_record_exponent,
    _cheapest_lemma_params,
    _lemma_grid_conditions,
    _witness_pair,
)
from diotrans.errors import DomainError, PrecisionExhausted
from diotrans.functions import FunctionSpec
from diotrans.presets import get_preset, random_rational_system
from diotrans.transfer import main_lemma_hypothesis

# the (h, r) values of the lemma grid, built here for the reference searches
_SCALE_GRID = [Fraction(2) ** k for k in _SCALE_EXPONENTS]


# ---------------------------------------------------------------------------
# exponent estimation
# ---------------------------------------------------------------------------


def test_golden_exponents_near_one():
    system = get_preset("golden").build()
    for side in ("primal", "dual"):
        est = estimate_exponents(system, side, 10**5)
        assert abs(est.alpha_fit - 1.0) < 0.05
        assert abs(est.beta_fit - 1.0) < 0.05
        assert not est.capped


def test_sqrt2_exponents_near_one():
    system = get_preset("sqrt2").build()
    est = estimate_exponents(system, "primal", 10**5)
    assert abs(est.alpha_fit - 1.0) < 0.05 and abs(est.beta_fit - 1.0) < 0.05


def test_plastic_pair_exponents():
    # algebraic 1x2 vector: individual exponents 2 and 1/2 up to scan noise
    system = get_preset("plastic").build()
    ep = estimate_exponents(system, "primal", 3000)
    ed = estimate_exponents(system, "dual", 10**5)
    assert 1.8 < ep.beta_fit < 2.1
    assert 0.45 < ed.beta_fit < 0.56


def test_exactly_rational_direction_caps():
    system = System(1, 1, ((Fraction(1, 7),),))
    est = estimate_exponents(system, "primal", 100)
    assert est.capped
    assert est.beta_fit == float(MAX_EXP)


def test_estimate_invariants():
    rng = random.Random(3)
    from diotrans.presets import random_system

    for _ in range(5):
        system = random_system(rng, 1, 2)
        est = estimate_exponents(system, "primal", 800)
        assert est.beta_fit >= est.alpha_fit >= 0
        assert est.beta_lower >= est.alpha_lower >= 0
        # certified statements are sound, so they cannot wildly exceed the fit
        assert float(est.alpha_lower) <= est.alpha_fit + 0.5


def test_estimate_refuses_an_invalid_side():
    with pytest.raises(ValueError, match="side must be 'primal' or 'dual'"):
        estimate_exponents(get_preset("plastic").build(), "bogus", 100)


def test_certified_record_exponents_lie_on_the_64ths_grid():
    # the largest p/64 <= min(start, MAX_EXP) with psi <= t^(-p/64); the
    # walk from limit_denominator(64) returned 3/10 here
    assert _certify_record_exponent(Fraction(1, 1000), 10**4, 0.3) == Fraction(19, 64)
    assert _certify_record_exponent(Fraction(1, 1000), 10**4, 80.0) == Fraction(3, 4)
    assert _certify_record_exponent(Fraction(1, 2**10**4), 2, 80.0) == MAX_EXP
    assert _certify_record_exponent(Fraction(3, 2), 10, 1.0) == 0
    rng = random.Random(7)
    for _ in range(200):
        psi = Fraction(rng.randint(1, 10**6), rng.randint(1, 10**12))
        t = rng.randint(2, 10**5)
        start = rng.uniform(-1, 4)
        p = math.floor(64 * start)
        while p > 0 and psi.numerator**64 * t**p > psi.denominator**64:
            p -= 1
        assert _certify_record_exponent(psi, t, start) == Fraction(max(p, 0), 64)


def _certified_by_full_powers(psi, t, start):
    """The largest p/64 <= min(start, MAX_EXP) with psi_num^64 t^p <=
    psi_den^64 (0 when there is none), bisected on the full 64th powers."""
    lhs, rhs = psi.numerator**64, psi.denominator**64
    lo, hi = 0, max(0, math.floor(64 * min(start, float(MAX_EXP))))
    while lo < hi:  # p = lo holds or is 0; every p > hi fails or is out of range
        mid = (lo + hi + 1) // 2
        lo, hi = (mid, hi) if lhs * t**mid <= rhs else (lo, mid - 1)
    return Fraction(lo, 64)


def test_certified_record_exponents_at_every_magnitude():
    # 400- to 10 000-bit psi: random ones near t^-gamma, and near-ties at
    # p0/64 that the 64-bit heads of psi cannot decide
    rng = random.Random(19)
    for bits in (400, 2000, 10**4):
        for _ in range(4):
            den = rng.getrandbits(bits) | 1 << (bits - 1)
            t = rng.randint(2, 10**12)
            psi = Fraction(max(1, den >> rng.randint(0, 3 * t.bit_length())), den)
            start = rng.uniform(0, 4)
            assert _certify_record_exponent(psi, t, start) == _certified_by_full_powers(psi, t, start)
        for t in (3, 10**5, 10**12 - 11):
            # psi = num / (num t^k + e): a tie at k for e = 0, just below it
            # for e = 1 and just above it for e = -1
            k = rng.randint(1, min(50, (bits - 1) // t.bit_length()))
            num = rng.getrandbits(bits) | 1 << (bits - 1)
            for e, expected in ((0, 64 * k), (1, 64 * k), (-1, 64 * k - 1)):
                psi = Fraction(num, num * t**k + e)
                assert _certify_record_exponent(psi, t, k + 0.5) == Fraction(expected, 64)
                assert _certified_by_full_powers(psi, t, k + 0.5) == Fraction(expected, 64)


# ---------------------------------------------------------------------------
# single inequality checks on hand-picked exponents
# ---------------------------------------------------------------------------


def test_dyson_equality_point_passes():
    exps = {"alpha": 1.0, "alpha_t": 1.0, "beta": 1.0, "beta_t": 1.0}
    rep = check_inequality("dyson", 1, 1, exps)
    assert rep.passed and -0.01 <= rep.slack <= 0.11  # equality point


def test_khintchine_violated_point_fails():
    # beta_t must be at least beta/(beta+1)... a gross violation must fail
    exps = {"alpha": 1.0, "alpha_t": 1.0, "beta": 3.0, "beta_t": 0.2}
    rep = check_inequality("khintchine", 1, 2, exps)
    assert not rep.passed


def test_jarnik_equality_exact_point():
    exps = {"alpha": 2.0, "alpha_t": 0.5, "beta": 2.0, "beta_t": 0.5}
    rep = check_inequality("jarnik_equality", 1, 2, exps)
    assert rep.passed and abs(rep.slack) <= 0.1


def test_jarnik_ineq_ii_needs_two_forms():
    # one form (m = 1) has no (m - 1) denominator to divide by
    exps = {"alpha": 1.0, "alpha_t": 1.0, "beta": 1.0, "beta_t": 1.0}
    assert "jarnik_ineq_ii" not in applicable_families(1, 1, exps)
    with pytest.raises(DomainError):
        check_inequality("jarnik_ineq_ii", 1, 1, exps)


# Recorded from check_inequality before it became a table of families; the
# jarnik_ineq_ii entries at m = 1 hold the failing reports it then returned.
SNAPSHOT = Path(__file__).with_name("check_inequality_snapshot.json")
SNAPSHOT_SHAPES = ((1, 1), (1, 2), (1, 3), (2, 1), (2, 2), (3, 2))
SNAPSHOT_EXPS = {
    # certified floors, some above their fits
    "certified_floors": {"alpha": 0.8, "alpha_t": 1.3, "beta": 1.6, "beta_t": 2.2,
                         "alpha_lower": 0.85, "beta_lower": 1.5,
                         "alpha_t_lower": 1.25, "beta_t_lower": 2.3},
    "at_cap": {"alpha": 50.0, "alpha_t": 1.5, "beta": 50.0, "beta_t": 4.0},
    # the second direction of bugeaud_laurent
    "alpha_t_below_one": {"alpha": 0.9, "alpha_t": 0.6, "beta": 1.2, "beta_t": 0.8},
    # the alpha > 1 case of my_inequalities
    "alpha_above_one": {"alpha": 2.5, "alpha_t": 1.4, "beta": 3.0, "beta_t": 1.9},
}


def check_inequality_snapshot() -> dict:
    """Every family on every snapshot shape and exponent set: the report as
    a dict, or the name of the exception raised."""
    out = {}
    for exps_name, exps in SNAPSHOT_EXPS.items():
        for n, m in SNAPSHOT_SHAPES:
            for family in FAMILIES:
                try:
                    result = check_inequality(family, n, m, exps).as_dict()
                except Exception as exc:  # noqa: BLE001 - the class is the result
                    result = type(exc).__name__
                out[f"{exps_name} {n}x{m} {family}"] = result
    return out


def test_check_inequality_matches_snapshot():
    expected = json.loads(SNAPSHOT.read_text())
    actual = check_inequality_snapshot()
    assert actual.keys() == expected.keys()
    for key, want in expected.items():
        if key.endswith(" 1x1 jarnik_ineq_ii"):
            assert actual[key] == "DomainError", key
        else:
            assert actual[key] == want, key


def test_applicable_families_match_check_domains():
    for exps in SNAPSHOT_EXPS.values():
        for n, m in SNAPSHOT_SHAPES:
            raising = set()
            for family in FAMILIES:
                try:
                    check_inequality(family, n, m, exps)
                except DomainError:
                    raising.add(family)
            applicable = applicable_families(n, m, exps)
            assert set(applicable) == set(FAMILIES) - raising, (n, m, exps)
    # reports keep this order, so campaign details and verdicts stay the same
    assert applicable_families(1, 2, SNAPSHOT_EXPS["at_cap"]) == [
        "apfelbeck_i", "dyson", "my_inequalities",
        "loranoyadenie_1", "loranoyadenie_2", "loranoyadenie_3",
        "jarnik_ineq_i", "khintchine", "bugeaud_laurent",
        "jarnik_equality", "jarnik_ineq_ii", "jarnik_ineq_iii", "apfelbeck_ii",
    ]


def test_laurent_bound_exact_values():
    # k = 1 at n = 1, m = 2, beta = 2: (1*2 + 0) / (1*2 + 2) = 1/2
    assert laurent_bound(1, 1, 2, Fraction(2), Fraction(2)) == Fraction(1, 2)
    # k = 2 at alpha = 1 collapses to k = 1 shape
    assert laurent_bound(2, 1, 2, Fraction(1), Fraction(2)) == Fraction(0)
    with pytest.raises(DomainError):
        laurent_bound(4, 1, 2, Fraction(1), Fraction(1))
    # m = 1 at alpha = 1: a zero denominator under a positive numerator
    for k in (2, 3):
        exact = laurent_bound(k, 2, 1, Fraction(1), Fraction(2))
        assert type(exact) is Fraction and exact == MAX_EXP
        fitted = laurent_bound(k, 2, 1, 1.0, 2.0)
        assert type(fitted) is float and fitted == float(MAX_EXP)


def _loranoyadenie_rhs(k, n, m, alpha, beta):
    """The three bounds written out in Fractions, with MAX_EXP for a
    denominator <= 0: the reference of ``laurent_bound``'s exact arithmetic."""
    alpha, beta = Fraction(alpha), Fraction(beta)
    if k == 1:
        return Fraction(n * beta + n - 1, 1) / ((m - 1) * beta + m)
    if k == 2:
        den = (m - 1) * (1 + beta) + (1 - alpha)
        if den <= 0:
            return MAX_EXP
        return ((n - 1) * (1 + beta) - (1 - alpha)) / den
    binv = 1 / beta
    ainv = 1 / alpha
    den = (m - 1) * (1 + binv) + (ainv - 1)
    if den <= 0:
        return MAX_EXP
    return ((n - 1) * (1 + binv) - (ainv - 1)) / den


def test_laurent_bound_equals_the_written_out_bounds_on_the_classifier_domain():
    points = capped = 0
    for n in range(1, 5):
        for m in range(1, 5):
            if n == m == 1:
                continue
            lo = Fraction(m, n)
            hi = Fraction(1) if m == 1 else lo + 5
            for i in range(21):
                alpha = lo + (hi - lo) * Fraction(i, 20)
                for j in range(41):
                    beta = alpha + Fraction(j, 8)
                    for k in (1, 2, 3):
                        value = laurent_bound(k, n, m, alpha, beta)
                        assert value == _loranoyadenie_rhs(k, n, m, alpha, beta), (k, n, m)
                        points += 1
                        capped += value == MAX_EXP
    assert points == 38745 and capped > 0


def test_dominions_matches_brute_on_grid():
    for n in (1, 2, 3):
        for m in (1, 2, 3):
            if n == m == 1:
                continue
            lo = Fraction(m, n)
            hi = Fraction(1) if m == 1 else lo + 3
            for i in range(7):
                alpha = lo + (hi - lo) * Fraction(i, 7)
                for j in range(7):
                    beta = alpha + Fraction(j, 3)
                    _, winner = dominions(n, m, alpha, beta)
                    assert winner in dominions_brute(n, m, alpha, beta)


def test_dominions_reject_the_one_by_one_shape():
    # at n = m = 1 the domain is the single value alpha = 1, where bounds 2
    # and 3 read 0/0; a 1x1 system is its own transpose, so beta_t = beta
    for classify in (dominions, dominions_brute):
        with pytest.raises(DomainError):
            classify(1, 1, 1, 2)


def test_dominions_case_labels():
    assert dominions(2, 1, Fraction(1, 2), Fraction(1)) == ("i", 2)
    case, _ = dominions(1, 2, Fraction(5, 2), Fraction(5, 2))
    assert case in ("iii", "iv")
    with pytest.raises(DomainError):
        dominions(1, 2, Fraction(3), Fraction(1))  # beta < alpha


def test_campaign_dominions_smoke():
    result = campaign_dominions(trials=200, seed=5)
    assert result.all_passed


# ---------------------------------------------------------------------------
# end-to-end inequality campaigns (small smokes; full runs in acceptance)
# ---------------------------------------------------------------------------


def test_presets_pass_core_inequalities():
    for name in ("golden", "sqrt2", "plastic", "plastic_dual"):
        system = get_preset(name).build()
        reports = check_all_inequalities(system, "fast")
        assert reports and {r.family for r in reports} <= set(CORE_FAMILIES), name
        bad = [r for r in reports if not r.passed]
        assert not bad, (name, [r.as_dict() for r in bad])


def test_campaign_inequalities_smoke():
    result = campaign_inequalities(1, 1, trials=5, seed=2, tier="fast")
    assert result.all_passed, result.failures[:3]


# ---------------------------------------------------------------------------
# sharpened vs classical uniform bounds
# ---------------------------------------------------------------------------


def test_uniform_bound_decreasing_branch_factor():
    psi = FunctionSpec("power", Fraction(1), Fraction(-2))
    branch, classical, sharpened = uniform_bound_comparison(psi, 10**3)
    assert branch == "i"
    # psi^-(s) = s^(-1/2): classical ~ 12.024/t * sqrt(t), sharpened
    # 3/(4t) * sqrt(3t/2) -- ratio well above 4
    assert float(sharpened) * 4 <= float(classical)


def test_uniform_bound_increasing_branch():
    psi = FunctionSpec("power", Fraction(1), Fraction(-1, 2))
    branch, classical, sharpened = uniform_bound_comparison(psi, 10**2)
    assert branch == "ii"
    assert float(sharpened) <= float(classical)


def test_uniform_bound_comparison_rejects_the_exp_family():
    # t * c e^(g t) is not c e^((g+1) t): the exp family holds no t * psi(t)
    psi = FunctionSpec("exp", 1, Fraction(-1, 10))
    with pytest.raises(DomainError):
        uniform_bound_comparison(psi, 100)


def test_campaign_uniform_bounds_deterministic():
    r1 = campaign_uniform_bounds()
    r2 = campaign_uniform_bounds()
    assert r1.all_passed
    assert r1.to_json() == r2.to_json()


def test_cheapest_lemma_params_reads_witness_residuals_once(monkeypatch):
    rng = random.Random(3)
    found = 0
    while found < 4:
        n = rng.randint(1, 2)
        system = random_rational_system(rng, n, 3 - n, max_den=8)
        pair = _witness_pair(system)
        if pair is None:
            continue
        found += 1
        c2 = Fraction(1, 12)
        # the grid search through the public hypothesis test
        best = None
        for h in _SCALE_GRID:
            for r in _SCALE_GRID:
                cost = (2 * float(h) + 1) ** system.n * (2 * float(r) + 2) ** system.m
                if cost > 3 * 10**5 or (best and cost >= best[0]):
                    continue
                if main_lemma_hypothesis(system, *pair, h, r, c2)[0]:
                    best = (cost, h, r)
        calls = []
        original = System.primal_values
        monkeypatch.setattr(
            System, "primal_values", lambda self, z: calls.append(z) or original(self, z)
        )
        params = _cheapest_lemma_params(system, *pair, c2)
        monkeypatch.undo()
        assert params == (None if best is None else best[1:])
        assert calls == list(pair)


def _grid_scan_lemma_params(n, m, conditions):
    """The reference: the cheapest (h, r) over all 18 x 18 grid points, the
    first in grid order on a tie, or None past 3 * 10**5 points."""

    def cost(ab):
        return (2 * 2.0 ** ab[0] + 1) ** n * (2 * 2.0 ** ab[1] + 2) ** m

    grid = ((a, b) for a in _SCALE_EXPONENTS for b in _SCALE_EXPONENTS
            if cost((a, b)) <= 3 * 10**5 and all(u * a + v * b >= e for u, v, e in conditions))
    best = min(grid, key=cost, default=None)
    return None if best is None else (Fraction(2) ** best[0], Fraction(2) ** best[1])


def test_row_wise_lemma_params_equal_the_grid_scan():
    rng = random.Random(24)
    seen = {"instances": 0, "none": 0, "v<0": 0, "v=0": 0, "no_condition": 0, "n=1": 0}
    for trial in range(720):
        d = 3 + trial % 3
        n = 1 if trial % 4 == 0 else rng.randint(1, d - 1)
        system = random_rational_system(rng, n, d - n, max_den=rng.choice((8, 1000)))
        form = system.integer_form
        # x = D e_j, y = -A e_j has residual Theta x + y = 0
        j = rng.randrange(system.m)
        exact = [form.den * (i == j) for i in range(system.m)] + [-row[j] for row in form.rows]
        width = rng.choice((3, 3, 60))
        v1, v2 = ([rng.randint(-width, width) for _ in range(d)] for _ in range(2))
        kind = trial % 3
        if kind == 1 and (pair := _witness_pair(system)) is not None:
            v1, v2 = pair
        elif kind == 2:
            v2 = exact
        seen["n=1"] += n == 1
        for c2 in (Fraction(1, 2 * d * (d - 1)), Fraction(1, 12), Fraction(1, 4)):
            conditions = _lemma_grid_conditions(system, v1, v2, c2)
            params = _cheapest_lemma_params(system, v1, v2, c2)
            assert params == _grid_scan_lemma_params(n, d - n, conditions), (system, v1, v2, c2)
            seen["instances"] += 1
            seen["none"] += params is None
            seen["v<0"] += any(v < 0 for _, v, _ in conditions)
            seen["v=0"] += any(v == 0 for _, v, _ in conditions)
            seen["no_condition"] += len(conditions) < 3
    assert seen["instances"] >= 2000, seen
    assert min(seen.values()) > 0, seen


def test_row_wise_lemma_params_keep_the_first_of_tied_rows_and_exact_row_bounds(monkeypatch):
    # conditions of every shape's (u, v) with drawn e: ties between rows at
    # the least cost (n = m) and rows emptied by a bound of a negative v
    # occur here far more often than on real witness pairs
    rng = random.Random(5)
    ties = found = 0
    for trial in range(3000):
        d = 3 + trial % 3
        n = rng.randint(1, d - 1)
        m = d - n
        terms = [(2 * n, 2 * m - 4), (2 * n - 4, 2 * m), (2 * n - 2, 2 * m - 2)]
        conditions = [(u, v, rng.randint(-40, 30)) for u, v in terms if rng.random() < 0.85]
        monkeypatch.setattr(harness, "_lemma_grid_conditions", lambda *_: conditions)
        system = System(n, m, [[Fraction(1, 3)] * m] * n)
        expected = _grid_scan_lemma_params(n, m, conditions)
        assert _cheapest_lemma_params(system, None, None, Fraction(1, 4)) == expected, (n, conditions)
        if expected is not None:
            found += 1
            a, b = (e.numerator.bit_length() - e.denominator.bit_length() for e in expected)
            cost = (2 * 2.0**a + 1) ** n * (2 * 2.0**b + 2) ** m
            ties += any((2 * 2.0**x + 1) ** n * (2 * 2.0**y + 2) ** m == cost and (x, y) > (a, b)
                        and all(u * x + v * y >= e for u, v, e in conditions)
                        for x in _SCALE_EXPONENTS for y in _SCALE_EXPONENTS)
    assert found > 1000 and ties > 0


def test_gap_campaign_reads_the_terms_once_an_instance(monkeypatch):
    calls = {"terms": 0, "params": 0, "found": 0}
    terms, params = harness.lemma_terms, harness._cheapest_lemma_params

    def counted_terms(*args):
        calls["terms"] += 1
        return terms(*args)

    def counted_params(*args):
        calls["params"] += 1
        found = params(*args)
        calls["found"] += found is not None
        return found

    monkeypatch.setattr(harness, "lemma_terms", counted_terms)
    monkeypatch.setattr(harness, "_cheapest_lemma_params", counted_params)
    result = harness.campaign_main_lemma_gap(12, seed=3)
    assert result.all_passed and result.trials == 12
    # once in the grid conditions, and once more for the scaling steps
    assert calls["terms"] == calls["params"] + calls["found"]


def test_gap_campaign_records_why_the_sharpened_transfer_raised(monkeypatch):
    def raising(*args):
        raise PrecisionExhausted("no point")

    monkeypatch.setattr(harness, "main_lemma_transfer_3d", raising)
    result = harness.campaign_main_lemma_gap(3, seed=1)
    assert result.passed == 0 and len(result.failures) == 3
    for row in result.failures:
        assert row["general_rejected"] is True
        assert row["detail"] == "PrecisionExhausted('no point')"


def test_lemma_grid_conditions_decide_the_product_bound():
    rng = random.Random(11)
    zero_residuals = 0
    verdicts = set()
    for trial in range(45):
        d = 3 + trial % 3
        n = rng.randint(1, d - 1)
        system = random_rational_system(rng, n, d - n, max_den=8)
        form = system.integer_form

        def small():
            return [rng.randint(-3, 3) for _ in range(d)]

        # x = D e_j, y = -A e_j has residual Theta x + y = 0
        j = rng.randrange(system.m)
        exact = [form.den * (i == j) for i in range(system.m)] + [-row[j] for row in form.rows]
        v1 = small()
        v2 = exact if trial % 2 else small()
        if trial % 5 == 0:
            v1, v2 = exact, exact
        zero_residuals += system.primal_values(v2)[1] == 0
        for c2 in (Fraction(1, 2 * d * (d - 1)), Fraction(1, 12), Fraction(1, 4)):
            conditions = _lemma_grid_conditions(system, v1, v2, c2)
            for a, h in zip(_SCALE_EXPONENTS, _SCALE_GRID):
                for b, r in zip(_SCALE_EXPONENTS, _SCALE_GRID):
                    verdict = all(u * a + v * b >= e for u, v, e in conditions)
                    assert verdict == main_lemma_hypothesis(system, v1, v2, h, r, c2)[0]
                    verdicts.add(verdict)
    assert zero_residuals >= 20 and verdicts == {True, False}
