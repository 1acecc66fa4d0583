"""End-to-end verification suite.

Each test prints a single PASS/FAIL summary line (visible even under
pytest's capture) and enforces both correctness and a wall-clock budget.
"""
import time
from fractions import Fraction

import mpmath

from diotrans.harness import (
    campaign_cube_sections,
    campaign_covolumes,
    campaign_dominions,
    campaign_inequalities,
    campaign_jarnik_equality,
    campaign_mahler,
    campaign_main_lemma,
    campaign_main_lemma_gap,
    campaign_uniform_bounds,
    estimate_exponents,
)
from diotrans.intervals import Enclosure
from diotrans.presets import get_preset
from diotrans.sectiondual import delta_bounds_ok, delta_d, improved_mahler_factor


def _summary(capsys, label, ok, elapsed, limit, detail):
    status = "PASS" if ok and elapsed < limit else "FAIL"
    line = f"[{status}] {label}: {detail}; {elapsed:.1f}s (limit {limit:.0f}s)"
    with capsys.disabled():
        print("\n" + line)
    assert ok, line
    assert elapsed < limit, line


def _delta_oracle(d: int) -> float:
    mpmath.mp.dps = 25
    val = (2 / mpmath.pi) * mpmath.quadosc(
        lambda t: (mpmath.sin(t) / t) ** d if t else mpmath.mpf(1),
        [0, mpmath.inf],
        period=2 * mpmath.pi,
    )
    return float(val)


def test_central_section_constants_table(capsys):
    oracle = {d: _delta_oracle(d) for d in range(2, 21)}  # oracle untimed
    t0 = time.perf_counter()
    values = {d: delta_d(d) for d in range(2, 21)}
    ok = values[2] == 1 and values[3] == Fraction(3, 4) and values[4] == Fraction(2, 3)
    worst = 0.0
    for d, v in values.items():
        worst = max(worst, abs(float(v) - oracle[d]))
        ok = ok and delta_bounds_ok(d)
    ok = ok and worst < 1e-9
    elapsed = time.perf_counter() - t0
    _summary(capsys, "central-section constants d=2..20", ok, elapsed, 1.0,
             f"max oracle deviation {worst:.2e}, exact sandwich bounds hold")


def test_improved_transference_factor(capsys):
    t0 = time.perf_counter()
    f3 = improved_mahler_factor(3)
    e = Enclosure.of(f3)
    ok = Fraction(115, 100) < e.lo and e.hi < Fraction(116, 100) and f3 < 2
    for d in range(10, 21):
        ok = ok and improved_mahler_factor(d) < Fraction(12, 10)
    elapsed = time.perf_counter() - t0
    _summary(capsys, "improved transference factor", ok, elapsed, 1.0,
             f"enclosure ({float(e.lo):.6f}, {float(e.hi):.6f}) in (1.15, 1.16), "
             "factors < 1.2 for d=10..20")


def test_box_transfer_campaign(capsys):
    t0 = time.perf_counter()
    result = campaign_mahler(dims=(2, 3, 4, 5), trials_per_dim=1000, seed=0)
    elapsed = time.perf_counter() - t0
    _summary(capsys, "box-transfer campaign (symmetric + per-coordinate)",
             result.all_passed, elapsed, 300.0,
             f"{result.passed}/{result.trials} certificates verified")


def test_two_point_lemma_campaigns(capsys):
    t0 = time.perf_counter()
    main = campaign_main_lemma(500, dims=(3, 4, 5), seed=0)
    gap = campaign_main_lemma_gap(100, seed=1)
    elapsed = time.perf_counter() - t0
    ok = main.all_passed and gap.all_passed and main.trials == 500 and gap.trials == 100
    _summary(capsys, "two-point lemma campaign + sharpened-constant gap",
             ok, elapsed, 120.0,
             f"main {main.passed}/{main.trials}, gap {gap.passed}/{gap.trials} "
             "(general form rejects, 3D form succeeds)")


def test_orthogonal_covolume_campaign(capsys):
    t0 = time.perf_counter()
    result = campaign_covolumes(trials=500, seed=0)
    elapsed = time.perf_counter() - t0
    _summary(capsys, "orthogonal-lattice covolume equality", result.all_passed,
             elapsed, 30.0, f"{result.passed}/{result.trials} exact equalities")


def test_exponent_reproduction(capsys):
    t0 = time.perf_counter()
    ok = True
    details = []
    for name in ("golden", "sqrt2"):
        system = get_preset(name).build()
        ep = estimate_exponents(system, "primal", 10**5)
        ed = estimate_exponents(system, "dual", 10**5)
        for est in (ep, ed):
            ok = ok and 0.95 <= est.alpha_fit <= 1.05 and 0.95 <= est.beta_fit <= 1.05
        details.append(f"{name} alpha={ep.alpha_fit:.4f}")
    eq = campaign_jarnik_equality(count=12)
    ok = ok and eq.all_passed
    worst = max(entry["residual"] for entry in eq.details)
    elapsed = time.perf_counter() - t0
    _summary(capsys, "exponent fits at desk scale", ok, elapsed, 180.0,
             ", ".join(details)
             + f"; uniform-exponent identity on {eq.trials} cubic pairs, "
             f"worst residual {worst:.3f}")


def test_inequality_and_classifier_campaigns(capsys):
    t0 = time.perf_counter()
    mix = [
        (1, 1, 40), (1, 2, 40), (2, 1, 40), (1, 3, 15), (3, 1, 15),
        (2, 2, 20), (1, 4, 5), (4, 1, 5), (2, 3, 10), (3, 2, 10),
    ]
    checks = passed = 0
    failures = []
    for n, m, trials in mix:
        r = campaign_inequalities(n, m, trials=trials, seed=0, tier="fast")
        checks += r.trials
        passed += r.passed
        failures.extend(r.failures)
    dom = campaign_dominions(trials=1000, seed=0)
    ok = passed == checks and dom.all_passed
    elapsed = time.perf_counter() - t0
    _summary(capsys, "transference inequalities on presets + 200 random systems",
             ok, elapsed, 300.0,
             f"{passed}/{checks} inequality checks at tolerance 0.1, "
             f"classifier {dom.passed}/{dom.trials}"
             + (f"; first failure {failures[0]}" if failures else ""))


def test_cube_section_volume_campaign(capsys):
    t0 = time.perf_counter()
    result = campaign_cube_sections(trials=1000, seed=0)
    elapsed = time.perf_counter() - t0
    _summary(capsys, "central cube-section volume bounds", result.all_passed,
             elapsed, 30.0,
             f"{result.passed}/{result.trials} normals with "
             "4^(d-1) <= vol^2 <= 2*4^(d-1) exactly and a section-dual body "
             "holding the Delta_d-cube and the capped octahedron")


def test_uniform_bound_comparison(capsys):
    t0 = time.perf_counter()
    result = campaign_uniform_bounds()
    elapsed = time.perf_counter() - t0
    _summary(capsys, "sharpened vs classical uniform bounds", result.all_passed,
             elapsed, 10.0,
             f"{result.passed}/{result.trials} grid points; sharpened bound "
             "always <= classical, factor >= 4 on the decreasing branch")
