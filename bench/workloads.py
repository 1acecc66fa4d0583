"""The benchmark's workloads: seeded inputs and the work of one item.

A workload is a list of rounds.  Every round has the same composition of
item kinds, so a run that measures whole rounds sees the same mix whatever
the seed; the seed only draws the values inside each kind.  Round ``r`` of a
seed is generated from its own random stream, so it does not depend on how
many rounds are generated.

An item returns the text of its outputs (for the digest) or raises: an
exception from the library, or ``WrongOutcome`` when the outputs are not the
known correct ones.
"""
from __future__ import annotations

import contextlib
import csv
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable


class WrongOutcome(Exception):
    """The library returned, but not the known correct outcome."""


@dataclass(frozen=True)
class Item:
    kind: str
    run: Callable[[], str]


class Library:
    """The diotrans names the workloads use, imported once."""

    def __init__(self):
        import diotrans
        from diotrans import cli, errors, functions, harness, presets, transfer
        from diotrans.geometry import System

        self.package = diotrans
        self.cli, self.harness, self.presets, self.transfer = cli, harness, presets, transfer
        self.errors, self.functions, self.System = errors, functions, System


def _stream(seed: int, workload: str, round_index: int, lane: str) -> random.Random:
    return random.Random(f"{seed}:{workload}:{round_index}:{lane}")


def _rational_theta(rng: random.Random, n: int, m: int, max_den: int):
    """Small-denominator rational entries, none an integer."""
    rows = []
    for _ in range(n):
        row = []
        for _ in range(m):
            v = Fraction(rng.randint(0, max_den), rng.randint(1, max_den))
            row.append(v if v.denominator != 1 else v + Fraction(1, 3))
        rows.append(tuple(row))
    return tuple(rows)


def _generic_theta(rng: random.Random, n: int, m: int, bits: int = 400):
    """Dyadic entries with enough bits to behave like generic reals."""
    return tuple(tuple(Fraction(rng.getrandbits(bits) | 1, 2**bits) for _ in range(m))
                 for _ in range(n))


def _certified(lib: Library, cert) -> str:
    """JSON round trip plus independent verification; returns the JSON."""
    text = cert.to_json()
    back = lib.transfer.Certificate.from_json(text)
    if back.to_json() != text:
        raise WrongOutcome("certificate changed in the JSON round trip")
    ok, checks = lib.transfer.verify_certificate(back)
    if not ok:
        failed = [name for name, passed in checks if not passed]
        raise WrongOutcome(f"certificate failed verification: {failed}")
    return text


# ---------------------------------------------------------------------------
# transfer_box: symmetric Mahler transfer plus one per-coordinate transfer per k
# ---------------------------------------------------------------------------


def transfer_box_round(lib: Library, seed: int, r: int, shared=None) -> list[Item]:
    items = []
    for d in (2, 3, 4, 5):
        rng = _stream(seed, "transfer_box", r, f"d{d}")
        m = rng.randint(1, d - 1)
        n = d - m
        system = lib.System(n, m, _rational_theta(rng, n, m, 30))
        X = 1 + Fraction(rng.randint(1, 100), 100)
        U = Fraction(float(X) ** (-m / n) * 1.01).limit_denominator(10**6)
        while X**m * U**n < 1:  # round U up until the primal box has a point
            U *= Fraction(101, 100)
        items.append(Item(f"mahler_d{d}", lambda s=system, X=X, U=U:
                          _certified(lib, lib.transfer.mahler_transfer(s, X, U))))
        for k in range(d):
            items.append(Item(f"asymmetric_d{d}", lambda s=system, X=X, U=U, k=k: _certified(
                lib, lib.transfer.mahler_transfer_asymmetric(s, X, U, k))))
    return items


# ---------------------------------------------------------------------------
# sections: two-point lemma, sharpened-constant gap, semicore, alphas core
# ---------------------------------------------------------------------------


def _lemma_system(lib: Library, rng: random.Random, n: int, m: int):
    """A random rational system whose t = 12 scan has a non-collinear pair."""
    while True:
        system = lib.System(n, m, _rational_theta(rng, n, m, 8))
        if lib.harness._witness_pair(system) is not None:
            return system


def _lemma_params(lib: Library, system, constant_sq: Fraction):
    pair = lib.harness._witness_pair(system)
    if pair is None:
        raise WrongOutcome("t = 12 scan lost its non-collinear witness pair")
    params = lib.harness._cheapest_lemma_params(system, *pair, constant_sq)
    if params is None:
        raise WrongOutcome("no admissible (h, r) on the power-of-two grid")
    return pair, params


def _lemma_item(lib: Library, system) -> str:
    d = system.d
    (v1, v2), (h, r) = _lemma_params(lib, system, Fraction(1, 2 * d * (d - 1)))
    return _certified(lib, lib.transfer.main_lemma_transfer(system, v1, v2, h, r))


def _gap_item(lib: Library, system) -> str:
    """(h, r) strictly between the general and the sharpened d = 3 constant:
    the general form must reject and the 3-D form must verify."""
    general, sharp = Fraction(1, 12), Fraction(1, 4)
    (v1, v2), (h0, r0) = _lemma_params(lib, system, general)
    hypothesis = lib.transfer.main_lemma_hypothesis
    scale, found = Fraction(1), None
    for _ in range(60):
        scale *= Fraction(19, 20)
        h, r = h0 * scale, r0 * scale
        if not hypothesis(system, v1, v2, h, r, sharp)[0]:
            break
        if not hypothesis(system, v1, v2, h, r, general)[0]:
            found = (h, r)
            break
    if found is None:
        raise WrongOutcome("no (h, r) between the two constants")
    try:
        lib.transfer.main_lemma_transfer(system, v1, v2, *found)
    except lib.errors.HypothesisViolated:
        pass
    else:
        raise WrongOutcome("general form accepted a gap instance")
    return "general-rejected\n" + _certified(
        lib, lib.transfer.main_lemma_transfer_3d(system, v1, v2, *found))


def _semicore_item(lib: Library, system, records, rng: random.Random):
    # Consecutive records i, i+1 of the preset's scan, at a sidelength that
    # puts both record witnesses in their boxes.
    i = rng.randint(0, 1)
    t = records[i + 1].t + rng.randint(0, 1)
    phi, psi = records[i].psi, records[i + 1].psi
    return Item("semicore", lambda: _certified(
        lib, lib.transfer.semicore(system, t, phi, psi, 1, budget=10**6)))


def _alphas_core_item(lib: Library, system, rng: random.Random):
    power = lib.functions.power_spec
    h = rng.randint(16, 64)
    coeff = rng.choice((Fraction(1, 100), Fraction(1, 50)))
    return Item("alphas_core", lambda: _certified(lib, lib.transfer.alphas_core(
        system, power(1, Fraction(-1, 2)), power(coeff, -2), h, budget=10**6)))


class SectionsInputs:
    """Preset inputs shared by every round of the sections workload."""

    def __init__(self, lib: Library):
        self.plastic = lib.presets.get_preset("plastic").build()
        self.records = lib.package.best_approx_table(self.plastic, "primal", 12).records


def sections_round(lib: Library, seed: int, r: int, shared: SectionsInputs) -> list[Item]:
    lemmas = []
    for rep in range(3):
        for d in (3, 4, 5):
            rng = _stream(seed, "sections", r, f"lemma{rep}d{d}")
            m = rng.randint(1, d - 1)
            system = _lemma_system(lib, rng, d - m, m)
            lemmas.append(Item(f"lemma_d{d}", lambda s=system: _lemma_item(lib, s)))
        rng = _stream(seed, "sections", r, f"gap{rep}")
        n = 1 + (r + rep) % 2
        system = _lemma_system(lib, rng, n, 3 - n)
        lemmas.append(Item("gap_d3", lambda s=system: _gap_item(lib, s)))
    rng = _stream(seed, "sections", r, "core")
    core = [_alphas_core_item(lib, shared.plastic, rng),
            _semicore_item(lib, shared.plastic, shared.records, rng)]
    # One of each kind first, so that a truncated round still has them all.
    return lemmas[:4] + core + lemmas[4:]


# ---------------------------------------------------------------------------
# exponents: estimates on both sides, inequality checks, CLI calls
# ---------------------------------------------------------------------------

SHAPES = ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1))
# Random systems differ in cost by up to 5x within a shape, so the median
# and the tail item are drawn from them.  Six per shape (36 of the round's 45
# items) keep those two steady from seed to seed, and make a round fill
# about 34 s on its own.
RANDOM_PER_SHAPE = 6
FAST_PRESETS = ("golden", "liouville", "sqrt2", "plastic", "plastic_dual")
JARNIK_PAIRS = 12
JARNIK_T = (10**4, 10**5)  # primal, dual scan depth


class Verdicts(str):
    """Item output that also names the inequality families reported violated."""

    violations: tuple = ()


def _check_exponents(lib: Library, system, ep, ed, strict: bool, extra=()) -> str:
    """Check every applicable family of the noise-robust core set (plus
    ``extra``) on the two estimates; returns estimates and verdicts as text.

    With ``strict`` a violation is a wrong outcome.  Otherwise it is
    recorded on the returned ``Verdicts``: on random systems the fast-tier
    scans are short enough that a lucky record can make a check report a
    violation that the exponents themselves do not have.
    """
    h = lib.harness
    exps = {"alpha": ep.alpha_fit, "beta": ep.beta_fit,
            "alpha_t": ed.alpha_fit, "beta_t": ed.beta_fit,
            "alpha_lower": float(ep.alpha_lower), "beta_lower": float(ep.beta_lower),
            "alpha_t_lower": float(ed.alpha_lower), "beta_t_lower": float(ed.beta_lower)}
    families = [f for f in h.applicable_families(system.n, system.m, exps)
                if f in h.CORE_FAMILIES or f in extra]
    if not families:
        raise WrongOutcome("no applicable inequality family")
    reports = [h.check_inequality(f, system.n, system.m, exps) for f in families]
    violated = tuple(rep.family for rep in reports if not rep.passed)
    if strict and violated:
        raise WrongOutcome(f"inequalities failed: {list(violated)}")
    if not ep.alpha_lower <= ep.beta_lower or not ed.alpha_lower <= ed.beta_lower:
        raise WrongOutcome("a certified uniform exponent exceeds the individual one")
    out = Verdicts(json.dumps({"primal": ep.as_dict(), "dual": ed.as_dict(),
                               "checked": families, "violated": violated}, sort_keys=True))
    out.violations = violated
    return out


def _fast_tier_item(lib: Library, system, strict: bool) -> str:
    ep, ed = lib.harness.exponents_for_system(system, "fast")
    return _check_exponents(lib, system, ep, ed, strict)


def _jarnik_item(lib: Library, system) -> str:
    est = lib.harness.estimate_exponents
    ep = est(system, "primal", JARNIK_T[0])
    ed = est(system, "dual", JARNIK_T[1])
    return _check_exponents(lib, system, ep, ed, True, extra=("jarnik_equality",))


def _cli(lib: Library, argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = lib.cli.run(argv)
    if code != 0:
        raise WrongOutcome(f"diotrans {' '.join(argv)} exited {code}: {err.getvalue()[-200:]}")
    return out.getvalue()


def _cli_best_approx(lib: Library, preset: str, t_max: int) -> str:
    """Every record the CLI prints is re-derived exactly from its witness."""
    text = _cli(lib, ["best-approx", "--preset", preset, "--t-max", str(t_max),
                      "--format", "csv"])
    system = lib.presets.get_preset(preset).build()
    rows = list(csv.DictReader(io.StringIO(text)))
    last_t, last_psi = 0, None
    for row in rows:
        t, psi = int(row["t"]), Fraction(int(row["psi_num"]), int(row["psi_den"]))
        z = [int(v) for v in row["witness"].split()]
        x, y = z[: system.m], z[system.m:]
        resid = max(abs(sum(c * xj for c, xj in zip(theta_row, x)) + yi)
                    for theta_row, yi in zip(system.theta, y))
        if max(abs(v) for v in x) != t or resid != psi:
            raise WrongOutcome(f"record at t = {t} does not match its witness")
        if t <= last_t or (last_psi is not None and psi >= last_psi) or t > t_max:
            raise WrongOutcome(f"records out of order at t = {t}")
        last_t, last_psi = t, psi
    if not rows:
        raise WrongOutcome("best-approx printed no records")
    return text


def _cli_estimate(lib: Library, preset: str, t_max: int) -> str:
    text = _cli(lib, ["estimate", "--preset", preset, "--t-max", str(t_max), "--side", "both"])
    out = json.loads(text)
    for side in ("primal", "dual"):
        est = out[side]
        if est["t_max"] != t_max or not est["alpha_fit"] <= est["beta_fit"]:
            raise WrongOutcome(f"estimate {side} side is inconsistent: {est}")
        if Fraction(est["alpha_lower"]) > Fraction(est["beta_lower"]):
            raise WrongOutcome(f"certified alpha exceeds certified beta: {est}")
    return text


class ExponentsInputs:
    """Preset systems shared by every round of the exponents workload."""

    def __init__(self, lib: Library):
        self.fast = {name: lib.presets.get_preset(name).build() for name in FAST_PRESETS}
        self.jarnik = lib.presets.cubic_pair_family(JARNIK_PAIRS)


def exponents_round(lib: Library, seed: int, r: int, shared: ExponentsInputs) -> list[Item]:
    rng = _stream(seed, "exponents", r, "cli")
    one_d = rng.choice(("golden", "sqrt2"))
    scan_t, est_t, two_d_t = rng.randint(8000, 12000), rng.randint(1500, 2500), rng.randint(150, 250)
    est_preset = rng.choice(("golden", "sqrt2", "liouville"))
    items = [
        Item("cli_best_approx_1d", lambda: _cli_best_approx(lib, one_d, scan_t)),
        Item("cli_estimate", lambda: _cli_estimate(lib, est_preset, est_t)),
    ]
    items += [Item(f"preset_{name}", lambda s=shared.fast[name]: _fast_tier_item(lib, s, True))
              for name in FAST_PRESETS[:3]]
    items.append(Item("cli_best_approx_2d", lambda: _cli_best_approx(lib, "plastic", two_d_t)))
    for n, m in SHAPES:
        for rep in range(RANDOM_PER_SHAPE):
            rng = _stream(seed, "exponents", r, f"random{n}x{m}.{rep}")
            system = lib.System(n, m, _generic_theta(rng, n, m))
            items.append(Item(f"random_{n}x{m}", lambda s=system: _fast_tier_item(lib, s, False)))
    items += [Item(f"preset_{name}", lambda s=shared.fast[name]: _fast_tier_item(lib, s, True))
              for name in FAST_PRESETS[3:]]
    rng = _stream(seed, "exponents", r, "jarnik")
    _, pair = rng.choice(shared.jarnik)
    items.append(Item("jarnik_pair", lambda: _jarnik_item(lib, pair)))
    return items


@dataclass(frozen=True)
class Workload:
    name: str
    make_shared: Callable  # lib -> shared inputs (preset builds)
    make_round: Callable  # (lib, seed, r, shared) -> list[Item]
    pool_rounds: int  # rounds generated in set-up; a longer run cycles them
    trace_rounds: int  # rounds of the traced run and of the digest


WORKLOADS = {
    w.name: w
    for w in (
        Workload("transfer_box", lambda lib: None, transfer_box_round,
                 pool_rounds=500, trace_rounds=30),
        Workload("sections", SectionsInputs, sections_round, pool_rounds=60, trace_rounds=8),
        Workload("exponents", ExponentsInputs, exponents_round, pool_rounds=2, trace_rounds=1),
    )
}
