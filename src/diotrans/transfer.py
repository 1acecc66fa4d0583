"""Constructive transference operations with machine-checkable certificates.

Each operation takes exact inputs, checks its hypothesis pessimistically,
derives the guaranteed target parallelepiped, finds a nonzero integer point
in it by an exact box walk (``geometry.least_point``), and returns a
``Certificate`` recording inputs, parameters, the witness and the target.
A condition that fails during a construction raises.  A certificate can be
serialized to JSON and re-verified independently with plain rational
arithmetic (``verify_certificate``).
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Optional, Sequence

from .errors import (
    BudgetExceeded,
    HypothesisViolated,
    NonCollinearRequired,
    NoWitnesses,
    Only3D,
    OnlyDimAtLeast3,
    PrecisionExhausted,
)
from .exactlinalg import gram_det
from .functions import FunctionSpec
from .geometry import DEFAULT_ENUM_BUDGET, Box, System, _walk, in_box, least_point
from .intervals import Enclosure
from .radicals import (
    Radical, exact_div, exact_eq, exact_le, exact_lt, exact_max, exact_mul, exact_pow,
)
from .sectiondual import delta_d, improved_mahler_factor


# ---------------------------------------------------------------------------
# exact-value plumbing
# ---------------------------------------------------------------------------


def _rat_lower(value, floor_at) -> Fraction:
    """A rational lower bound of an exact/enclosed positive value, at least
    ``floor_at`` (a rational known to be <= value, or <= its enclosure's lo).

    The found witness gives floor_at, so conservative target boxes never
    exclude it.
    """
    return max(floor_at, Enclosure.of(value).lo)


def _fmt(value) -> str:
    if isinstance(value, Enclosure):
        return f"[{value.lo}, {value.hi}]"
    if isinstance(value, Radical):
        if value.index == 1:
            return str(value.radicand)
        return f"({value.radicand})^(1/{value.index})"
    return str(Fraction(value))


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


@dataclass
class Certificate:
    """A re-checkable record of one constructive transference step."""

    kind: str
    n: int
    m: int
    theta: tuple
    params: dict
    inputs: dict
    output_point: tuple
    target: dict  # side + rational bound strings (scalar or per-coordinate)

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "n": self.n,
            "m": self.m,
            "theta": [[str(v) for v in row] for row in self.theta],
            "params": self.params,
            "inputs": {k: list(v) for k, v in self.inputs.items()},
            "output_point": list(self.output_point),
            "target": self.target,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        """The certificate ``to_dict`` wrote.  A missing field raises KeyError;
        a field of the wrong type or value TypeError or ValueError.  Other
        keys, such as the ``checks`` list of older certificates, are ignored."""
        n, m = data["n"], data["m"]
        if type(n) is not int or type(m) is not int:
            raise ValueError(f"n and m must be integers, not {n!r} and {m!r}")
        return Certificate(
            kind=data["kind"],
            n=n,
            m=m,
            theta=tuple(tuple(_rational(v) for v in row) for row in data["theta"]),
            params=dict(data["params"]),
            inputs={k: _integer_vector(v) for k, v in data["inputs"].items()},
            output_point=_integer_vector(data["output_point"]),
            target=_checked_target(dict(data["target"]), n, m),
        )

    @staticmethod
    def from_json(text: str) -> "Certificate":
        return Certificate.from_dict(json.loads(text))


def _rational(v) -> Fraction:
    """A theta entry or target bound as ``to_dict`` writes it: a JSON integer
    or a string p or p/q, not a float, a boolean, "0.5" or "1e9"."""
    if type(v) is not int and not (type(v) is str and set(v) <= set("-/0123456789")):
        raise ValueError(f"rationals must be integers or strings p/q, not {v!r}")
    return Fraction(v)


def _integer_vector(v) -> tuple:
    if not isinstance(v, list) or not all(type(a) is int for a in v):
        raise ValueError(f"vectors must be lists of integers, not {v!r}")
    return tuple(v)


def _checked_target(target: dict, n: int, m: int) -> dict:
    """``target`` itself, once it names a side and rational bounds: scalars
    h and r, or n per-coordinate hbounds and m rbounds."""
    if target.get("side") not in ("primal", "dual"):
        raise ValueError(f"target side must be 'primal' or 'dual', not {target.get('side')!r}")
    bounds = _target_bounds(target, n, m)
    if not all(isinstance(b, list) for b in bounds) or list(map(len, bounds)) != [n, m]:
        raise ValueError(f"target hbounds and rbounds must be lists of {n} and {m} bounds")
    for value in bounds[0] + bounds[1]:
        _rational(value)
    return target


def _target_bounds(target: dict, n: int, m: int) -> tuple:
    """(hbounds, rbounds) of a target as written: scalar h and r repeated."""
    if "h" in target:
        return [target["h"]] * n, [target["r"]] * m
    return target["hbounds"], target["rbounds"]


def verify_certificate(cert: Certificate) -> tuple[bool, list]:
    """Re-verify a certificate from scratch with rational arithmetic only."""
    results = []
    system = System(cert.n, cert.m, cert.theta)
    z = cert.output_point
    fits = len(z) == system.d  # a vector of another length fails every check on it
    results.append(("output_nonzero", any(v != 0 for v in z)))
    results.append(("output_dimension", fits))
    bounds = _target_bounds(cert.target, cert.n, cert.m)
    hbounds, rbounds = ([Fraction(v) for v in b] for b in bounds)
    results.append(("output_in_target_box",
                    fits and in_box(system, cert.target["side"], z, hbounds, rbounds)))
    for key in ("v1", "v2"):
        if key in cert.inputs:
            v = cert.inputs[key]
            dot = sum(int(a) * int(b) for a, b in zip(v, z))
            results.append((f"orthogonal_to_{key}", fits and len(v) == system.d and dot == 0))
    if "v1" in cert.inputs and "v2" in cert.inputs:
        v1, v2 = cert.inputs["v1"], cert.inputs["v2"]
        results.append(("inputs_non_collinear", len(v1) == len(v2) == system.d
                        and gram_det((v1, v2)) != 0))
    return all(ok for _, ok in results), results


# ---------------------------------------------------------------------------
# improved Mahler transference
# ---------------------------------------------------------------------------


def _base_radii(system: System, X, U):
    """X^(m/(d-1)) U^((1-m)/(d-1)) and X^((1-n)/(d-1)) U^(n/(d-1)): the radii
    of the dual box that M_{U,X} transfers to, before the box's factor."""
    n, m, d = system.n, system.m, system.d
    return (exact_mul(exact_pow(X, Fraction(m, d - 1)), exact_pow(U, Fraction(1 - m, d - 1))),
            exact_mul(exact_pow(X, Fraction(1 - n, d - 1)), exact_pow(U, Fraction(n, d - 1))))


def transference_parameters(system: System, X, U):
    """(Y, V) for the sharpened dual box, exact radicals for rational X, U."""
    factor = improved_mahler_factor(system.d)
    return tuple(exact_mul(factor, b) for b in _base_radii(system, X, U))


def _mahler_witness(system: System, X, U, kind: str, budget) -> Certificate:
    """A ``kind`` certificate whose witness is the least nonzero point of
    M_{U,X}."""
    witness = least_point(system, "primal", *Box(system, U, X, "primal").bounds(), budget=budget)
    if witness is None:
        raise NoWitnesses("primal box contains no nonzero integer point")
    return Certificate(
        kind=kind,
        n=system.n,
        m=system.m,
        theta=system.theta,
        params={"X": _fmt(X), "U": _fmt(U)},
        inputs={"witness": witness},
        output_point=(),
        target={},
    )


def mahler_transfer(system: System, X, U, budget: int = DEFAULT_ENUM_BUDGET) -> Certificate:
    """From the least point of M_{U,X} to a point in the sharpened dual box.

    The dual parameters shrink the classical factor d-1 down to
    Delta_d**(-1/(d-1)).
    """
    cert = _mahler_witness(system, X, U, "mahler", budget)
    Y, V = transference_parameters(system, X, U)
    cert.params.update({"Y": _fmt(Y), "V": _fmt(V)})
    h_lo, r_lo = _land_in_dual_box(cert, system, *Box(system, Y, V, "dual").bounds(), None, budget)
    cert.target = {"side": "dual", "h": str(max(h_lo)), "r": str(max(r_lo))}
    return cert


def _land_in_dual_box(cert, system, hbounds, rbounds, accept, budget) -> tuple:
    """Set ``cert``'s output to the first accepted point of the walk, y before
    x, of the dual box with these per-coordinate bounds.  Returns rational
    lower bounds of the bounds, each at least the point's own value on that
    coordinate, as (hbounds, rbounds)."""
    out = least_point(system, "dual", hbounds, rbounds, accept=accept, budget=budget)
    if out is None:
        raise PrecisionExhausted("guaranteed dual box holds no accepted point")
    yvals = [Fraction(abs(v)) for v in system.split(out)[1]]
    rvals = [Fraction(abs(v), system.integer_form.den) for v in system.dual_numerators(out)]
    h_lo = [_rat_lower(b, floor_at=v) for b, v in zip(hbounds, yvals)]
    r_lo = [_rat_lower(b, floor_at=v) for b, v in zip(rbounds, rvals)]
    cert.output_point = out
    return h_lo, r_lo


def mahler_transfer_asymmetric(
    system: System,
    X,
    U,
    k: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Certificate:
    """Classical bilinear-form variant: the dual box carries the factor d-1
    on exactly one coordinate k (0-based over the d dual constraints) and 1
    on the others, with no Delta_d gain.
    """
    n, m, d = system.n, system.m, system.d
    if not 0 <= k < d:
        raise ValueError(f"k must be in [0, {d})")
    cert = _mahler_witness(system, X, U, "mahler_asymmetric", budget)
    ybase, vbase = _base_radii(system, X, U)
    cert.params.update({"k": str(k), "Y_base": _fmt(ybase), "V_base": _fmt(vbase)})
    # Constraint order: j = 0..m-1 are the r-side forms, then i = 0..n-1 the
    # h-side coordinates.
    bounds = [exact_mul(Fraction(d - 1) if j == k else Fraction(1), base)
              for j, base in enumerate([vbase] * m + [ybase] * n)]
    h_lo, r_lo = _land_in_dual_box(cert, system, bounds[m:], bounds[:m], None, budget)
    cert.target = {"side": "dual", "hbounds": list(map(str, h_lo)),
                   "rbounds": list(map(str, r_lo))}
    return cert


# ---------------------------------------------------------------------------
# the main lemma
# ---------------------------------------------------------------------------


def main_lemma_hypothesis(system: System, v1, v2, h, r, constant_sq: Fraction):
    """(holds, details) for max(r^2 r1 r2, h^2 h1 h2, h r max max) <= h^n r^m * const.

    ``constant_sq`` is the square of the constant multiplying h^n r^m
    (1/(2d(d-1)) in general, 1/4 in the sharpened 3D form); the comparison
    is done on squares so everything stays rational/radical-exact.
    """
    r1, h1 = system.primal_values(v1)
    r2, h2 = system.primal_values(v2)
    lhs = exact_max(
        exact_mul(exact_mul(exact_pow(r, 2), r1), r2),
        exact_max(
            exact_mul(exact_mul(exact_pow(h, 2), h1), h2),
            exact_mul(exact_mul(exact_mul(h, r), max(r1, r2)), max(h1, h2)),
        ),
    )
    rhs_sq = exact_mul(
        exact_mul(exact_pow(h, 2 * system.n), exact_pow(r, 2 * system.m)), constant_sq
    )
    holds = exact_le(exact_mul(lhs, lhs), rhs_sq)
    return holds, {"h1": h1, "r1": r1, "h2": h2, "r2": r2}


def main_lemma_transfer(
    system: System,
    v1: Sequence[int],
    v2: Sequence[int],
    h,
    r,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Certificate:
    """Two-point section lemma: from non-collinear v1, v2 with small products
    to a nonzero integer point of the dual box orthogonal to both.
    """
    d = system.d
    return _main_lemma(system, v1, v2, h, r, Fraction(1, 2 * d * (d - 1)), budget)


def main_lemma_transfer_3d(
    system: System,
    v1: Sequence[int],
    v2: Sequence[int],
    h,
    r,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Certificate:
    """d=3 sharpening: the product bound constant improves from 1/(2*sqrt(3))
    to 1/2, admitting strictly more inputs."""
    if system.d != 3:
        raise Only3D("the sharpened constant is specific to d = 3")
    cert = _main_lemma(system, v1, v2, h, r, Fraction(1, 4), budget)
    cert.kind = "lemma3d"
    return cert


def _main_lemma(system, v1, v2, h, r, constant_sq, budget) -> Certificate:
    """The two-point lemma with the product constant squared ``constant_sq``."""
    v1, v2 = (x + y for x, y in map(system.split, (v1, v2)))  # ValueError unless d long
    if gram_det((v1, v2)) == 0:
        raise NonCollinearRequired("v1 and v2 are collinear")
    if not (exact_lt(0, h) and exact_lt(0, r)):
        raise HypothesisViolated("the lemma needs h > 0 and r > 0")
    ok, vals = main_lemma_hypothesis(system, v1, v2, h, r, constant_sq)
    if not ok:
        raise HypothesisViolated("product bound fails for (v1, v2, h, r)")

    cert = Certificate(
        kind="main_lemma",
        n=system.n,
        m=system.m,
        theta=system.theta,
        params={
            "h": _fmt(h),
            "r": _fmt(r),
            "constant_sq": str(constant_sq),
            **{key: _fmt(val) for key, val in vals.items()},
        },
        inputs={"v1": v1, "v2": v2},
        output_point=(),
        target={},
    )

    def orthogonal(z):
        return sum(map(mul, z, v1)) == 0 and sum(map(mul, z, v2)) == 0

    h_lo, r_lo = _land_in_dual_box(cert, system, *Box(system, h, r, "dual").bounds(), orthogonal,
                                   budget)
    cert.target = {"side": "dual", "h": str(max(h_lo)), "r": str(max(r_lo))}
    return cert


# ---------------------------------------------------------------------------
# semicore operations
# ---------------------------------------------------------------------------


def semicore_parameters(system: System, t, Phi, Psi, direction: int):
    """(h, r) radicals for the two-witness step; c = sqrt(2d(d-1))."""
    n, m, d = system.n, system.m, system.d
    if d < 3:
        raise OnlyDimAtLeast3("the 1/(d-2) exponent needs d >= 3")
    c = Radical(2 * d * (d - 1), 2)
    t, Phi, Psi = Radical.of(t), Radical.of(Phi), Radical.of(Psi)
    e = Fraction(1, d - 2)
    if direction == 1:
        h = exact_pow(c * t ** Fraction(m) * Phi * Psi ** Fraction(1 - m), e)
        r = exact_pow(c * t ** Fraction(2 - n) * Phi * Psi ** Fraction(n - 1), e)
    elif direction == -1:
        h = exact_pow(c * t ** Fraction(2 - m) * Phi * Psi ** Fraction(m - 1), e)
        r = exact_pow(c * t ** Fraction(n) * Phi * Psi ** Fraction(1 - n), e)
    else:
        raise ValueError("direction must be 1 or -1")
    return h, r


def _semicore_witnesses(system, wide, narrow, budget):
    """v2, the least point of the narrow box, and v1, the least point of the
    wide box not collinear with v2.  Only the first narrow point matters:
    ``semicore`` checks Psi <= Phi, so narrow is inside wide, and if every
    wide point is collinear with v2, so is every narrow point."""
    v2 = least_point(system, "primal", *narrow.bounds(), budget=budget)
    if v2 is None:
        raise NoWitnesses("no nonzero point in the narrow box")
    v1 = least_point(system, "primal", *wide.bounds(),
                     accept=lambda z: gram_det((z, v2)) != 0, budget=budget)
    if v1 is None:
        raise NoWitnesses("all points of the wide box are collinear with the narrow one")
    return v1, v2


def semicore(
    system: System,
    t,
    Phi,
    Psi,
    direction: int,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Certificate:
    """Two-witness transference: v1 in the Phi-box and v2 in the Psi-box of
    common sidelength t (``_semicore_witnesses``) yield a point of the dual
    (h, r)-box, with h, r carrying the 1/(d-2) exponents.
    """
    if not exact_le(Psi, Phi):
        raise HypothesisViolated("requires Phi >= Psi")
    if not exact_lt(0, Psi):
        raise HypothesisViolated("requires Psi > 0")
    h, r = semicore_parameters(system, t, Phi, Psi, direction)
    if direction == 1:
        wide, narrow = Box(system, Phi, t, "primal"), Box(system, Psi, t, "primal")
    else:
        wide, narrow = Box(system, t, Phi, "primal"), Box(system, t, Psi, "primal")
    v1, v2 = _semicore_witnesses(system, wide, narrow, budget)
    cert = main_lemma_transfer(system, v1, v2, h, r, budget=budget)
    cert.kind = "semicore1" if direction == 1 else "semicore2"
    cert.params.update({"t": _fmt(t), "Phi": _fmt(Phi), "Psi": _fmt(Psi),
                        "direction": str(direction)})
    return cert


# ---------------------------------------------------------------------------
# the uniform-exponent core
# ---------------------------------------------------------------------------


def core_parameters(system: System, phi: FunctionSpec, h):
    """r = phi(h), h* = Delta_d r^m h^{n-1}, r* = Delta_d r^{m-1} h^n."""
    n, m, d = system.n, system.m, system.d
    delta = delta_d(d)
    r = phi.value(h)
    h_star = exact_mul(exact_mul(exact_pow(r, m), exact_pow(h, n - 1)), delta)
    r_star = exact_mul(exact_mul(exact_pow(r, m - 1), exact_pow(h, n)), delta)
    return r, h_star, r_star


def core_hypothesis_ok(system: System, phi: FunctionSpec, psi: FunctionSpec, t) -> Optional[int]:
    """Which growth condition holds at t: 1, 2, or None.

    Condition 1: t*psi(t) non-increasing and
    psi(Delta t^n phi(t)^{m-1}) <= 1/(c Delta t).
    Condition 2: t*psi(t) non-decreasing and
    psi^-(Delta t^{n-1} phi(t)^m) <= 1/(c Delta phi(t)).
    Monotonicity of t*psi(t) is decided from the family shape.
    """
    d = system.d
    c_delta = exact_mul(Radical(2 * d * (d - 1), 2), delta_d(d))
    # The core parameters at h = t are phi(t) and the two arguments of psi.
    phit, arg2, arg1 = core_parameters(system, phi, t)
    noninc, nondec = _t_times_monotonicity(psi)
    if noninc and exact_le(psi.value(arg1), exact_div(1, exact_mul(c_delta, t))):
        return 1
    if nondec and exact_le(psi.inverse_at(arg2), exact_div(1, exact_mul(c_delta, phit))):
        return 2
    return None


def _t_times_monotonicity(psi: FunctionSpec) -> tuple[bool, bool]:
    """(non-increasing, non-decreasing) of t * psi(t), eventually in t."""
    if psi.family == "power":
        return psi.exponent <= -1, psi.exponent >= -1
    if psi.family == "exp":
        return psi.exponent < 0, psi.exponent > 0
    # power_log: t^{1+g} (ln t)^b; the power factor dominates unless g == -1.
    if psi.exponent != -1:
        return psi.exponent < -1, psi.exponent > -1
    return psi.log_exponent <= 0, psi.log_exponent >= 0


def _least_dilation(system, box_at, key, admissible, budget):
    """The admissible nonzero point of least key, with that key.

    ``key`` and ``admissible`` take the point's (r-value, h-value), and
    ``box_at(mult)`` must hold every point of key <= mult.  mult doubles
    from 2 until the box's least admissible key is <= mult; that minimum is
    then global, since every point outside has key > mult.  The primal walk
    yields each box's points lexicographically without listing them, and a
    candidate replaces the incumbent only when its key is surely smaller, so
    ties keep the first point.  On exact keys that is the exact minimum; on
    enclosed keys (z and -z always tie) it never raises, and the key is
    minimal up to the enclosure width.
    """
    mult = 2
    while True:
        best, best_pt = None, None
        for z in _walk(system, "primal", *box_at(mult).bounds(), budget):
            rv, hv = system.primal_values(z)
            if admissible(rv, hv):
                k = key(rv, hv)
                if best is None or (exact_le(k, best) and not exact_eq(k, best)):
                    best, best_pt = k, z
        if best_pt is not None and exact_le(best, mult):
            return best, best_pt
        mult *= 2
        if mult > 2**20:
            raise BudgetExceeded("dilation search exceeded 2^20")


def alphas_core(
    system: System,
    phi: FunctionSpec,
    psi: FunctionSpec,
    h,
    budget: int = DEFAULT_ENUM_BUDGET,
) -> Certificate:
    """The uniform-exponent core procedure.

    Route 1 (box already populated): M_{h*,r*} has a nonzero point, so the
    improved Mahler step with X = r*, U = h* lands exactly on the dual
    (h, r)-box.  Route 2 (dilation): find the minimal dilation mu of
    (h*, r*) containing a point, classify it, find the companion point at
    the secondary minimal dilation, check lambda_1 lambda_2 <=
    r^{m-1} h^{n-1} / c, and finish through the section lemma.  With an
    enclosed phi or psi, mu and mu' are minimal up to the enclosure width
    (see ``_least_dilation``); the certificate stays sound, since the
    lambda bound and the lemma hypothesis are checked with ``exact_le``.
    """
    n, m, d = system.n, system.m, system.d
    c = Radical(2 * d * (d - 1), 2)
    r, h_star, r_star = core_parameters(system, phi, h)

    # Hypothesis: one of the growth conditions must hold on the interval
    # [r*, max(r*, psi^-(h*))]; for power data the ratio of the two sides is
    # monotone in t, so endpoint checks decide the whole interval.
    psi_inv = psi.inverse_at(h_star)
    t_hi = psi_inv if exact_le(r_star, psi_inv) else r_star
    cond_lo = core_hypothesis_ok(system, phi, psi, r_star)
    cond_hi = core_hypothesis_ok(system, phi, psi, t_hi)
    if cond_lo is None or cond_hi is None or cond_lo != cond_hi:
        raise HypothesisViolated("no growth condition holds across the interval")

    params = {
        "h": _fmt(h),
        "r": _fmt(r),
        "h_star": _fmt(h_star),
        "r_star": _fmt(r_star),
        "phi": phi.describe(),
        "psi": psi.describe(),
        "condition": str(cond_lo),
    }

    try:
        cert = mahler_transfer(system, r_star, h_star, budget=budget)
    except NoWitnesses:
        pass  # M_{h*, r*} is empty: take the dilation route
    else:
        # transference_parameters(system, r_star, h_star) is (h, r) identically,
        # so the Mahler route lands on the dual (h, r)-box.
        cert.kind = "alphas_core"
        cert.params.update(params)
        cert.params["route"] = "mahler"
        return cert

    def box(h_mult, r_mult):
        return Box(system, exact_mul(h_star, h_mult), exact_mul(r_star, r_mult), "primal")

    # mu: the first successive minimum of the box M_{h*, r*}
    mu, v = _least_dilation(
        system, lambda mult: box(mult, mult),
        lambda rv, hv: exact_max(exact_div(hv, h_star), exact_div(rv, r_star)),
        lambda rv, hv: True, budget)
    rv, hv = system.primal_values(v)
    # v is a "v1" when its r-side is small relative to its h-side.  The
    # companion is the least dilation of the other side over the points
    # whose side of v stays surely below mu times its bound.
    if exact_le(rv, exact_mul(exact_div(h, r), hv)):
        v1, below = v, exact_mul(mu, h_star)
        mu2, v2 = _least_dilation(
            system, lambda mult: box(mu, mult), lambda rv, hv: exact_div(rv, r_star),
            lambda rv, hv: exact_le(hv, below) and not exact_eq(hv, below), budget)
    else:
        v2, below = v, exact_mul(mu, r_star)
        mu2, v1 = _least_dilation(
            system, lambda mult: box(mult, mu), lambda rv, hv: exact_div(hv, h_star),
            lambda rv, hv: exact_le(rv, below) and not exact_eq(rv, below), budget)
    _, lam1 = system.primal_values(v1)
    lam2, _ = system.primal_values(v2)
    lam_bound = exact_div(
        exact_mul(exact_pow(r, m - 1), exact_pow(h, n - 1)), c
    )
    if not exact_le(exact_mul(lam1, lam2), lam_bound):
        raise HypothesisViolated("lambda_1 lambda_2 exceeds r^{m-1} h^{n-1} / c")

    params.update({"route": "dilation", "mu": _fmt(mu), "mu_prime": _fmt(mu2),
                   "lambda1": _fmt(lam1), "lambda2": _fmt(lam2)})
    cert = main_lemma_transfer(system, v1, v2, h, r, budget=budget)
    cert.kind = "alphas_core"
    cert.params.update(params)
    return cert
