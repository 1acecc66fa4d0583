import json
import math
import os
import random
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import diotrans
from diotrans import exactlinalg, geometry
from diotrans.errors import BudgetExceeded
from diotrans.exactlinalg import gram_det, lll_reduce
from diotrans.geometry import (
    Box,
    System,
    best_approx_table,
    box_contains,
    enumerate_nonzero,
    enumerate_nonzero_general,
    in_box,
    least_multiple,
    least_point,
)
from diotrans.intervals import Enclosure
from diotrans.harness import t_max_for
from diotrans.presets import PRESETS, get_preset, random_system
from diotrans.radicals import Radical, floor_within


def _fib(k):
    a, b = 0, 1
    for _ in range(k):
        a, b = b, a + b
    return a


def test_zero_theta_box_has_eight_points():
    system = System(1, 1, ((Fraction(0),),))
    box = Box(system, 1, 1, "primal")
    pts = enumerate_nonzero(box)
    assert len(pts) == 8  # all nonzero (x, y) with |x|, |y| <= 1


def test_box_membership_is_a_bool_that_reads_enclosures_at_their_lower_end():
    system = System(1, 1, ((Fraction(1, 2),),))
    box = Box(system, Fraction(1, 4), 2, "primal")
    assert box_contains(box, (2, -1)) is True  # |2*(1/2) - 1| = 0
    assert box_contains(box, (1, 0)) is False  # residual 1/2 > 1/4
    enclosed = Box(system, Enclosure(Fraction(1, 4), Fraction(3, 4)), 2, "primal")
    assert box_contains(enclosed, (2, -1)) is True
    assert box_contains(enclosed, (1, 0)) is False  # 1/4 < 1/2 <= 3/4: not surely inside


def test_golden_records_are_fibonacci_denominators():
    system = get_preset("golden").build()
    table = best_approx_table(system, "primal", 150)
    ts = [rec.t for rec in table.records]
    fibs = {_fib(k) for k in range(2, 13)}
    assert set(ts[1:]) <= fibs  # every improvement happens at a Fibonacci t
    assert 144 in ts
    # psi is non-increasing along the table and positive
    psis = [rec.psi for rec in table.records]
    assert all(a > b for a, b in zip(psis, psis[1:]))


def test_golden_convergent_quality():
    # |F_11 * theta - F_10| at t = 89 is about theta^11 / ... < 1/144
    system = get_preset("golden").build()
    table = best_approx_table(system, "primal", 10**4)
    psi89 = [rec.psi for rec in table.records if rec.t <= 89][-1]
    assert psi89 < Fraction(1, 144)


def test_witnesses_achieve_recorded_psi():
    system = get_preset("plastic").build()
    table = best_approx_table(system, "primal", 500)
    for rec in table.records:
        xinf, resid = system.primal_values(rec.witness)
        assert xinf <= rec.t
        assert resid == rec.psi


def test_dual_table_matches_transposed_primal():
    system = get_preset("plastic").build()
    t1 = best_approx_table(system, "dual", 300)
    t2 = best_approx_table(system.transposed(), "primal", 300)
    assert [(r.t, r.psi) for r in t1.records] == [(r.t, r.psi) for r in t2.records]


def test_table_serialization_roundtrip():
    system = get_preset("sqrt2").build()
    table = best_approx_table(system, "primal", 100)
    rows = table.to_rows()
    assert rows[0].keys() == {"t", "psi_num", "psi_den", "witness"}
    csv_text = table.to_csv()
    assert csv_text.splitlines()[0] == "t,psi_num,psi_den,witness"
    assert '"records"' in table.to_json()


@pytest.mark.parametrize("z", [(1, 2), (1, 2, 3, 4), ()])
def test_vectors_of_the_wrong_length_are_rejected(z):
    system = get_preset("plastic").build()  # d = 3
    message = f"expected d = 3 coordinates, got {len(z)}"
    for method in (system.split, system.primal_values, system.dual_values,
                   system.primal_numerators, system.dual_numerators):
        with pytest.raises(ValueError, match=message):
            method(z)


def test_an_invalid_side_is_refused():
    # each of these once read any side but "primal" as "dual"
    system = get_preset("plastic").build()
    calls = [
        lambda: best_approx_table(system, "prime", 50),
        lambda: in_box(system, "bogus", (1, 1, 1), [1], [1, 1]),
        lambda: least_point(system, "bogus", [1, 1], [1]),
        lambda: enumerate_nonzero_general(system, "bogus", [1, 1], [1]),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="side must be 'primal' or 'dual'"):
            call()


def test_transposed_involution():
    system = System(1, 2, ((Fraction(1, 3), Fraction(2, 5)),))
    assert system.transposed().transposed() == system


def test_integer_form_residuals_match_rational_definition():
    system = System(2, 2, ((Fraction(1, 3), Fraction(-2, 7)), (Fraction(5, 6), Fraction(0))))
    A, At, D = system.integer_form
    assert D == 42 and At == tuple(zip(*A))
    assert all(Fraction(a, D) == t for ra, rt in zip(A, system.theta) for a, t in zip(ra, rt))
    z = (3, -1, 2, -4)
    x, y = z[:2], z[2:]
    primal = [sum(t * v for t, v in zip(row, x)) + yi for row, yi in zip(system.theta, y)]
    dual = [sum(system.theta[i][j] * y[i] for i in range(2)) - x[j] for j in range(2)]
    assert system.primal_numerators(z) == [D * v for v in primal]
    assert system.dual_numerators(z) == [D * v for v in dual]
    assert system.primal_values(z) == (3, max(abs(v) for v in primal))
    assert system.dual_values(z) == (4, max(abs(v) for v in dual))
    # the cached form leaves equality, hashing and repr alone
    twin = System(2, 2, system.theta)
    assert twin == system and hash(twin) == hash(system) and repr(twin) == repr(system)


def _random_bound(rng):
    kind = rng.randrange(4)
    if kind == 0:
        return Fraction(0)
    if kind == 1:
        return Fraction(rng.randint(1, 12), rng.randint(1, 5))
    return Radical(Fraction(rng.randint(1, 40), rng.randint(1, 6)), rng.choice([2, 3, 5]))


def _brute_force(system, side, hbounds, rbounds):
    """Every nonzero point of the bounding cube that passes the membership test."""
    n, m = system.n, system.m
    if side == "primal":
        outer = [floor_within(b) for b in rbounds]
        reach = [sum(abs(t) * b for t, b in zip(row, outer)) for row in system.theta]
        inner = [floor_within(b) + int(c) + 1 for b, c in zip(hbounds, reach)]
        cube = outer + inner
    else:
        outer = [floor_within(b) for b in hbounds]
        reach = [sum(abs(system.theta[i][j]) * outer[i] for i in range(n)) for j in range(m)]
        inner = [floor_within(b) + int(c) + 1 for b, c in zip(rbounds, reach)]
        cube = inner + outer
    return [
        z
        for z in product(*(range(-b, b + 1) for b in cube))
        if any(z) and in_box(system, side, z, hbounds, rbounds)
    ]


def test_enumeration_matches_brute_force_walk():
    rng = random.Random(7)
    for trial in range(60):
        d = 2 + trial % 3
        m = rng.randint(1, d - 1)
        n = d - m
        theta = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)] for _ in range(n)
        ]
        system = System(n, m, theta)
        side = rng.choice(["primal", "dual"])
        # keep the outer cube small: at most 2 per outer coordinate
        hbounds = [_random_bound(rng) for _ in range(n)]
        rbounds = [_random_bound(rng) for _ in range(m)]
        if side == "primal":
            rbounds = [min(b, Fraction(2)) if floor_within(b) > 2 else b for b in rbounds]
        else:
            hbounds = [min(b, Fraction(2)) if floor_within(b) > 2 else b for b in hbounds]
        got = enumerate_nonzero_general(system, side, hbounds, rbounds)
        assert got == _brute_force(system, side, hbounds, rbounds), (system, side, hbounds, rbounds)


def test_enumeration_symmetric_box_matches_box_contains():
    system = System(1, 2, ((Fraction(2, 3), Fraction(-1, 5)),))
    for side in ("primal", "dual"):
        box = Box(system, Radical(3, 2), Radical(Fraction(5, 2), 3), side)
        pts = enumerate_nonzero(box)
        cube = product(*(range(-4, 5) for _ in range(3)))
        assert pts == [z for z in cube if any(z) and box_contains(box, z)]


def test_enumeration_zero_bounds():
    system = System(1, 1, ((Fraction(1, 2),),))
    # only exact solutions of x/2 + y = 0 with |x| <= 2
    assert enumerate_nonzero_general(system, "primal", [Fraction(0)], [Fraction(2)]) == [
        (-2, 1),
        (2, -1),
    ]
    # |y| <= 0: only x with |x| <= 1
    assert enumerate_nonzero_general(system, "dual", [Fraction(0)], [Fraction(1)]) == [
        (-1, 0),
        (1, 0),
    ]


def test_least_point_is_the_first_accepted_enumerated_point():
    rng = random.Random(11)
    for trial in range(72):
        d = 2 + trial % 3
        m = rng.randint(1, d - 1)
        n = d - m
        theta = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)] for _ in range(n)
        ]
        system = System(n, m, theta)
        side = ("primal", "dual")[trial % 2]
        hbounds = [_random_bound(rng) for _ in range(n)]
        rbounds = [_random_bound(rng) for _ in range(m)]
        if trial % 4 < 2:
            # zero inner bounds: the zero outer vector's cell is the zero point alone
            if side == "primal":
                hbounds = [Fraction(0)] * n
            else:
                rbounds = [Fraction(0)] * m
        pts = enumerate_nonzero_general(system, side, hbounds, rbounds)
        w = [rng.randint(-2, 2) for _ in range(d)]
        u = pts[0] if pts and rng.random() < 0.5 else [rng.randint(-2, 2) for _ in range(d)]
        filters = [
            None,
            lambda z: sum(a * b for a, b in zip(z, w)) == 0,
            lambda z: gram_det((z, u)) != 0,
        ]
        # the walk visits outer coordinates first: x on the primal side, y on the dual
        walk_order = (lambda z: z) if side == "primal" else (lambda z: z[m:] + z[:m])
        for accept in filters:
            accepted = [z for z in pts if accept is None or accept(z)]
            want = min(accepted, key=walk_order, default=None)
            got = least_point(system, side, hbounds, rbounds, accept=accept)
            assert got == want, (system, side, hbounds, rbounds, w, u)


def test_least_multiple_is_the_walks_first_multiple():
    rng = random.Random(12)
    seen = {"point": 0, "none": 0, "zero bound": 0}
    for trial in range(300):
        d = 2 + trial % 3
        m = rng.randint(1, d - 1)
        n = d - m
        theta = [
            [Fraction(rng.randint(-6, 6), rng.randint(1, 6)) for _ in range(m)] for _ in range(n)
        ]
        system = System(n, m, theta)
        side = ("primal", "dual")[trial % 2]
        hbounds = [_random_bound(rng) for _ in range(n)]
        rbounds = [_random_bound(rng) for _ in range(m)]
        if trial % 5 == 0:
            hbounds[0] = Fraction(0)
            seen["zero bound"] += 1
        elif trial % 7 == 0:  # an empty box
            rbounds[0] = Fraction(-1, 2)
        w = [0] * d
        while not any(w):
            w = [rng.randint(-3, 3) * (rng.random() < 0.7) for _ in range(d)]
        a = next(i for i, v in enumerate(w) if v)

        def multiple(z):
            return z[a] % w[a] == 0 and all(v * (z[a] // w[a]) == zv for v, zv in zip(w, z))

        want = least_point(system, side, hbounds, rbounds, accept=multiple)
        assert least_multiple(system, side, w, hbounds, rbounds) == want, (system, side, w)
        seen["point" if want else "none"] += 1
    assert min(seen.values()) >= 30, seen
    with pytest.raises(ValueError, match="nonzero"):
        least_multiple(system, "dual", [0] * system.d, hbounds, rbounds)


def test_dual_search_stops_at_its_first_outer_vector(monkeypatch):
    # the first outer vector y = (-50, -50) already holds a point, so the
    # walk computes one center numerator, not one for each of 101^2 vectors
    system = System(2, 1, ((Fraction(1, 3),), (Fraction(2, 7),)))
    calls = 0
    dot = geometry._dot

    def counted(row, v):
        nonlocal calls
        calls += 1
        return dot(row, v)

    monkeypatch.setattr(geometry, "_dot", counted)
    got = least_point(system, "dual", [Fraction(50)] * 2, [Fraction(1, 2)])
    assert got == (-31, -50, -50)
    assert calls == 1


@pytest.mark.parametrize("search", [enumerate_nonzero_general, least_point])
@pytest.mark.parametrize("side", ["primal", "dual"])
def test_enumeration_budget_counts_outer_candidates(side, search):
    system = System(2, 2, ((Fraction(1, 3), Fraction(1, 5)), (Fraction(2, 7), Fraction(1, 2))))
    outer = [Fraction(5, 2), Radical(2, 2)]  # floors 2 and 1: 5 * 3 = 15 candidates
    inner = [Fraction(1, 2), Fraction(1, 2)]
    hbounds, rbounds = (inner, outer) if side == "primal" else (outer, inner)
    assert search(system, side, hbounds, rbounds, budget=15)
    with pytest.raises(BudgetExceeded, match="more than 14 candidates"):
        search(system, side, hbounds, rbounds, budget=14)


SCAN_SNAPSHOT = Path(__file__).with_name("best_approx_snapshot.json")


def _record_walk(system, side, t_max):
    """(t, psi) records of an integer walk over the full shells |x|_inf = t."""
    A, At, D = system.integer_form
    rows = A if side == "primal" else At
    records, best = [], None
    for t in range(1, t_max + 1):
        shell = min(
            max(min(r, D - r) for r in (sum(a * v for a, v in zip(row, x)) % D for row in rows))
            for x in product(range(-t, t + 1), repeat=len(rows[0]))
            if max(map(abs, x)) == t
        )
        if best is None or shell < best:
            best = shell
            records.append((t, Fraction(shell, D)))
            if shell == 0:
                break
    return records


def _assert_scan_is_exact(system, side, t_max):
    table = best_approx_table(system, side, t_max)
    assert [(r.t, r.psi) for r in table.records] == _record_walk(system, side, t_max)
    values = system.primal_values if side == "primal" else system.dual_values
    for rec in table.records:
        assert values(rec.witness) == (rec.t, rec.psi)


NEAR_TIE = ((Fraction(3, 10), Fraction(3, 10)), (Fraction(16, 100), Fraction(84, 100)),
            (Fraction(16, 100), Fraction(16, 100)))


def test_near_tie_in_a_shell_is_decided_exactly():
    # (1, 0) and (0, 1) tie at 3/10 in shell 1 until theta_00 grows by 2^-70;
    # a float argmin cannot tell them apart and keeps the first
    theta = [list(row) for row in NEAR_TIE]
    theta[0][0] += Fraction(1, 2**70)
    table = best_approx_table(System(3, 2, theta), "primal", 6)
    assert (table.records[0].t, table.records[0].psi) == (1, Fraction(3, 10))
    assert table.records[0].witness == (0, 1, 0, -1, 0)


@settings(max_examples=60, deadline=None)
@given(
    a=st.fractions(Fraction(26, 100), Fraction(31, 100), max_denominator=1000),
    k=st.integers(55, 80),
    sign=st.sampled_from((1, -1)),
    entry=st.integers(0, 1),
    side=st.sampled_from(("primal", "dual")),
)
def test_near_ties_match_the_exact_walk(a, k, sign, entry, side):
    # shell 1 holds (1, 0) and (0, 1) with psi = a each, split by 2^-k
    theta = [list(row) for row in NEAR_TIE]
    theta[0] = [a, a]
    theta[0][entry] += sign * Fraction(1, 2**k)
    system = System(3, 2, theta)
    if side == "dual":
        system = system.transposed()
    _assert_scan_is_exact(system, side, 6)


def test_scan_matches_exact_walk_on_every_shape():
    rng = random.Random(11)
    for free in (1, 2, 3):
        t_max = 8 if free == 3 else 30
        for side in ("primal", "dual"):
            for other in (1, 2):
                n, m = (other, free) if side == "primal" else (free, other)
                generic = [
                    [Fraction(rng.getrandbits(400), 2**400) for _ in range(m)] for _ in range(n)
                ]
                rational = [
                    [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(m)]
                    for _ in range(n)
                ]
                for theta in (generic, rational):
                    _assert_scan_is_exact(System(n, m, theta), side, t_max)


def _desk_scale_scans():
    """The systems, sides and depths of
    ``test_scan_matches_exact_walk_on_every_shape``, drawn the same way."""
    rng = random.Random(11)
    for free in (1, 2, 3):
        t_max = 8 if free == 3 else 30
        for side in ("primal", "dual"):
            for other in (1, 2):
                n, m = (other, free) if side == "primal" else (free, other)
                generic = [
                    [Fraction(rng.getrandbits(400), 2**400) for _ in range(m)] for _ in range(n)
                ]
                rational = [
                    [Fraction(rng.randint(-8, 8), rng.randint(1, 8)) for _ in range(m)]
                    for _ in range(n)
                ]
                for theta in (generic, rational):
                    yield System(n, m, theta), side, t_max


def test_records_do_not_depend_on_the_reduction(monkeypatch):
    # the guided LLL, the integral LLL and no reduction at all give the same
    # records and witnesses; the guided one keeps <basis_a, dual_b> = D (a == b)
    def paired(den):
        def reduce(basis, weights, dual):
            exactlinalg.lll_guided(basis, weights, dual)
            calls.append(1)
            assert [[sum(a * b for a, b in zip(u, v)) for v in dual] for u in basis] == [
                [den * (a == b) for b in range(len(dual))] for a in range(len(basis))]
        return reduce

    calls = []
    for system, side, t_max in _desk_scale_scans():
        tables = []
        for reduce in (paired(system.integer_form.den), lll_reduce, lambda *args: None):
            monkeypatch.setattr(geometry, "lll_guided", reduce)
            tables.append(best_approx_table(system, side, t_max).to_json())
        assert tables[0] == tables[1] == tables[2], (system, side)
    assert calls


def test_the_reduction_gate_changes_no_record(monkeypatch):
    # reducing only before a walk wider than 3^d gives the tables of reducing
    # at every record (limit 0), on 400-bit systems of every shape, d = 3..5
    gated = []
    for d in (3, 4, 5):
        for n in range(1, d):
            system = random_system(random.Random(100 * d + n), n, d - n)
            for side in ("primal", "dual"):
                gated.append((system, side, 10**12 if d <= 4 else 10**6))
    tables = [best_approx_table(*scan).to_json() for scan in gated]
    walk = geometry._least_point
    monkeypatch.setattr(geometry, "_least_point", lambda *args: walk(
        *args[:-1], 0 if args[-1] < math.inf else args[-1]))
    assert [best_approx_table(*scan).to_json() for scan in gated] == tables


def test_a_carried_basis_is_reduced_less_often_than_once_a_record(monkeypatch):
    calls = []
    monkeypatch.setattr(geometry, "lll_guided",
                        lambda *args: calls.append(1) or exactlinalg.lll_guided(*args))
    table = best_approx_table(get_preset("plastic").build(), "primal", 10**5)
    assert len(table.records) == 25 and len(calls) < len(table.records)


def _convergent_denominators(theta, t_max):
    """The distinct continued-fraction convergent denominators q <= t_max of
    theta, with ||q theta|| for each: the classical best approximations."""
    num, den = theta.numerator % theta.denominator, theta.denominator
    prev, q, out = 0, 1, []
    while q <= t_max:
        if not out or q != out[-1][0]:
            out.append((q, min(q * theta % 1, 1 - q * theta % 1)))
        if not num:
            break
        a, num, den = den // num, den % num, num
        prev, q = q, a * q + prev
    return out


def test_one_dimensional_records_are_the_convergents_to_1e50():
    # an oracle independent of the lattice search, far past the harness depths
    systems = [get_preset(name).build() for name in ("golden", "sqrt2", "liouville")]
    systems += [random_system(random.Random(seed), 1, 1) for seed in range(50)]
    for system in systems:
        expected = _convergent_denominators(system.theta[0][0], 10**50)
        for side in ("primal", "dual"):
            table = best_approx_table(system, side, 10**50)
            assert [(r.t, r.psi) for r in table.records] == expected, (system, side)


def test_guided_lll_needs_no_fallback_at_fast_depth(monkeypatch):
    def integral(*args):
        raise AssertionError("the integral LLL was reached")

    monkeypatch.setattr(exactlinalg, "lll_reduce", integral)
    systems = [preset.build() for preset in PRESETS.values()]
    systems += [random_system(random.Random(seed), n, m) for seed, (n, m) in
                enumerate(((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1)))]
    for system in systems:
        best_approx_table(system, "primal", t_max_for(system.m, "fast"))
        best_approx_table(system, "dual", t_max_for(system.n, "fast"))


def test_scan_matches_snapshot():
    # presets at t = 2000 (one free variable) or 150 (two), rational t = 12
    # scans whose records tie inside a shell, and the cubic_1_1 Jarnik pair
    # (primal t = 10^4, dual t = 10^5); recorded by the float scan, witnesses
    # included, but for five shell ties now decided by half-shell order
    for case in json.loads(SCAN_SNAPSHOT.read_text()):
        if "preset" in case:
            system = get_preset(case["preset"]).build()
        else:
            theta = [[Fraction(v) for v in row] for row in case["theta"]]
            system = System(case["n"], case["m"], theta)
        records = best_approx_table(system, case["side"], case["t_max"]).records
        assert [[r.t, str(r.psi), list(r.witness)] for r in records] == case["records"], case


def test_scans_leave_numpy_unloaded():
    src = str(Path(diotrans.__file__).resolve().parents[1])
    code = (
        "import random, sys, diotrans\n"
        "from diotrans.presets import random_system\n"
        "rng = random.Random(3)\n"
        "for n, m in ((1, 1), (2, 1), (1, 2), (2, 2), (1, 3), (3, 1)):\n"
        "    for side in ('primal', 'dual'):\n"
        "        diotrans.best_approx_table(random_system(rng, n, m), side, 12)\n"
        "print('numpy' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src}).stdout
    assert out.strip() == "False"


def test_scan_memory_stays_under_4_mb():
    # a 1x3 primal table to t = 200 covers 401^3 points; float blocks of
    # 401^2 of them peaked near 10 MB
    system = random_system(random.Random(1), 1, 3)
    tracemalloc.start()
    try:
        best_approx_table(system, "primal", 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


@pytest.mark.parametrize("side", ["primal", "dual"])
@pytest.mark.parametrize("theta, first, other", [
    # one block (a = 0): (2, -1) is lexicographically before (2, 2)
    ((Fraction(-1, 7), Fraction(-7, 3)), (2, -1), (2, 2)),
    # blocks a = 0 and a = 1: (2, 2) comes first, although (-1, 2) < (2, 2)
    ((Fraction(-2, 3), Fraction(-6, 7)), (2, 2), (-1, 2)),
])
def test_exact_shell_tie_keeps_the_first_minimiser_in_half_shell_order(theta, first, other, side):
    # both points reach the record psi(2) of the 1x2 system exactly; the dual
    # table of the transposed system has the same free vectors and residuals
    def psi(v):
        f = theta[0] * v[0] + theta[1] * v[1]
        return abs(f - round(f))

    system = System(1, 2, (theta,))
    if side == "dual":
        system = system.transposed()
    record = best_approx_table(system, side, 12).records[1]
    witness = record.witness[:2] if side == "primal" else record.witness[1:]
    assert record.t == 2 and psi(first) == psi(other) == record.psi
    assert witness == first
