import json
import random
import tracemalloc
from fractions import Fraction
from pathlib import Path

import pytest

from diotrans.errors import (
    DioTransError,
    HypothesisViolated,
    NoWitnesses,
    NonCollinearRequired,
    Only3D,
)
from diotrans.functions import FunctionSpec, power_spec
from diotrans.geometry import Box, System, best_approx_table, box_contains
from diotrans.intervals import Enclosure
from diotrans.presets import get_preset, random_system
from diotrans.radicals import Radical, exact_le, exact_mul, exact_pow
from diotrans.sectiondual import delta_d, improved_mahler_factor
from diotrans.transfer import (
    Certificate,
    alphas_core,
    core_hypothesis_ok,
    core_parameters,
    mahler_transfer,
    mahler_transfer_asymmetric,
    main_lemma_hypothesis,
    main_lemma_transfer,
    main_lemma_transfer_3d,
    semicore,
    semicore_parameters,
    transference_parameters,
    verify_certificate,
)


def _half() -> System:
    return System(1, 1, ((Fraction(1, 2),),))


def test_transference_parameters_exact():
    # d=2: factor = Delta_2^{-1} = 1, Y = X^m/(d-1)... = X, V = U
    system = _half()
    Y, V = transference_parameters(system, Fraction(2), Fraction(1, 2))
    assert Y == 2 and V == Fraction(1, 2)


def test_transference_parameters_d3_radical():
    system = System(1, 2, ((Fraction(1, 3), Fraction(1, 5)),))
    Y, V = transference_parameters(system, Fraction(4), Fraction(1, 4))
    f = improved_mahler_factor(3)
    # Y = f * X^(m/(d-1)) U^((1-m)/(d-1)) = f * 4 * 4^(1/2) = 8f
    assert Y == f * 8


# Each construction defines its dual box by a closed formula; the identities
# the paper states for those boxes hold for every input, so they are checked
# here once rather than on every call.  Shapes (n, m) with d = 2..5.
SHAPES = [(n, d - n) for d in range(2, 6) for n in range(1, d)]


def _system(n: int, m: int) -> System:
    return System(n, m, tuple(tuple(Fraction(i + j + 1, 7) for j in range(m)) for i in range(n)))


def _monomial(a, i, b, j, factor):
    """a^i * b^j * factor, exactly."""
    return exact_mul(exact_mul(exact_pow(a, i), exact_pow(b, j)), factor)


@pytest.mark.parametrize("n, m", SHAPES)
def test_transference_parameters_satisfy_the_mahler_identities(n, m):
    system = _system(n, m)
    delta = delta_d(system.d)
    for X, U in [(2, Fraction(1, 2)), (10, Fraction(1, 100)), (Fraction(7, 3), Fraction(5, 4))]:
        Y, V = transference_parameters(system, X, U)
        assert _monomial(Y, n, V, m - 1, delta) == X
        assert _monomial(Y, n - 1, V, m, delta) == U


@pytest.mark.parametrize("direction", [1, -1])
@pytest.mark.parametrize("n, m", [(n, m) for n, m in SHAPES if n + m >= 3])
def test_semicore_parameters_satisfy_the_semicore_identities(n, m, direction):
    system = _system(n, m)
    d = system.d
    c = Radical(2 * d * (d - 1), 2)
    h_pow, r_pow = (n - 2, m) if direction == 1 else (n, m - 2)
    for t, Phi, Psi in [(3, 2, 1), (Fraction(5, 2), Fraction(7, 3), Fraction(1, 4)),
                        (Fraction(1, 20), 5, 3)]:
        h, r = semicore_parameters(system, t, Phi, Psi, direction)
        assert _monomial(h, h_pow, r, r_pow, 1) == exact_mul(exact_mul(c, Phi), Psi)
        assert _monomial(h, n - 1, r, m - 1, 1) == exact_mul(exact_mul(c, t), Phi)


@pytest.mark.parametrize("n, m", SHAPES)
def test_core_parameters_are_the_mahler_box_of_h_and_r(n, m):
    # alphas_core's Mahler route relies on this: X = r*, U = h* give Y = h, V = r
    system = _system(n, m)
    for phi in (power_spec(1, -2), power_spec(Fraction(1, 2), Fraction(-3, 2))):
        for h in (2, 10, Fraction(7, 3)):
            r, h_star, r_star = core_parameters(system, phi, h)
            assert transference_parameters(system, r_star, h_star) == (h, r)


def test_mahler_transfer_produces_verified_certificate():
    system = _half()
    cert = mahler_transfer(system, Fraction(2), Fraction(1, 100))
    ok, results = verify_certificate(cert)
    assert ok, results


def test_mahler_transfer_walks_its_boxes_without_listing_them():
    # the primal box M_{3,60} holds about 10^5 points; listed and sorted to
    # keep the first one, they peaked at 7 MB
    system = get_preset("plastic").build()
    tracemalloc.start()
    try:
        cert = mahler_transfer(system, 60, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert cert.inputs == {"witness": (-60, -60, 62)}
    assert cert.output_point == (-14, -32, -40)
    assert cert.params == {"X": "60", "U": "3", "Y": "40", "V": "2"}
    assert cert.target == {"side": "dual", "h": "40", "r": "2"}
    assert verify_certificate(cert)[0]


@pytest.mark.parametrize("n, m", [(1, 2), (2, 1), (1, 3), (2, 2), (3, 1), (1, 4), (2, 3), (4, 1)])
def test_mahler_radical_targets_lie_between_the_output_and_the_radius(n, m):
    # d = 3, 4, 5: Y and V are radicals, and each stated target bound is a
    # rational between the output point's own value and that radius
    system = random_system(random.Random(5), n, m)
    X, U = Fraction(20), Fraction(1, 5)
    cert = mahler_transfer(system, X, U)
    Y, V = transference_parameters(system, X, U)
    assert Y.index == V.index == system.d - 1
    yv, rv = system.dual_values(cert.output_point)
    h, r = Fraction(cert.target["h"]), Fraction(cert.target["r"])
    assert exact_le(yv, h) and exact_le(h, Y)
    assert exact_le(rv, r) and exact_le(r, V)
    assert verify_certificate(cert)[0]


def test_mahler_requires_populated_primal_box():
    system = _half()
    with pytest.raises(NoWitnesses):
        mahler_transfer(system, Fraction(1, 3), Fraction(1, 100))


def test_asymmetric_every_coordinate():
    system = System(1, 2, ((Fraction(1, 3), Fraction(2, 7)),))
    for k in range(system.d):
        cert = mahler_transfer_asymmetric(system, Fraction(3), Fraction(1, 2), k)
        assert verify_certificate(cert)[0]


def test_asymmetric_k_out_of_range():
    with pytest.raises(ValueError):
        mahler_transfer_asymmetric(_half(), 2, Fraction(1, 2), 5)


def test_certificate_json_roundtrip():
    cert = mahler_transfer(_half(), Fraction(2), Fraction(1, 100))
    back = Certificate.from_json(cert.to_json())
    assert back.to_dict() == cert.to_dict()
    assert verify_certificate(back)[0]
    assert "checks" not in json.loads(cert.to_json())


# README's certificate as written while certificates still carried the list
# of checks their construction recorded; loading ignores that list
OLDER_CERTIFICATE = {
    "checks": [["witness_nonzero", True], ["witness_in_primal_box", True],
               ["identity_Y^n_V^m-1_delta_eq_X", True], ["identity_Y^n-1_V^m_delta_eq_U", True],
               ["output_in_dual_box", True]],
    "inputs": {"witness": [-10, 5]},
    "kind": "mahler",
    "m": 1,
    "n": 1,
    "output_point": [-5, -10],
    "params": {"U": "1/10", "V": "1/10", "X": "10", "Y": "10"},
    "target": {"h": "10", "r": "1/10", "side": "dual"},
    "theta": [["1/2"]],
}


def test_certificate_with_recorded_checks_still_loads_and_verifies():
    cert = Certificate.from_json(json.dumps(OLDER_CERTIFICATE))
    assert verify_certificate(cert)[0]
    assert cert.to_dict() == mahler_transfer(_half(), Fraction(10), Fraction(1, 10)).to_dict()
    assert "checks" not in cert.to_dict()
    failed = dict(OLDER_CERTIFICATE, output_point=[5, -10])
    assert not verify_certificate(Certificate.from_json(json.dumps(failed)))[0]


def test_tampered_certificate_fails_verification():
    cert = mahler_transfer(_half(), Fraction(2), Fraction(1, 100))
    cert.output_point = tuple(v + 1000 for v in cert.output_point)
    ok, results = verify_certificate(cert)
    assert not ok


def test_main_lemma_hand_instance():
    system = System(1, 2, ((Fraction(0), Fraction(0)),))
    v1, v2 = (1, 0, 0), (0, 1, 0)
    ok, vals = main_lemma_hypothesis(system, v1, v2, 4, 1, Fraction(1, 12))
    assert ok and vals["h1"] == 0 and vals["r1"] == 1
    cert = main_lemma_transfer(system, v1, v2, 4, 1)
    assert verify_certificate(cert)[0]
    # the output is orthogonal to both inputs by construction
    z = cert.output_point
    assert z[0] == z[1] == 0 and z[2] != 0


def test_main_lemma_rejects_collinear():
    system = System(1, 2, ((Fraction(0), Fraction(0)),))
    with pytest.raises(NonCollinearRequired):
        main_lemma_transfer(system, (1, 0, 0), (2, 0, 0), 4, 1)


@pytest.mark.parametrize("v1, v2", [((1, 0, 0), (0, 1, 0, 0)), ((1, 0), (0, 1, 0))])
def test_main_lemma_rejects_vectors_of_the_wrong_length(v1, v2):
    system = get_preset("plastic").build()
    with pytest.raises(ValueError, match="expected d = 3 coordinates"):
        main_lemma_transfer(system, v1, v2, 1, 1)


def _failed_checks(cert) -> list:
    ok, results = verify_certificate(cert)
    assert not ok
    return [name for name, passed in results if not passed]


def test_verify_rejects_an_output_point_of_the_wrong_length():
    system = get_preset("plastic").build()
    cert = mahler_transfer(system, Fraction(10), Fraction(1, 3))
    assert verify_certificate(cert)[0]
    for point in (cert.output_point[:1], cert.output_point + (0,)):
        cert.output_point = point
        assert _failed_checks(cert) == ["output_dimension", "output_in_target_box"]


def test_verify_rejects_lemma_inputs_of_the_wrong_length():
    system = System(1, 2, ((Fraction(0), Fraction(0)),))
    cert = main_lemma_transfer(system, (1, 0, 0), (0, 1, 0), 4, 1)
    cert.inputs["v1"] = (1, 0)
    assert _failed_checks(cert) == ["orthogonal_to_v1", "inputs_non_collinear"]
    cert.inputs["v1"], cert.inputs["v2"] = (1, 0, 0), (0, 1, 0, 0)
    assert _failed_checks(cert) == ["orthogonal_to_v2", "inputs_non_collinear"]


def test_main_lemma_rejects_small_products():
    system = System(1, 2, ((Fraction(1, 3), Fraction(1, 5)),))
    with pytest.raises(HypothesisViolated):
        main_lemma_transfer(system, (1, 0, 0), (0, 1, 0), Fraction(1, 100), Fraction(1, 100))


@pytest.mark.parametrize("h, r", [(-4, -4), (0, 1), (4, 0)])
def test_main_lemma_rejects_nonpositive_radii(h, r):
    # the product bound compares squares, so on its own it admits (-4, -4)
    system = get_preset("plastic").build()
    v1, v2 = (1, 0, 0), (0, 1, 0)
    assert main_lemma_hypothesis(system, v1, v2, -4, -4, Fraction(1, 12))[0]
    for transfer in (main_lemma_transfer, main_lemma_transfer_3d):
        with pytest.raises(HypothesisViolated, match="h > 0 and r > 0"):
            transfer(system, v1, v2, h, r)


def test_3d_variant_needs_dimension_three():
    with pytest.raises(Only3D):
        main_lemma_transfer_3d(_half(), (1, 0), (0, 1), 1, 1)


def test_3d_gap_instance_separates_constants():
    # scaled until the general 1/(2 sqrt(3)) constant fails but the 3D 1/2
    # constant holds
    system = System(1, 2, ((Fraction(0), Fraction(0)),))
    v1, v2 = (1, 0, 0), (0, 1, 0)
    h = Fraction(3)  # sqrt(12) > 3 > 2: between the two thresholds
    ok_general, _ = main_lemma_hypothesis(system, v1, v2, h, 1, Fraction(1, 12))
    ok_sharp, _ = main_lemma_hypothesis(system, v1, v2, h, 1, Fraction(1, 4))
    assert not ok_general and ok_sharp
    with pytest.raises(HypothesisViolated):
        main_lemma_transfer(system, v1, v2, h, 1)
    cert = main_lemma_transfer_3d(system, v1, v2, h, 1)
    assert verify_certificate(cert)[0]


def test_semicore_two_witness_step():
    system = get_preset("plastic").build()
    table = best_approx_table(system, "primal", 5)
    phi_val = table.records[0].psi
    psi_val = table.records[1].psi
    cert = semicore(system, 3, phi_val, psi_val, 1, budget=10**6)
    assert cert.kind.startswith("semicore")
    assert verify_certificate(cert)[0]


def _round_trip_verifies(cert) -> bool:
    text = cert.to_json()
    back = Certificate.from_json(text)
    return back.to_json() == text and verify_certificate(back)[0]


def test_semicore_second_direction_and_core_second_condition_verify():
    system = get_preset("plastic").build()
    cert = semicore(system, Fraction(1, 20), 5, 3, -1)
    assert cert.kind == "semicore2" and cert.params["direction"] == "-1"
    assert _round_trip_verifies(cert)
    cert = alphas_core(system, power_spec(1, Fraction(-1, 2)),
                       power_spec(Fraction(1, 100), Fraction(-1, 2)), 4)
    assert cert.params["condition"] == "2" and cert.params["route"] == "mahler"
    assert _round_trip_verifies(cert)


def test_semicore_requires_ordered_bounds():
    system = get_preset("plastic").build()
    with pytest.raises(HypothesisViolated):
        semicore(system, 3, Fraction(1, 10), Fraction(1, 2), 1)


def test_alphas_core_route_mahler():
    system = get_preset("plastic").build()
    cert = alphas_core(
        system, power_spec(1, Fraction(-1, 2)), power_spec(Fraction(1, 100), -2), 20
    )
    assert cert.params["route"] == "mahler"
    assert verify_certificate(cert)[0]


def test_alphas_core_route_dilation():
    # two independent near-rational directions: the starred box is empty,
    # the minimal dilation pair is (3,0,*) and (0,5,*), and the lambda
    # product is far below the threshold
    system = System(
        1,
        2,
        ((Fraction(1, 3) + Fraction(1, 10**7), Fraction(1, 5) + Fraction(1, 10**12)),),
    )
    cert = alphas_core(
        system,
        power_spec(Fraction(533, 100), -1),
        power_spec(Fraction(1, 100), -2),
        10**4,
        budget=10**6,
    )
    assert cert.params["route"] == "dilation"
    assert cert.params["lambda2"] == "5"
    assert verify_certificate(cert)[0]


def test_alphas_core_growth_hypothesis_enforced():
    system = get_preset("plastic").build()
    with pytest.raises(HypothesisViolated):
        alphas_core(system, power_spec(1, Fraction(-1, 2)), power_spec(1, -2), 20)


def test_output_lands_in_inflated_dual_box():
    system = _half()
    cert = mahler_transfer(system, Fraction(2), Fraction(1, 100))
    Y, V = transference_parameters(system, Fraction(2), Fraction(1, 100))
    box = Box(system, Y, V, "dual")
    assert box_contains(box, cert.output_point) is True


def test_mahler_transfer_with_enclosure_inputs():
    cert = mahler_transfer(_half(), Enclosure(10), Enclosure(Fraction(1, 10)))
    assert cert.params == {
        "X": "[10, 10]", "U": "[1/10, 1/10]", "Y": "[10, 10]", "V": "[1/10, 1/10]"
    }
    assert verify_certificate(cert)[0]


def test_main_lemma_hypothesis_with_enclosed_r():
    system = get_preset("plastic").build()
    records = best_approx_table(system, "primal", 12).records
    v1, v2 = records[2].witness, records[3].witness
    r = Enclosure(3, Fraction(31, 10))
    ok, details = main_lemma_hypothesis(system, v1, v2, Fraction(4), r, Fraction(1, 12))
    assert ok is False  # it fails at both ends of r as well
    assert set(details) == {"h1", "r1", "h2", "r2"}
    ok, _ = main_lemma_hypothesis(system, v1, v2, Fraction(256), Enclosure(1000, 1001),
                                  Fraction(1, 12))
    assert ok is True


def test_core_hypothesis_with_power_log_phi():
    system = get_preset("plastic").build()
    phi = FunctionSpec("power_log", 1, Fraction(-1, 2), -1)
    psi = power_spec(Fraction(1, 100), -2)
    assert core_hypothesis_ok(system, phi, psi, Fraction(40)) in (1, 2, None)


@pytest.mark.parametrize("h", [20, 40, 100, 1000])
def test_alphas_core_with_power_log_phi_orders_enclosed_ties(h):
    # phi is enclosure-valued, so every dilation ratio is an enclosure and z,
    # -z tie; the search keeps the first point instead of raising
    # PrecisionExhausted, and the lambda product check then fails honestly
    system = get_preset("plastic").build()
    phi = FunctionSpec("power_log", 1, Fraction(-1, 2), -1)
    with pytest.raises(HypothesisViolated, match="lambda_1 lambda_2"):
        alphas_core(system, phi, power_spec(Fraction(1, 100), -2), h)


CORE_SNAPSHOT = Path(__file__).with_name("alphas_core_snapshot.json")


def test_alphas_core_matches_snapshot():
    # seeded near-rational 1x2 and 2x1 systems with power phi and psi at
    # h = 10^3, 10^4: 13 dilation-route certificates, 17 lambda-product
    # violations, and Mahler-route, growth-condition and budget outcomes;
    # recorded before the two dilation searches were merged into one
    def spec(args):
        return FunctionSpec(args[0], *map(Fraction, args[1:]))

    for case in json.loads(CORE_SNAPSHOT.read_text()):
        system = System(case["n"], case["m"], [[Fraction(v) for v in row] for row in case["theta"]])
        try:
            cert = alphas_core(system, spec(case["phi"]), spec(case["psi"]), case["h"],
                               budget=case["budget"])
            result = {"certificate": cert.to_dict()}
        except DioTransError as exc:
            result = {"error": f"{type(exc).__name__}: {exc}"}
        assert json.loads(json.dumps(result)) == case["result"], case
