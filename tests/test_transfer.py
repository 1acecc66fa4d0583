import json
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
from diotrans.presets import get_preset
from diotrans.radicals import Radical
from diotrans.sectiondual import improved_mahler_factor
from diotrans.transfer import (
    Certificate,
    alphas_core,
    core_hypothesis_ok,
    mahler_transfer,
    mahler_transfer_asymmetric,
    main_lemma_hypothesis,
    main_lemma_transfer,
    main_lemma_transfer_3d,
    semicore,
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


def test_mahler_transfer_produces_verified_certificate():
    system = _half()
    cert = mahler_transfer(system, Fraction(2), Fraction(1, 100))
    assert cert.all_ok()
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
    assert cert.all_ok() and verify_certificate(cert)[0]


def test_mahler_requires_populated_primal_box():
    system = _half()
    with pytest.raises(NoWitnesses):
        mahler_transfer(system, Fraction(1, 3), Fraction(1, 100))


def test_asymmetric_every_coordinate():
    system = System(1, 2, ((Fraction(1, 3), Fraction(2, 7)),))
    for k in range(system.d):
        cert = mahler_transfer_asymmetric(system, Fraction(3), Fraction(1, 2), k)
        assert cert.all_ok()
        assert verify_certificate(cert)[0]


def test_asymmetric_k_out_of_range():
    with pytest.raises(ValueError):
        mahler_transfer_asymmetric(_half(), 2, Fraction(1, 2), 5)


def test_certificate_json_roundtrip():
    cert = mahler_transfer(_half(), Fraction(2), Fraction(1, 100))
    back = Certificate.from_json(cert.to_json())
    assert back.to_dict() == cert.to_dict()
    assert verify_certificate(back)[0]


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
    assert cert.all_ok()
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
    assert cert.all_ok() and verify_certificate(cert)[0]


def test_semicore_two_witness_step():
    system = get_preset("plastic").build()
    table = best_approx_table(system, "primal", 5)
    phi_val = table.records[0].psi
    psi_val = table.records[1].psi
    cert = semicore(system, 3, phi_val, psi_val, 1, budget=10**6)
    assert cert.kind.startswith("semicore")
    assert cert.all_ok() and verify_certificate(cert)[0]


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
    assert cert.all_ok() and verify_certificate(cert)[0]


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
    assert cert.all_ok() and verify_certificate(cert)[0]


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
    assert cert.all_ok() and verify_certificate(cert)[0]


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
