"""The integer verifier against the verifier it replaced.

``_reference_verify`` is the earlier body of ``verify_certificate``, built on
``geometry.System``, ``geometry.in_box`` and ``exactlinalg.gram_det``.  The
kernel in ``diotrans.verify`` must return the same (ok, rows) on every
certificate the constructions emit and on one-field perturbations of each.
"""
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from diotrans import harness
from diotrans.exactlinalg import gram_det
from diotrans.geometry import System, best_approx_table, in_box
from diotrans.presets import get_preset, random_rational_system
from diotrans.radicals import Radical
from diotrans.transfer import (
    lemma_bound_holds,
    lemma_constant_sq,
    lemma_terms,
    mahler_transfer,
    mahler_transfer_asymmetric,
    main_lemma_transfer,
    main_lemma_transfer_3d,
    semicore,
)
from diotrans.verify import Certificate, verify_certificate

CORE_SNAPSHOT = Path(__file__).with_name("alphas_core_snapshot.json")


def _reference_verify(cert):
    results = []
    system = System(cert.n, cert.m, cert.theta)
    z = cert.output_point
    fits = len(z) == system.d
    results.append(("output_nonzero", any(v != 0 for v in z)))
    results.append(("output_dimension", fits))
    target = cert.target
    if "h" in target:
        bounds = [target["h"]] * cert.n, [target["r"]] * cert.m
    else:
        bounds = target["hbounds"], target["rbounds"]
    hbounds, rbounds = ([Fraction(v) for v in b] for b in bounds)
    results.append(("output_in_target_box",
                    fits and in_box(system, target["side"], z, hbounds, rbounds)))
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


def _box_certificates(rng):
    """Symmetric and per-coordinate Mahler transfers at d = 2..5, with X and
    U sized so that the primal box holds a point."""
    for d in (2, 3, 4, 5):
        for _ in range(3):
            m = rng.randint(1, d - 1)
            n = d - m
            system = random_rational_system(rng, n, m, max_den=30)
            X = 1 + Fraction(rng.randint(1, 100), 100)
            U = Fraction(float(X) ** (-m / n) * 1.01).limit_denominator(10**6)
            while X**m * U**n < 1:
                U *= Fraction(101, 100)
            yield mahler_transfer(system, X, U)
            for k in range(d):
                yield mahler_transfer_asymmetric(system, X, U, k)


def _lemma_certificates(rng):
    """Two-point lemma certificates at d = 3..5 and d = 3 gap instances,
    where only the sharpened constant 1/4 admits (h, r), as the harness
    campaigns build them."""
    made = {3: 0, 4: 0, 5: 0, "gap": 0}
    while min(made.values()) < 4:
        d = rng.choice((3, 4, 5))
        n = rng.randint(1, d - 1)
        system = random_rational_system(rng, n, d - n, max_den=8)
        pair = harness._witness_pair(system)
        params = pair and harness._cheapest_lemma_params(system, *pair, lemma_constant_sq(d))
        if params is None:
            continue
        made[d] += 1
        yield main_lemma_transfer(system, *pair, *params)
        if d != 3:
            continue
        terms, _ = lemma_terms(system, *pair)
        h, r = params
        while lemma_bound_holds(system, terms, h, r, Fraction(1, 4)):
            if not lemma_bound_holds(system, terms, h, r, lemma_constant_sq(3)):
                made["gap"] += 1
                yield main_lemma_transfer_3d(system, *pair, h, r)
                break
            h, r = h * Fraction(19, 20), r * Fraction(19, 20)


def _semicore_certificates():
    system = get_preset("plastic").build()
    records = best_approx_table(system, "primal", 5).records
    yield semicore(system, 3, records[0].psi, records[1].psi, 1, budget=10**6)
    yield semicore(system, Fraction(1, 20), 5, 3, -1)
    yield semicore(system, Fraction(1, 20), Radical(30, 2), Radical(9, 2), -1)


def _core_certificates():
    for case in json.loads(CORE_SNAPSHOT.read_text()):
        if "certificate" in case["result"]:
            yield Certificate.from_dict(case["result"]["certificate"])


def _halved(target):
    """The target with each of its bounds halved in turn."""
    if "h" in target:
        for key in ("h", "r"):
            yield {**target, key: str(Fraction(target[key]) / 2)}
        return
    for key in ("hbounds", "rbounds"):
        for i, b in enumerate(target[key]):
            bounds = list(target[key])
            bounds[i] = str(Fraction(b) / 2)
            yield {**target, key: bounds}


def _perturbations(cert):
    """cert and its one-field changes: each output coordinate +-1, each
    target bound halved, the other side, the output shortened and lengthened,
    and v2 replaced by 2 v1."""
    z = cert.output_point
    yield cert
    for i in range(len(z)):
        for step in (-1, 1):
            yield replace(cert, output_point=z[:i] + (z[i] + step,) + z[i + 1:])
    for target in _halved(cert.target):
        yield replace(cert, target=target)
    other = "primal" if cert.target["side"] == "dual" else "dual"
    yield replace(cert, target={**cert.target, "side": other})
    yield replace(cert, output_point=z[:-1])
    yield replace(cert, output_point=z + (0,))
    if "v2" in cert.inputs:
        yield replace(cert, inputs={**cert.inputs, "v2": tuple(2 * a for a in cert.inputs["v1"])})


def test_kernel_decides_as_the_reference_verifier():
    rng = random.Random(29)
    certs = [*_box_certificates(rng), *_lemma_certificates(rng), *_semicore_certificates(),
             *_core_certificates()]
    kinds, verdicts = set(), {}
    for cert in certs:
        kinds.add(cert.kind)
        back = Certificate.from_json(cert.to_json())
        assert verify_certificate(back) == verify_certificate(cert)
        for variant in _perturbations(back):
            got = verify_certificate(variant)
            assert got == _reference_verify(variant), variant
            for name, ok in got[1]:
                verdicts.setdefault(name, set()).add(ok)
    assert len(certs) >= 100 and kinds >= {
        "mahler", "mahler_asymmetric", "main_lemma", "lemma3d", "semicore1", "semicore2",
        "alphas_core"}, kinds
    assert all(v == {True, False} for v in verdicts.values()) and len(verdicts) == 6, verdicts


MAHLER_FIELDS = {"kind": "mahler", "n": 1, "m": 1, "theta": [["1/2"]], "params": {},
                 "inputs": {}, "output_point": [1, 0],
                 "target": {"side": "dual", "h": "1", "r": "1"}}


@pytest.mark.parametrize("fields", [{"n": 0}, {"m": -1}, {"theta": [["1/2"], ["1/3"]]},
                                    {"theta": [["1/2", "1/3"]]}, {"theta": []}],
                         ids=["n-zero", "m-negative", "theta-rows", "theta-shape", "theta-empty"])
def test_from_dict_rejects_a_system_that_is_not_n_by_m(fields):
    assert verify_certificate(Certificate.from_dict(MAHLER_FIELDS))[0]
    with pytest.raises(ValueError):
        Certificate.from_dict({**MAHLER_FIELDS, **fields})
