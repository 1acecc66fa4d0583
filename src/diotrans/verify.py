"""Certificates, their verifier and the library's exact kernel, on the standard library alone.

A ``Certificate`` records one constructive transference step: the rational
system Theta, the step's parameters and integer inputs, the point it built
and the box that point claims.  ``verify_certificate`` re-checks the claim
from the certificate alone, in integers; a verdict rests on this module only.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul
from typing import NamedTuple


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
        return {"kind": self.kind, "n": self.n, "m": self.m,
                "theta": [[str(v) for v in row] for row in self.theta], "params": self.params,
                "inputs": {k: list(v) for k, v in self.inputs.items()},
                "output_point": list(self.output_point), "target": self.target}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)

    @staticmethod
    def from_dict(data: dict) -> "Certificate":
        """The certificate ``to_dict`` wrote.  A missing field raises KeyError;
        a field of the wrong type or value, such as n < 1 or a Theta that is
        not n x m, TypeError or ValueError.  Other keys, such as the ``checks``
        list of older certificates, are ignored."""
        n, m = data["n"], data["m"]
        if type(n) is not int or type(m) is not int or n < 1 or m < 1:
            raise ValueError(f"n and m must be positive integers, not {n!r} and {m!r}")
        theta = tuple(tuple(_rational(v) for v in row) for row in data["theta"])
        if len(theta) != n or any(len(row) != m for row in theta):
            raise ValueError(f"theta must be {n}x{m}")
        inputs = {k: _integer_vector(v) for k, v in data["inputs"].items()}
        return Certificate(data["kind"], n, m, theta, dict(data["params"]), inputs,
                           _integer_vector(data["output_point"]),
                           _checked_target(dict(data["target"]), n, m))

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


def dot(u, v) -> int:
    """<u, v>, the library's one dot product, on integer or rational entries."""
    return sum(map(mul, u, v))


class IntegerForm(NamedTuple):
    """Theta = rows / den with an integer matrix; cols is its transpose."""

    rows: tuple[tuple[int, ...], ...]
    cols: tuple[tuple[int, ...], ...]
    den: int


def theta_integer_form(theta) -> IntegerForm:
    """Theta = A / D, D the lcm of the denominators: each residual is an integer over D."""
    den = lcm(*(v.denominator for row in theta for v in row))
    rows = tuple(tuple(v.numerator * (den // v.denominator) for v in row) for row in theta)
    return IntegerForm(rows, tuple(zip(*rows)), den)


def residual_numerators(form: IntegerForm, side, x, y) -> tuple:
    """(outer, numerators) of z = (x, y) for Theta = A / D: x and A x + D y
    = D (Theta x + y) on the primal side, y and tA y - D x = D (tTheta y - x)
    on the dual side, bounded in a box by r and D h resp. h and D r."""
    rows, cols, den = form
    if side == "primal":
        return x, [dot(row, x) + den * yi for row, yi in zip(rows, y)]
    if side == "dual":
        return y, [dot(col, y) - den * xj for col, xj in zip(cols, x)]
    raise ValueError(f"side must be 'primal' or 'dual', not {side!r}")


def non_collinear(v1, v2) -> bool:
    """Are v1 and v2 not collinear?  Their 2 x 2 Gram determinant
    |v1|^2 |v2|^2 - <v1, v2>^2 is nonzero (Cauchy-Schwarz)."""
    return dot(v1, v1) * dot(v2, v2) != dot(v1, v2) ** 2


def _in_target_box(cert: Certificate) -> bool:
    """Is the output point z = (x, y), d long, in the target box?

    A bound p/q holds for an integer coordinate c iff |c| q <= p, and for a
    residual v / D (``residual_numerators``) iff |v| q <= p D.
    """
    form = theta_integer_form(cert.theta)
    side = cert.target["side"]
    outer, nums = residual_numerators(form, side, cert.output_point[:cert.m],
                                      cert.output_point[cert.m:])
    hbounds, rbounds = ([Fraction(b) for b in bounds]
                        for bounds in _target_bounds(cert.target, cert.n, cert.m))
    outer_bounds, inner_bounds = (rbounds, hbounds) if side == "primal" else (hbounds, rbounds)
    return all(abs(c) * b.denominator <= b.numerator for c, b in zip(outer, outer_bounds)) and all(
        abs(v) * b.denominator <= b.numerator * form.den for v, b in zip(nums, inner_bounds))


def verify_certificate(cert: Certificate) -> tuple[bool, list]:
    """(all passed, [(check, passed)]): the output point is nonzero, has
    d = n + m coordinates and lies in the target box, and for inputs v1 and
    v2 it is orthogonal to each, and they are not collinear: their Gram
    determinant |v1|^2 |v2|^2 - <v1, v2>^2 is nonzero."""
    d, z, inputs = cert.n + cert.m, cert.output_point, cert.inputs
    fits = len(z) == d  # a vector of another length fails every check on it
    results = [("output_nonzero", any(v != 0 for v in z)), ("output_dimension", fits),
               ("output_in_target_box", fits and _in_target_box(cert))]
    for key in ("v1", "v2"):
        if key in inputs:
            v = inputs[key]
            results.append((f"orthogonal_to_{key}", fits and len(v) == d and dot(v, z) == 0))
    if "v1" in inputs and "v2" in inputs:
        v1, v2 = inputs["v1"], inputs["v2"]
        results.append(("inputs_non_collinear", len(v1) == len(v2) == d and non_collinear(v1, v2)))
    return all(ok for _, ok in results), results
