"""Certificates and their verifier, on the standard library alone.

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


def _dot(u, v) -> int:
    return sum(map(mul, u, v))


def _in_target_box(cert: Certificate) -> bool:
    """Is the output point z = (x, y), d long, in the target box?

    Theta = A / D with D the lcm of its denominators, so each residual of z
    is an integer numerator over D: A x + D y on the primal side and
    tA y - D x on the dual side.  A bound p/q holds for an integer
    coordinate c iff |c| q <= p, and for a residual v / D iff |v| q <= p D.
    """
    den = lcm(*(v.denominator for row in cert.theta for v in row))
    rows = [[v.numerator * (den // v.denominator) for v in row] for row in cert.theta]
    x, y = cert.output_point[:cert.m], cert.output_point[cert.m:]
    hbounds, rbounds = ([Fraction(b) for b in bounds]
                        for bounds in _target_bounds(cert.target, cert.n, cert.m))
    side = cert.target["side"]
    if side == "primal":
        coords = zip(x, rbounds)
        nums = zip([_dot(row, x) + den * yi for row, yi in zip(rows, y)], hbounds)
    elif side == "dual":
        coords = zip(y, hbounds)
        nums = zip([_dot(col, y) - den * xj for col, xj in zip(zip(*rows), x)], rbounds)
    else:
        raise ValueError(f"target side must be 'primal' or 'dual', not {side!r}")
    return all(abs(c) * b.denominator <= b.numerator for c, b in coords) and all(
        abs(v) * b.denominator <= b.numerator * den for v, b in nums)


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
            results.append((f"orthogonal_to_{key}", fits and len(v) == d and _dot(v, z) == 0))
    if "v1" in inputs and "v2" in inputs:
        v1, v2 = inputs["v1"], inputs["v2"]
        results.append(("inputs_non_collinear", len(v1) == len(v2) == d
                        and _dot(v1, v1) * _dot(v2, v2) != _dot(v1, v2) ** 2))
    return all(ok for _, ok in results), results
