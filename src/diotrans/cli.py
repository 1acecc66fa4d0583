"""Command-line frontend.

Subcommands
-----------
delta --dmax K                      table of the central-section constants
best-approx                         scan a system's best-approximation records
estimate                            fit approximation exponents from a scan
transfer mahler|asymmetric|lemma|lemma3d|semicore|alphas-core
                                    run one constructive transference step and
                                    emit a JSON certificate
verify-certificate FILE             independently re-check a certificate
campaign --family NAME              randomized verification campaigns

transfer takes --budget, the candidates one box search may visit (default
geometry.DEFAULT_ENUM_BUDGET); the lemma at d = 3 searches no box.
delta, best-approx and campaign write JSON or, with --format csv, CSV; the
other commands write JSON.

Exit codes: 0 success, 1 usage error, 2 hypothesis violation, 3 budget
exceeded.  A plain key=value config file (--config) supplies flag defaults.
Identical arguments and seeds give byte-identical output.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from . import harness
from .errors import BudgetExceeded, DioTransError, HypothesisViolated, UsageError
from .functions import FunctionSpec
from .geometry import DEFAULT_ENUM_BUDGET, System, best_approx_table
from .presets import PRESETS, get_preset, random_system
from .sectiondual import delta_bounds_ok, delta_d
from .transfer import (
    alphas_core,
    mahler_transfer,
    mahler_transfer_asymmetric,
    main_lemma_transfer,
    main_lemma_transfer_3d,
    semicore,
)
from .verify import Certificate, verify_certificate

# ---------------------------------------------------------------------------
# parsing helpers
# ---------------------------------------------------------------------------


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def _parse_theta(text: str, n: int, m: int) -> System:
    rows = [row for row in text.replace(" ", "").split(";") if row]
    if len(rows) != n:
        raise UsageError(f"theta has {len(rows)} rows, expected n={n}")
    matrix = []
    for row in rows:
        entries = [_parse_fraction(v) for v in row.split(",") if v]
        if len(entries) != m:
            raise UsageError(f"theta row has {len(entries)} entries, expected m={m}")
        matrix.append(tuple(entries))
    return System(n, m, tuple(matrix))


def _parse_vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(v) for v in text.replace(",", " ").split())
    except ValueError as exc:
        raise UsageError(f"not an integer vector: {text!r}") from exc


def _parse_function(text: str) -> FunctionSpec:
    """family:coeff:exponent[:log_exponent], e.g. power:1:-2."""
    parts = text.split(":")
    if len(parts) not in (3, 4):
        raise UsageError(
            f"function spec {text!r}; expected family:coeff:exponent[:log_exponent]"
        )
    family = parts[0]
    coeff = _parse_fraction(parts[1])
    exponent = _parse_fraction(parts[2])
    log_exponent = _parse_fraction(parts[3]) if len(parts) == 4 else Fraction(0)
    return FunctionSpec(family, coeff, exponent, log_exponent)


def _system_from_args(args) -> System:
    sources = [args.preset is not None, args.theta is not None, args.random is not None]
    if sum(sources) != 1:
        raise UsageError("exactly one of --preset, --theta, --random is required")
    if args.preset is not None:
        try:
            return get_preset(args.preset).build()
        except KeyError as exc:
            raise UsageError(str(exc)) from exc
    source = "--theta" if args.theta is not None else "--random"
    if args.n is None or args.m is None:
        raise UsageError(f"{source} requires --n and --m")
    if args.n < 1 or args.m < 1:
        raise UsageError("--n and --m must be positive")
    if args.theta is not None:
        return _parse_theta(args.theta, args.n, args.m)
    return random_system(random.Random(args.random), args.n, args.m)


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _read_config(path: str) -> dict:
    """Flat key=value lines; '#' starts a comment; keys use flag spelling."""
    values = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"config line without '=': {raw.strip()!r}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key.replace("-", "_")] = val
    return values


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def _cmd_delta(args) -> int:
    if args.dmax < 2:
        raise UsageError("--dmax must be at least 2")
    rows = []
    for d in range(2, args.dmax + 1):
        value = delta_d(d)
        rows.append(
            {
                "d": d,
                "delta_num": value.numerator,
                "delta_den": value.denominator,
                "decimal": f"{float(value):.12f}",
                "bounds_ok": delta_bounds_ok(d),
            }
        )
    if args.format == "csv":
        buf = io.StringIO()
        w = csv.DictWriter(buf, fieldnames=["d", "delta_num", "delta_den", "decimal", "bounds_ok"])
        w.writeheader()
        w.writerows(rows)
        _emit(args, buf.getvalue())
    else:
        _emit(args, json.dumps(rows, indent=2, sort_keys=True))
    return 0


def _cmd_best_approx(args) -> int:
    if args.t_max < 1:
        raise UsageError("--t-max must be at least 1")
    system = _system_from_args(args)
    table = best_approx_table(system, args.side, args.t_max)
    _emit(args, table.to_csv() if args.format == "csv" else table.to_json())
    return 0


def _cmd_estimate(args) -> int:
    if args.t_max < 2:  # the fits read records with t >= 2 only
        raise UsageError("--t-max must be at least 2")
    system = _system_from_args(args)
    out = {}
    sides = ("primal", "dual") if args.side == "both" else (args.side,)
    for side in sides:
        est = harness.estimate_exponents(system, side, args.t_max)
        out[side] = est.as_dict()
    _emit(args, json.dumps(out, indent=2, sort_keys=True))
    return 0


def _cmd_transfer(args) -> int:
    if args.budget < 1:
        raise UsageError("--budget must be at least 1")
    system = _system_from_args(args)
    op = args.operation
    if op in ("mahler", "asymmetric"):
        if args.X is None or args.U is None:
            raise UsageError(f"transfer {op} requires --X and --U")
        X = _parse_fraction(args.X)
        U = _parse_fraction(args.U)
        if X <= 0 or U <= 0:
            raise UsageError("--X and --U must be positive")
        if op == "mahler":
            cert = mahler_transfer(system, X, U, budget=args.budget)
        else:
            if args.k is None:
                raise UsageError("transfer asymmetric requires --k")
            if not 0 <= args.k < system.d:
                raise UsageError(f"--k must be in [0, {system.d})")
            cert = mahler_transfer_asymmetric(system, X, U, args.k, budget=args.budget)
    elif op in ("lemma", "lemma3d"):
        if not (args.v1 and args.v2 and args.h and args.r):
            raise UsageError(f"transfer {op} requires --v1 --v2 --h --r")
        v1 = _parse_vector(args.v1)
        v2 = _parse_vector(args.v2)
        if len(v1) != system.d or len(v2) != system.d:
            raise UsageError(f"--v1 and --v2 must have {system.d} coordinates")
        h = _parse_fraction(args.h)
        r = _parse_fraction(args.r)
        if h <= 0 or r <= 0:
            raise UsageError("--h and --r must be positive")
        fn = main_lemma_transfer_3d if op == "lemma3d" else main_lemma_transfer
        cert = fn(system, v1, v2, h, r, budget=args.budget)
    elif op == "semicore":
        if not (args.t and args.Phi and args.Psi):
            raise UsageError("transfer semicore requires --t --Phi --Psi")
        t = _parse_fraction(args.t)
        if t <= 0:
            raise UsageError("--t must be positive")
        cert = semicore(
            system,
            t,
            _parse_fraction(args.Phi),
            _parse_fraction(args.Psi),
            args.direction,
            budget=args.budget,
        )
    elif op == "alphas-core":
        if not (args.phi and args.psi and args.h):
            raise UsageError("transfer alphas-core requires --phi --psi --h")
        h = _parse_fraction(args.h)
        if h <= 0:
            raise UsageError("--h must be positive")
        cert = alphas_core(
            system, _parse_function(args.phi), _parse_function(args.psi), h, budget=args.budget
        )
    else:  # pragma: no cover - argparse restricts choices
        raise UsageError(f"unknown transfer operation {op!r}")
    _emit(args, cert.to_json())
    return 0


def _cmd_verify_certificate(args) -> int:
    try:
        with open(args.file, encoding="utf-8") as fh:
            cert = Certificate.from_json(fh.read())  # decode errors are ValueErrors
    except (AttributeError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise DioTransError(f"malformed certificate: {exc}") from exc
    ok, results = verify_certificate(cert)
    _emit(
        args,
        json.dumps(
            {"verified": ok, "checks": [[name, res] for name, res in results]},
            indent=2,
            sort_keys=True,
        ),
    )
    return 0 if ok else 2


def _campaign_inequalities(args):
    if args.n is None or args.m is None:
        raise UsageError("campaign inequalities requires --n and --m")
    if args.n < 1 or args.m < 1:
        raise UsageError("--n and --m must be positive")
    return harness.campaign_inequalities(
        args.n, args.m, trials=args.trials, seed=args.seed, tier=args.tier
    )


def _dims(args) -> tuple[int, ...]:
    if min(args.dims) < 2:
        raise UsageError("--dims must be at least 2")
    return tuple(args.dims)


# --family name: the campaign it runs on the parsed flags
CAMPAIGNS = {
    "mahler": lambda args: harness.campaign_mahler(
        dims=_dims(args), trials_per_dim=args.trials, seed=args.seed
    ),
    "dominions": lambda args: harness.campaign_dominions(trials=args.trials, seed=args.seed),
    "inequalities": _campaign_inequalities,
    "jarnik-equality": lambda args: harness.campaign_jarnik_equality(count=args.trials),
    "main-lemma": lambda args: harness.campaign_main_lemma(
        trials=args.trials, dims=_dims(args), seed=args.seed
    ),
    "main-lemma-gap": lambda args: harness.campaign_main_lemma_gap(
        trials=args.trials, seed=args.seed
    ),
    "covolumes": lambda args: harness.campaign_covolumes(trials=args.trials, seed=args.seed),
    "cube-sections": lambda args: harness.campaign_cube_sections(
        trials=args.trials, seed=args.seed
    ),
    "uniform-bounds": lambda args: harness.campaign_uniform_bounds(),
}


def _cmd_campaign(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be at least 1")
    result = CAMPAIGNS[args.family](args)
    if args.format == "csv":
        buf = io.StringIO()
        fieldnames = sorted({key for row in result.details for key in row}) or ["empty"]
        w = csv.DictWriter(buf, fieldnames=fieldnames)
        w.writeheader()
        for row in result.details:
            w.writerow({k: row.get(k, "") for k in fieldnames})
        _emit(args, buf.getvalue())
    else:
        _emit(args, result.to_json())
    return 0 if result.all_passed else 2


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        raise UsageError(message)


def _add_system_args(p):
    p.add_argument("--preset", help=f"one of {sorted(PRESETS)}")
    p.add_argument("--theta", help="rational matrix, rows ';'-separated, entries ','-separated")
    p.add_argument("--random", type=int, help="seed for a random high-precision system")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)


def _add_common(p, *, formats: bool):
    """--output, with --format on the commands that also write CSV."""
    if formats:
        p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--output", help="write the report here instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="diotrans", description=__doc__.splitlines()[0])
    parser.add_argument("--config", help="key=value file supplying flag defaults")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="central-section constants table")
    p.add_argument("--dmax", type=int, default=8)
    _add_common(p, formats=True)
    p.set_defaults(fn=_cmd_delta)

    p = sub.add_parser("best-approx", help="best-approximation record scan")
    _add_system_args(p)
    p.add_argument("--side", choices=("primal", "dual"), default="primal")
    p.add_argument("--t-max", type=int, default=1000)
    _add_common(p, formats=True)
    p.set_defaults(fn=_cmd_best_approx)

    p = sub.add_parser("estimate", help="fit approximation exponents")
    _add_system_args(p)
    p.add_argument("--side", choices=("primal", "dual", "both"), default="both")
    p.add_argument("--t-max", type=int, default=1000)
    _add_common(p, formats=False)
    p.set_defaults(fn=_cmd_estimate)

    p = sub.add_parser("transfer", help="one constructive transference step")
    p.add_argument(
        "operation",
        choices=("mahler", "asymmetric", "lemma", "lemma3d", "semicore", "alphas-core"),
    )
    _add_system_args(p)
    p.add_argument("--X")
    p.add_argument("--U")
    p.add_argument("--k", type=int, help="asymmetric: 0-based dual coordinate")
    p.add_argument("--v1")
    p.add_argument("--v2")
    p.add_argument("--h")
    p.add_argument("--r")
    p.add_argument("--t")
    p.add_argument("--Phi")
    p.add_argument("--Psi")
    p.add_argument("--direction", type=int, choices=(1, -1), default=1)
    p.add_argument("--phi", help="function spec family:coeff:exponent[:log_exponent]")
    p.add_argument("--psi", help="function spec family:coeff:exponent[:log_exponent]")
    p.add_argument("--budget", type=int, default=DEFAULT_ENUM_BUDGET)
    _add_common(p, formats=False)
    p.set_defaults(fn=_cmd_transfer)

    p = sub.add_parser("verify-certificate", help="re-check a serialized certificate")
    p.add_argument("file")
    _add_common(p, formats=False)
    p.set_defaults(fn=_cmd_verify_certificate)

    p = sub.add_parser("campaign", help="randomized verification campaign")
    p.add_argument("--family", choices=CAMPAIGNS, required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dims", type=int, nargs="+", default=[2, 3, 4, 5])
    p.add_argument("--tier", choices=("fast", "standard", "deep"), default="fast")
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    _add_common(p, formats=True)
    p.set_defaults(fn=_cmd_campaign)

    return parser


def _apply_config(parser: argparse.ArgumentParser, argv: Sequence[str]) -> Sequence[str]:
    """Pull --config out of argv and fold its values in as flag defaults."""
    argv = list(argv)
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    try:
        values = _read_config(argv[idx + 1])
    except IndexError:
        raise UsageError("--config requires a path")
    except UnicodeDecodeError as exc:
        raise UsageError(f"config file is not UTF-8 text: {exc}") from exc
    del argv[idx : idx + 2]
    extra = []
    for key, val in sorted(values.items()):
        flag = "--" + key.replace("_", "-")
        if flag not in argv:
            extra.extend([flag, val])
    # config values go before explicit flags so the command line wins on
    # parsers that take the last occurrence
    return argv[:1] + extra + argv[1:] if argv else extra


def run(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 1
    except HypothesisViolated as exc:
        print(f"hypothesis violated: {exc}", file=sys.stderr)
        return 2
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3
    except DioTransError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
