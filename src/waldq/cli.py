"""Command-line front ends.

``wald`` runs verification campaigns and emits deterministic reports;
``hecke`` convolves basis elements of the spherical algebra; ``quadform``
classifies a symmetric matrix over the power-series ring.  Each setting of
``wald``, and the ``--q`` of the other two, is read from its flag if given,
else from its environment variable (``WALDQ_`` and the flag upper-cased, so
``--D`` gives ``WALDQ_D``), else from the ``SessionConfig`` default.  Each
``wald`` subcommand has a flag for each of its campaign's ``knobs`` and for
the run settings ``--workers``, ``--out`` and ``--format``.  All three exit 2
on a bad input, a flag the subcommand does not declare included (refused after
the subcommand's usage line; the same setting from the environment is only a
default), and 1 on an undetermined ``quadform`` answer.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .campaigns import (
    CAMPAIGN_TABLE,
    MAX_WORKERS,
    ConfigInvalid,
    SessionConfig,
    _dumps,
    render_report,
    run_campaign,
    single_eigen_report,
)
from .hecke import HeckeElement, convolve
from .lattice import Coweight
from .quadform import (
    PrecisionExhausted,
    SymMatrixO,
    covering_type,
    default_precision,
    diagonalize,
)
from .scalars import VARS
from .series import _check_q
from .waldspurger import CharacterParams

# ``quadform classify`` refuses a larger val(det): the default precision is
# twice it, and the diagonalization's unit inverses allocate lists that long.
MAX_DET_VALUATION = 10**5

# ``hecke convolve`` refuses a wider coweight (lam1 - lam2): the structure
# constants take time and memory quadratic in the width: 1.0-1.4 s and 42 MB
# for (500,0) * (500,0), and 20 s and 657 MB at width 2000.
MAX_COWEIGHT_WIDTH = 500

# A single ``wald eigen`` run refuses a value (``--e1``, ``--alpha``, ...)
# whose text spells a numerator or denominator with more digits, a decimal
# exponent counting as its zeros; checked before the Fraction is built, which
# alone took 8.3 s for "1e10000000".  At --D 30 with every numerator and
# denominator at the bound, the check takes 0.86 s split and 0.72 s
# ramified, about as long as the batch ``eigen --D 30`` (0.68 s; ``bench.py``
# configs ``eigen-digits-bound`` and ``eigen-bound``, ``run_s``); at 100
# digits it took 1.1-1.4 s, at 1000 digits 36 s.
MAX_RATIONAL_DIGITS = 50


#: One row per SessionConfig field: its flags, then the rest of its
#: ``add_argument`` call.  A flag has no parser default, so one that was given
#: shows in the parsed arguments; ``_resolve`` fills in the rest.
_SETTINGS = {
    "q": (("--q",), dict(type=int, help="odd prime residue size")),
    "kind": (("--kind",), dict(help="algebra kind: split or ramified")),
    "dmax": (("--dmax",), dict(type=int, help="degree bound")),
    "mmax": (("--mmax",), dict(type=int, help="orbit-index bound")),
    "depth": (
        ("--D", "--depth"),
        dict(type=int, help="truncation depth for matrix/eigen campaigns"),
    ),
    "seed": (("--seed",), dict(type=int, help="RNG seed for planned draws")),
    "workers": (("--workers",), dict(type=int, help=f"process-pool size, 1 to {MAX_WORKERS}")),
    "out": (("--out",), dict(help="write the report to this path")),
    "fmt": (
        ("--format",),
        dict(
            choices=("ndjson", "json", "csv"),
            help="report serialization (json is an alias for ndjson)",
        ),
    ),
}


def _add_settings(parser, fields):
    for field in fields:
        flags, opts = _SETTINGS[field]
        parser.add_argument(*flags, dest=field, default=argparse.SUPPRESS, **opts)


def _resolve(args, field):
    """The field's flag value if given, else its variable's, else the SessionConfig default."""
    if field in args:
        return getattr(args, field)
    flags, opts = _SETTINGS[field]
    var = "WALDQ_" + flags[0].lstrip("-").upper()
    raw = os.environ.get(var)
    if raw is None:
        return getattr(SessionConfig, field)
    if opts.get("type") is not int:
        return raw
    try:
        return int(raw)
    except ValueError:
        raise ConfigInvalid(f"{var} must be an integer, got {raw!r}") from None


def _program(prog, description, **opts):
    parser = argparse.ArgumentParser(prog=prog, description=description)
    return parser, parser.add_subparsers(dest="command", required=True, **opts)


def _build_wald_parser(argv):
    """The ``wald`` parser, with the flags of the subcommand that ARGV names only.

    Every subcommand is registered with its help; the one named by the first
    argument that does not start with ``-`` also gets its flags, so a run
    builds no other subcommand's.
    """
    parser, sub = _program(
        "wald", "Batch verification campaigns for lattice-orbit combinatorics.", metavar="CAMPAIGN"
    )
    named = next((arg for arg in argv if not arg.startswith("-")), None)
    for campaign in CAMPAIGN_TABLE:
        name = campaign.name
        p = sub.add_parser(name, aliases=campaign.aliases, help=campaign.help)
        p.set_defaults(command=name)
        if named not in (name, *campaign.aliases):
            continue
        _add_settings(p, (*campaign.knobs, "workers", "out", "fmt"))
        if name == "ic-basis":
            p.add_argument(
                "--d", dest="dmax", type=int, help="alias for --dmax", default=argparse.SUPPRESS
            )
        if name == "eigen":
            p.add_argument("--e1", default=None, help="first eigenvalue (a rational) for a single run")
            for var in VARS:
                p.add_argument(f"--{var}", default=None, help=f"{var} value for a single run")
    return parser, sub.choices


def _parse(parser, subparsers, argv):
    args, extras = parser.parse_known_args(argv)
    if extras:
        # argparse leaves a subcommand's unknown flags to the top-level
        # parser; the subcommand's own usage line names the flags it takes
        subparsers[args.command].error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def _main(prog, run, argv) -> int:
    try:
        return run(argv)
    except PrecisionExhausted as exc:
        print(f"{prog}: undetermined: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:  # ConfigInvalid is a ValueError
        print(f"{prog}: error: {exc}", file=sys.stderr)
        return 2


def _check_digits(flag, text):
    """Refuse TEXT when it spells a numerator or denominator past MAX_RATIONAL_DIGITS."""
    num, _slash, den = text.partition("/")
    mantissa, _e, exp = num.lower().partition("e")
    whole, _dot, frac = mantissa.partition(".")
    shift = -len(frac)  # the value is int(whole + frac) * 10**shift / den
    if len(exp.lstrip("+-").lstrip("0")) > len(str(MAX_RATIONAL_DIGITS)) + 1:
        # two digits more than the bound has, past its sign and leading zeros: past it
        shift = MAX_RATIONAL_DIGITS + 1
    elif exp:
        try:
            shift += int(exp)
        except ValueError:
            return  # not a rational: Fraction refuses it
    top = sum(ch.isdigit() for ch in whole + frac) + max(shift, 0)
    bottom = (sum(ch.isdigit() for ch in den) or 1) + max(-shift, 0)
    if max(top, bottom) > MAX_RATIONAL_DIGITS:
        raise ConfigInvalid(
            f"{flag} has a numerator or denominator of more than {MAX_RATIONAL_DIGITS} digits"
        )


def _single_eigen(cfg, args):
    if args.e1 is None:
        raise ConfigInvalid("--alpha/--beta/--gamma apply only to a single eigen run with --e1")
    given = {n: getattr(args, n) for n in VARS if getattr(args, n) is not None}
    _check_digits("--e1", args.e1)
    for name, text in given.items():
        _check_digits(f"--{name}", text)
    try:
        values = {name: Fraction(text) for name, text in given.items()}
        Fraction(args.e1)
    except (ValueError, ZeroDivisionError):
        raise ConfigInvalid("eigen parameters must be rationals like 5 or 7/2") from None
    # rejects a missing, stray or zero value; rows keep the given text
    params = CharacterParams(cfg.kind, symbolic=False, assignment=values)
    rows = [(name, given[name]) for name, _v in params.assignment]
    return single_eigen_report(cfg, args.e1, rows)


def _write(path, text, mode):
    try:
        with open(path, mode, encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigInvalid(f"cannot write the report to {path}: {exc.strerror}") from None


def _emit(report, cfg) -> int:
    text = render_report(report, cfg.fmt)
    if cfg.out:
        _write(cfg.out, text, "w")
    else:
        sys.stdout.write(text)
    return 0 if report["summary"]["pass"] else 1


def _wald(argv):
    if argv is None:
        argv = sys.argv[1:]
    args = _parse(*_build_wald_parser(argv), argv)
    cfg = SessionConfig(**{f: _resolve(args, f) for f in _SETTINGS}).validate()
    if cfg.out:
        new = not os.path.lexists(cfg.out)
        _write(cfg.out, "", "a")  # before any cell runs; keeps an existing report
        if new:
            os.remove(cfg.out)
    if args.command == "eigen" and (args.e1, args.alpha, args.beta, args.gamma) != (None,) * 4:
        return _emit(_single_eigen(cfg, args), cfg)
    return _emit(run_campaign(args.command, cfg), cfg)


def _hecke(argv):
    parser, sub = _program("hecke", "Spherical convolution of basis elements.")
    conv = sub.add_parser("convolve", help="convolve two basis elements")
    _add_settings(conv, ("q",))
    conv.add_argument("--lhs", required=True, help='dominant pair like "(2,0)"')
    conv.add_argument("--rhs", required=True, help='dominant pair like "(1,1)"')
    args = _parse(parser, sub.choices, argv)
    q = _resolve(args, "q")
    _check_q(q)
    lhs, rhs = Coweight.parse(args.lhs), Coweight.parse(args.rhs)
    for name, cw in (("--lhs", lhs), ("--rhs", rhs)):
        if cw.a1 - cw.a2 > MAX_COWEIGHT_WIDTH:
            raise ValueError(f"{name} {cw} exceeds the width limit {MAX_COWEIGHT_WIDTH}")
    print(_dumps(convolve(HeckeElement.basis(q, lhs), HeckeElement.basis(q, rhs)).to_json()))
    return 0


def _quadform(argv):
    parser, sub = _program("quadform", "Classify a symmetric matrix over the power-series ring.")
    cls = sub.add_parser("classify", help="diagonal invariant and covering type")
    _add_settings(cls, ("q",))
    cls.add_argument(
        "--matrix",
        required=True,
        help='JSON rows [[b11,b12],[b12,b22]], entries {"offset":k,"coeffs":[...]}',
    )
    cls.add_argument("--precision", type=int, default=None)
    args = _parse(parser, sub.choices, argv)
    q = _resolve(args, "q")
    try:
        entries = SymMatrixO._json_entries(q, json.loads(args.matrix))
    except (json.JSONDecodeError, RecursionError) as exc:  # RecursionError: nested too deep
        raise ValueError(f"--matrix must be JSON rows [[b11,b12],[b12,b22]]: {exc}") from None
    # checked before the exact determinant, whose size grows with the top terms
    top = 2 * MAX_DET_VALUATION + 2
    if any(e.degree() >= top for e in entries):
        raise ValueError(
            f"an entry has a term at or above t^{top}, which classify reads only "
            f"when val(det) exceeds the limit {MAX_DET_VALUATION}"
        )
    mat = SymMatrixO(*entries)
    if mat.det_valuation > MAX_DET_VALUATION:
        raise ValueError(f"val(det) = {mat.det_valuation} exceeds the limit {MAX_DET_VALUATION}")
    # the invariants are fixed once the precision exceeds val(det), which
    # the default precision does: a larger one only costs time and memory
    prec = args.precision
    inv, _a, _eps = diagonalize(mat, prec if prec is None else min(prec, default_precision(mat)))
    cover, in_scope = covering_type(inv, q)
    fields = {"a": inv.a, "b": inv.b, "delta": inv.delta.value, "cover": cover.value}
    print(_dumps({**fields, "in_scope": in_scope}))
    return 0


def wald_main(argv=None) -> int:
    return _main("wald", _wald, argv)


def hecke_main(argv=None) -> int:
    return _main("hecke", _hecke, argv)


def quadform_main(argv=None) -> int:
    return _main("quadform", _quadform, argv)


if __name__ == "__main__":
    sys.exit(wald_main())
