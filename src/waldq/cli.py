"""Command-line front ends.

``wald`` runs verification campaigns and emits deterministic reports;
``hecke`` convolves basis elements of the spherical algebra; ``quadform``
classifies a symmetric matrix over the power-series ring.  Every flag of
``wald`` can also be set through a ``WALDQ_``-prefixed environment variable
(the flag wins when both are given).  An explicit ``--q``, ``--dmax``,
``--mmax`` or ``--D`` that the campaign does not read exits 2; the same
setting from the environment is a default, and is not refused.
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


def _env(name):
    return os.environ.get("WALDQ_" + name)


def _env_int(name, fallback):
    raw = _env(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ConfigInvalid(f"WALDQ_{name} must be an integer, got {raw!r}") from None


def _env_str(name, fallback):
    raw = _env(name)
    return fallback if raw is None else raw


#: Per campaign knob (``Campaign.knobs``): its flag, environment variable
#: and fallback.  The flags have no parser default, so a flag that was given
#: shows in the parsed arguments and one that was not does not.
_KNOB_FLAGS = {
    "q": ("--q", "Q", 3),
    "dmax": ("--dmax", "DMAX", 5),
    "mmax": ("--mmax", "MMAX", 5),
    "depth": ("--D", "D", 6),
}


def _add_common(sub):
    unset = argparse.SUPPRESS
    sub.add_argument("--q", type=int, default=unset, help="odd prime residue size")
    sub.add_argument(
        "--kind",
        default=_env_str("KIND", "split"),
        help="algebra kind: split or ramified",
    )
    sub.add_argument("--dmax", type=int, default=unset, help="degree bound")
    sub.add_argument("--mmax", type=int, default=unset, help="orbit-index bound")
    sub.add_argument(
        "--D",
        "--depth",
        dest="depth",
        type=int,
        default=unset,
        help="truncation depth for matrix/eigen campaigns",
    )
    sub.add_argument("--seed", type=int, default=_env_int("SEED", 0), help="RNG seed for planned draws")
    sub.add_argument(
        "--workers", type=int, default=_env_int("WORKERS", 1), help=f"process-pool size, 1 to {MAX_WORKERS}"
    )
    sub.add_argument("--out", default=_env_str("OUT", None), help="write the report to this path")
    sub.add_argument(
        "--format",
        dest="fmt",
        choices=("ndjson", "json", "csv"),
        default=_env_str("FORMAT", "ndjson"),
        help="report serialization (json is an alias for ndjson)",
    )


def _build_wald_parser():
    parser = argparse.ArgumentParser(
        prog="wald",
        description="Batch verification campaigns for lattice-orbit combinatorics.",
    )
    sub = parser.add_subparsers(dest="campaign", required=True, metavar="CAMPAIGN")
    for campaign in CAMPAIGN_TABLE:
        name = campaign.name
        p = sub.add_parser(name, aliases=campaign.aliases, help=campaign.help)
        p.set_defaults(campaign=name)
        _add_common(p)
        if name == "ic-basis":
            p.add_argument(
                "--d", dest="dmax", type=int, help="alias for --dmax", default=argparse.SUPPRESS
            )
        if name == "eigen":
            p.add_argument("--e1", default=None, help="first eigenvalue (a rational) for a single run")
            for var in VARS:
                p.add_argument(f"--{var}", default=None, help=f"{var} value for a single run")
    return parser


def _fill_knobs(name, args):
    """Refuse an explicit knob flag the campaign does not read; default the rest.

    A ``WALDQ_`` variable only sets a default, so it is never refused.
    """
    uses = next(c.knobs for c in CAMPAIGN_TABLE if c.name == name)
    given = vars(args)
    for knob, (flag, env, fallback) in _KNOB_FLAGS.items():
        if knob not in given:
            setattr(args, knob, _env_int(env, fallback))
        elif knob not in uses:
            flags = " ".join(_KNOB_FLAGS[k][0] for k in uses)
            raise ConfigInvalid(f"{name} does not use {flag} (it uses {flags})")


def _single_eigen(cfg, args):
    if args.e1 is None:
        raise ConfigInvalid("--alpha/--beta/--gamma apply only to a single eigen run with --e1")
    given = {n: getattr(args, n) for n in VARS if getattr(args, n) is not None}
    try:
        values = {name: Fraction(text) for name, text in given.items()}
        Fraction(args.e1)
    except (ValueError, ZeroDivisionError):
        raise ConfigInvalid("eigen parameters must be rationals like 5 or 7/2") from None
    # rejects a missing, stray or zero value; rows keep the given text
    params = CharacterParams(cfg.kind, symbolic=False, assignment=values)
    rows = [(name, given[name]) for name, _v in params.assignment]
    return single_eigen_report(cfg, args.e1, rows)


def _emit(report, cfg) -> int:
    text = render_report(report, cfg.fmt)
    if cfg.out:
        try:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigInvalid(f"cannot write the report to {cfg.out}: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
    return 0 if report["summary"]["pass"] else 1


def wald_main(argv=None) -> int:
    try:
        parser = _build_wald_parser()
        args = parser.parse_args(argv)
        name = args.campaign
        _fill_knobs(name, args)
        cfg = SessionConfig(
            q=args.q,
            kind=args.kind,
            dmax=args.dmax,
            mmax=args.mmax,
            depth=args.depth,
            seed=args.seed,
            workers=args.workers,
            out=args.out,
            fmt=args.fmt,
        ).validate()
        if cfg.out and not os.path.isdir(os.path.dirname(os.path.abspath(cfg.out))):
            raise ConfigInvalid(f"cannot write the report to {cfg.out}: no such directory")
        if name == "eigen" and (args.e1, args.alpha, args.beta, args.gamma) != (None,) * 4:
            report = _single_eigen(cfg, args)
        else:
            report = run_campaign(name, cfg)
        return _emit(report, cfg)
    except (ConfigInvalid, ValueError) as exc:
        print(f"wald: error: {exc}", file=sys.stderr)
        return 2


def hecke_main(argv=None) -> int:
    try:
        parser = argparse.ArgumentParser(
            prog="hecke", description="Spherical convolution of basis elements."
        )
        sub = parser.add_subparsers(dest="command", required=True)
        conv = sub.add_parser("convolve", help="convolve two basis elements")
        conv.add_argument("--q", type=int, default=_env_int("Q", 3))
        conv.add_argument("--lhs", required=True, help='dominant pair like "(2,0)"')
        conv.add_argument("--rhs", required=True, help='dominant pair like "(1,1)"')
        args = parser.parse_args(argv)
        _check_q(args.q)
        lhs = Coweight.parse(args.lhs)
        rhs = Coweight.parse(args.rhs)
        out = convolve(
            HeckeElement.basis(args.q, lhs), HeckeElement.basis(args.q, rhs)
        )
        print(json.dumps(out.to_json(), sort_keys=True, separators=(",", ":")))
        return 0
    except ValueError as exc:
        print(f"hecke: error: {exc}", file=sys.stderr)
        return 2


def quadform_main(argv=None) -> int:
    try:
        parser = argparse.ArgumentParser(
            prog="quadform",
            description="Classify a symmetric matrix over the power-series ring.",
        )
        sub = parser.add_subparsers(dest="command", required=True)
        cls = sub.add_parser("classify", help="diagonal invariant and covering type")
        cls.add_argument("--q", type=int, default=_env_int("Q", 3))
        cls.add_argument(
            "--matrix",
            required=True,
            help='JSON rows [[b11,b12],[b12,b22]], entries {"offset":k,"coeffs":[...]}',
        )
        cls.add_argument("--precision", type=int, default=None)
        args = parser.parse_args(argv)
        entries = SymMatrixO._json_entries(args.q, json.loads(args.matrix))
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
        cover, in_scope = covering_type(inv, args.q)
        print(
            json.dumps(
                {
                    "a": inv.a,
                    "b": inv.b,
                    "delta": inv.delta.value,
                    "cover": cover.value,
                    "in_scope": in_scope,
                },
                sort_keys=True,
                separators=(",", ":"),
            )
        )
        return 0
    except PrecisionExhausted as exc:
        print(f"quadform: undetermined: {exc}", file=sys.stderr)
        return 1
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"quadform: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(wald_main())
