"""Command-line front ends: exit codes, report formats, determinism."""

import contextlib
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from waldq import campaigns, cli, hecke
from waldq.campaigns import MAX_DEGREE, MAX_ISOTROPIC_Q, MAX_WORKERS
from waldq.cli import (
    MAX_COWEIGHT_WIDTH,
    MAX_DET_VALUATION,
    MAX_RATIONAL_DIGITS,
    hecke_main,
    quadform_main,
    wald_main,
)
from waldq.hecke import HeckeElement, convolve
from waldq.lattice import Coweight
from waldq.quadform import SymMatrixO, diagonalize
from waldq.scalars import VARS
from waldq.series import LaurentPoly
from waldq.waldspurger import WaldModel


#: The flags of a ``wald`` subcommand besides its knobs and the run settings.
EXTRA_FLAGS = {"ic-basis": {"--d"}, "eigen": {"--e1", *(f"--{v}" for v in VARS)}}


def declared_flags(campaign):
    """Every flag of the campaign's ``wald`` subcommand but ``-h``/``--help``."""
    fields = (*campaign.knobs, "workers", "out", "fmt")
    return {flag for field in fields for flag in cli._SETTINGS[field][0]} | EXTRA_FLAGS.get(
        campaign.name, set()
    )


#: quadform's JSON for the hyperbolic plane [[0,1],[1,0]] at q=3
HYPERBOLIC = json.dumps(SymMatrixO.from_entries(3, {}, {0: 1}, {}).to_json())


def run_wald(capsys, *argv):
    rc = wald_main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def parse_ndjson(text):
    return [json.loads(line) for line in text.strip().splitlines()]


class TestWaldBasics:
    def test_min_orbit_passes(self, capsys):
        rc, out, err = run_wald(capsys, "min-orbit", "--dmax", "3", "--mmax", "3")
        assert rc == 0, err
        lines = parse_ndjson(out)
        assert lines[0]["type"] == "header"
        assert lines[0]["campaign"] == "min-orbit"
        assert lines[-1]["type"] == "summary"
        assert lines[-1]["pass"] is True
        cells = [l for l in lines if l["type"] == "cell"]
        assert len(cells) == 16
        assert all(c["pass"] is True for c in cells)
        assert all(
            set(c) >= {"cell", "claim", "expected", "computed", "basis", "pass"}
            for c in cells
        )

    def test_alias_verify_min_orbit(self, capsys):
        rc1, out1, _ = run_wald(capsys, "min-orbit", "--dmax", "2", "--mmax", "2")
        rc2, out2, _ = run_wald(capsys, "verify-min-orbit", "--dmax", "2", "--mmax", "2")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_every_campaign_small(self, capsys):
        small = {
            "min-orbit": ["--dmax", "2", "--mmax", "2"],
            "stratum-dim": ["--dmax", "2", "--mmax", "2"],
            "counts": ["--dmax", "2"],
            "hecke-tables": [],
            "ic-basis": ["--dmax", "2"],
            "multone": ["--D", "3"],
            "cs-matrix": ["--D", "3"],
            "module-axiom": [],
            "eigen": ["--D", "3"],
            "quadform-orbits": ["--q", "5"],
            "isotropic": [],
        }
        for name, extra in small.items():
            rc, out, err = run_wald(capsys, name, *extra)
            assert rc == 0, (name, err)
            lines = parse_ndjson(out)
            assert lines[-1]["pass"] is True, name

    def test_bad_q_exits_2(self, capsys):
        rc, _, err = run_wald(capsys, "min-orbit", "--q", "4")
        assert rc == 2
        assert "wald: error:" in err

    def test_large_prime_q_runs(self, capsys):
        # 2^61 - 1: the primality check must not take time growing with sqrt(q)
        q = str(2**61 - 1)
        rc, out, err = run_wald(capsys, "min-orbit", "--q", q, "--dmax", "2", "--mmax", "2")
        assert rc == 0, err
        assert parse_ndjson(out)[-1]["pass"] is True

    def test_q_past_the_exact_primality_range_exits_2(self, capsys):
        rc, out, err = run_wald(capsys, "min-orbit", "--q", str(10**25 + 13))
        assert rc == 2
        assert out == ""
        assert "wald: error: q must be below" in err

    def test_bad_kind_exits_2(self, capsys):
        rc, _, err = run_wald(capsys, "min-orbit", "--kind", "cubic")
        assert rc == 2
        assert "wald: error:" in err

    def test_stratum_dim_past_probe_primes_exits_2(self, capsys):
        # a fit at invariant 6 would need an eighth probe prime
        rc, out, err = run_wald(capsys, "stratum-dim", "--dmax", "6", "--mmax", "6")
        assert rc == 2
        assert out == ""
        assert "wald: error:" in err

    @pytest.mark.parametrize(
        "argv, field",
        [
            pytest.param(argv, field, id=f"argv{i}")
            for i, (argv, field) in enumerate(
                [
                    (["ic-basis", "--dmax", "100000"], "dmax"),
                    (["ic-basis", "--d", str(MAX_DEGREE + 1)], "dmax"),
                    (["multone", "--D", "100000"], "depth"),
                    (["cs-matrix", "--D", "100000"], "depth"),
                    (["eigen", "--D", str(MAX_DEGREE + 1)], "depth"),
                    (["eigen", "--e1", "2", "--alpha", "1", "--beta", "1", "--D", "100000"], "depth"),
                    (["min-orbit", "--dmax", "100000", "--mmax", "100000"], "dmax"),
                    (["min-orbit", "--mmax", str(MAX_DEGREE + 1)], "mmax"),
                    (["stratum-dim", "--dmax", "0", "--mmax", "100000000"], "mmax"),
                    (["counts", "--dmax", str(MAX_DEGREE + 1)], "dmax"),
                ]
            )
        ],
    )
    def test_degree_past_the_limit_exits_2_before_any_cell(self, capsys, monkeypatch, argv, field):
        def refuse(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(WaldModel, "act", refuse)
        monkeypatch.setattr(campaigns, "_run_cell", refuse)
        start = time.perf_counter()
        rc, out, err = run_wald(capsys, *argv)
        assert time.perf_counter() - start < 1.0
        assert rc == 2 and out == ""
        assert f"wald: error: {field} = " in err
        assert f"exceeds the limit {MAX_DEGREE}" in err

    @pytest.mark.parametrize("q", [47, 1000000007])
    def test_isotropic_q_past_the_limit_exits_2_before_any_cell(self, capsys, monkeypatch, q):
        # 47 is the next prime above the limit 43
        def refuse(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(campaigns, "_run_cell", refuse)
        rc, out, err = run_wald(capsys, "isotropic", "--q", str(q))
        assert rc == 2 and out == ""
        assert f"wald: error: isotropic scans q^2 forms in each of q cells: q = {q} " in err
        assert f"exceeds the limit {MAX_ISOTROPIC_Q}" in err

    def test_isotropic_q_at_the_limit_runs_and_passes(self, capsys):
        rc, out, err = run_wald(capsys, "isotropic", "--q", str(MAX_ISOTROPIC_Q))
        assert rc == 0, err
        lines = parse_ndjson(out)
        assert lines[-1] == {"cells": MAX_ISOTROPIC_Q, "failed": 0, "pass": True, "type": "summary"}

    def test_degree_at_the_limit_is_planned(self):
        cfg = campaigns.SessionConfig(dmax=MAX_DEGREE, mmax=MAX_DEGREE, depth=MAX_DEGREE).validate()
        for name in ("ic-basis", "multone", "cs-matrix", "eigen", "min-orbit", "counts"):
            assert campaigns.plan(name, cfg)
        # stratum-dim's fits stop at min(dmax, mmax) = 5, where the probe primes run out
        assert campaigns.plan("stratum-dim", campaigns.SessionConfig(dmax=MAX_DEGREE, mmax=5))

    def test_each_campaign_refuses_exactly_the_knobs_it_does_not_read(self, capsys, monkeypatch):
        knobs = ("q", "kind", "dmax", "mmax", "depth", "seed")
        refused = {(c.name, k) for c in campaigns.CAMPAIGN_TABLE for k in knobs} - {
            (c.name, k) for c in campaigns.CAMPAIGN_TABLE for k in c.knobs
        }
        forms = {(n, k) for n in ("quadform-orbits", "hecke-tables", "isotropic") for k in ("kind", "dmax", "mmax", "depth")}
        unseeded = {(n, "seed") for n in ("min-orbit", "stratum-dim", "counts", "ic-basis", "multone", "cs-matrix", "isotropic")}
        assert forms | unseeded | {("stratum-dim", "q"), ("counts", "kind")} <= refused
        ran = []
        monkeypatch.setattr(cli, "run_campaign", lambda name, cfg: ran.append(name) or {})
        monkeypatch.setattr(cli, "_emit", lambda report, cfg: 0)
        flags = (
            ("q", "--q", "5"),
            ("kind", "--kind", "ramified"),
            ("dmax", "--dmax", "5"),
            ("mmax", "--mmax", "5"),
            ("depth", "--D", "5"),
            ("depth", "--depth", "5"),
            ("seed", "--seed", "5"),
        )
        for campaign in campaigns.CAMPAIGN_TABLE:
            for knob, flag, value in flags:
                if (campaign.name, knob) in refused:
                    with pytest.raises(SystemExit) as exc:
                        wald_main([campaign.name, flag, value])
                    out, err = capsys.readouterr()
                    assert exc.value.code == 2 and out == ""
                    assert f"unrecognized arguments: {flag} {value}" in err
                    # the subcommand's usage line, with the flags it does take
                    assert err.startswith(f"usage: wald {campaign.name} "), err
                    assert f"wald {campaign.name}: error: " in err
                else:
                    rc, out, err = run_wald(capsys, campaign.name, flag, value)
                    assert rc == 0, (campaign.name, flag, err)
        # no refused flag reached a campaign
        assert len(ran) == sum(len(c.knobs) + c.knobs.count("depth") for c in campaigns.CAMPAIGN_TABLE)

    @pytest.mark.parametrize("campaign", campaigns.CAMPAIGN_TABLE, ids=campaigns.CAMPAIGNS)
    def test_help_lists_the_knobs_and_the_run_settings(self, capsys, campaign):
        with pytest.raises(SystemExit) as exc:
            wald_main([campaign.name, "--help"])
        assert exc.value.code == 0
        text = capsys.readouterr().out
        listed = set(re.findall(r"(?:^  |, )(--?[\w-]+)", text.split("options:")[1], re.M))
        assert listed == {"-h", "--help", *declared_flags(campaign)}

    def test_only_the_named_subcommand_gets_its_flags(self, capsys, monkeypatch):
        # the first argument that is not a flag names it, by name or alias
        for argv, named in (
            (["counts", "--q", "5"], "counts"),
            (["verify-min-orbit"], "min-orbit"),
            (["--help"], None),
        ):
            _parser, subparsers = cli._build_wald_parser(argv)
            assert set(subparsers) == {*campaigns.CAMPAIGNS, "verify-min-orbit"}
            for name, sub in subparsers.items():
                flags = {flag for action in sub._actions for flag in action.option_strings}
                owner = "min-orbit" if name == "verify-min-orbit" else name
                assert (flags > {"-h", "--help"}) == (owner == named), (argv, name)
        # wald_main() reads its arguments from sys.argv
        monkeypatch.setattr(sys, "argv", ["wald", "counts", "--q", "3", "--dmax", "1"])
        assert wald_main() == 0
        assert parse_ndjson(capsys.readouterr().out)[0]["dmax"] == 1

    def test_env_knobs_a_campaign_ignores_stay_silent(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_DMAX", "2")
        monkeypatch.setenv("WALDQ_MMAX", "2")
        monkeypatch.setenv("WALDQ_D", "3")
        rc, out, err = run_wald(capsys, "isotropic")
        assert rc == 0, err
        assert parse_ndjson(out)[0]["dmax"] == 2
        monkeypatch.setenv("WALDQ_Q", "5")
        rc, out, err = run_wald(capsys, "stratum-dim")
        assert rc == 0, err
        assert parse_ndjson(out)[0]["q"] == 5

    def test_bad_format_exits_2(self, capsys):
        # rejected by the argument parser before campaign dispatch
        with pytest.raises(SystemExit) as exc:
            wald_main(["min-orbit", "--format", "yaml"])
        assert exc.value.code == 2

    def test_unknown_campaign_exits_nonzero(self, capsys):
        with pytest.raises(SystemExit):
            wald_main(["definitely-not-a-campaign"])


#: Every flag of some ``wald`` subcommand, and every ``WALDQ_`` variable.
WALD_FLAGS = sorted(set().union(*(declared_flags(c) for c in campaigns.CAMPAIGN_TABLE)))
WALD_VARS = sorted("WALDQ_" + flags[0].lstrip("-").upper() for flags, _ in cli._SETTINGS.values())
#: Values: ints from -3 to 10^12, drawn near the degree bound as often as
#: from the whole range, and strings no integer setting accepts.
FUZZ_VALUES = st.one_of(
    st.integers(-3, 2 * MAX_DEGREE).map(str),
    st.integers(-3, 10**12).map(str),
    st.sampled_from(["x", "1.5", "ramified", "split", "csv", "7/2"]),
)


class TestWaldFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        name=st.sampled_from([n for c in campaigns.CAMPAIGN_TABLE for n in (c.name, *c.aliases)]),
        flags=st.lists(st.tuples(st.sampled_from(WALD_FLAGS), FUZZ_VALUES), max_size=3),
        env=st.dictionaries(st.sampled_from(WALD_VARS), FUZZ_VALUES, max_size=2),
    )
    def test_any_input_exits_0_or_2_within_the_declared_flags_and_bounds(self, name, flags, env):
        # planning runs, and no cell does: the planner's cells are dropped,
        # and a single eigen run gets a passing stand-in row
        real_plan, real_report = campaigns.plan, campaigns._report
        accepted = []

        def plan(campaign, cfg):
            real_plan(campaign, cfg)
            return []

        def report(campaign, cfg, rows):
            accepted.append(cfg)
            return real_report(campaign, cfg, rows)

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        argv = [name, *(x for pair in flags for x in pair)]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp, tempfile.TemporaryDirectory() as tmp:
            for var in [v for v in os.environ if v.startswith("WALDQ_")]:
                mp.delenv(var)
            for var, value in env.items():
                mp.setenv(var, value)
            mp.chdir(tmp)  # --out and WALDQ_OUT write here
            mp.setattr(campaigns, "plan", plan)
            mp.setattr(campaigns, "_report", report)
            mp.setattr(campaigns, "_cell_eigen", lambda cell, *args: {"cell": cell, "pass": True})
            mp.setattr(campaigns, "ProcessPoolExecutor", no_pool)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                try:
                    rc = wald_main(argv)
                except SystemExit as exc:
                    rc = exc.code
        assert rc in (0, 2), (argv, env, err.getvalue())
        assert "Traceback" not in err.getvalue()
        if rc == 0:
            campaign = next(c for c in campaigns.CAMPAIGN_TABLE if name in (c.name, *c.aliases))
            declared = declared_flags(campaign)
            for flag, _value in flags:
                # argparse also takes a prefix of exactly one declared flag
                assert flag in declared or sum(d.startswith(flag) for d in declared) == 1, argv
            (cfg,) = accepted
            assert max(cfg.dmax, cfg.mmax, cfg.depth) <= MAX_DEGREE, (argv, env)


#: The subcommand and declared flags of ``hecke`` and ``quadform``.
FRONT_ENDS = {
    "hecke": (hecke_main, "convolve", ("--lhs", "--rhs"), ("--q",)),
    "quadform": (quadform_main, "classify", ("--matrix",), ("--q", "--precision")),
}
#: Dominant pairs (lam1 >= lam2) as often as any pair, and text that is not a pair.
COWEIGHTS = st.one_of(
    st.tuples(st.integers(-3, 6), st.integers(0, 6)).map(lambda p: f"({p[0] + p[1]},{p[0]})"),
    st.tuples(st.integers(-3, 8), st.integers(-3, 8)).map(lambda p: f"({p[0]},{p[1]})"),
    st.sampled_from(["(1,", "1,0,2", "()", "(a,b)", "(1.5,0)"]),
)
#: Polynomial records: nonzero ones in O, and any.
UNIT_POLY = st.fixed_dictionaries(
    {
        "offset": st.integers(0, 3),
        "coeffs": st.lists(st.sampled_from([1, 2]), min_size=1, max_size=2),
    }
)
POLY = st.fixed_dictionaries(
    {"offset": st.integers(-2, 6), "coeffs": st.lists(st.integers(-4, 4), max_size=4)}
)


def matrix_rows(b11, b12, b21, b22):
    return json.dumps([[b11, b12], [b21, b22]])


#: Symmetric matrices (most of them classifiable), asymmetric ones, and JSON that is not one.
MATRICES = st.one_of(
    st.tuples(UNIT_POLY, UNIT_POLY, UNIT_POLY).map(lambda e: matrix_rows(e[0], e[1], e[1], e[2])),
    st.tuples(POLY, POLY, POLY).map(lambda e: matrix_rows(e[0], e[1], e[1], e[2])),
    st.tuples(POLY, POLY, POLY, POLY).map(lambda e: matrix_rows(*e)),
    st.sampled_from(["not json", "[]", "[[1]]", "null", "NaN", '{"offset":0}', "[[1,2],[2,3]]"]),
)
#: Odd primes as often as any fuzz value, so that some runs are accepted.
Q_VALUES = st.one_of(st.sampled_from(["3", "5", "7", "13"]), FUZZ_VALUES)
#: Values per flag: every declared flag of either program, and two no program declares.
FLAG_VALUES = {
    "--q": Q_VALUES,
    "--lhs": COWEIGHTS,
    "--rhs": COWEIGHTS,
    "--matrix": MATRICES,
    # small precisions leave some classifications undetermined
    "--precision": st.one_of(st.integers(1, 6).map(str), FUZZ_VALUES),
    "--kind": FUZZ_VALUES,
    "--seed": FUZZ_VALUES,
}
FLAG_PAIRS = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: FLAG_VALUES[flag].map(lambda value: (flag, value))
)


class TestHeckeQuadformFuzz:
    @settings(max_examples=300, deadline=None)
    @given(
        prog=st.sampled_from(sorted(FRONT_ENDS)),
        data=st.data(),
        env_q=st.one_of(st.none(), Q_VALUES),
    )
    def test_any_input_exits_0_1_or_2_and_refuses_undeclared_flags(self, prog, data, env_q):
        main, command, required, optional = FRONT_ENDS[prog]
        # each declared flag is given most of the time, so that some runs are accepted
        pairs = [
            (flag, data.draw(FLAG_VALUES[flag]))
            for flag in (*required, *optional)
            if data.draw(st.sampled_from([True, True, True, False]))
        ]
        pairs += data.draw(st.lists(FLAG_PAIRS, max_size=2))
        pairs = data.draw(st.permutations(pairs))
        argv = [command, *(x for pair in pairs for x in pair)]
        err = io.StringIO()
        with pytest.MonkeyPatch.context() as mp:
            for var in [v for v in os.environ if v.startswith("WALDQ_")]:
                mp.delenv(var)
            if env_q is not None:
                mp.setenv("WALDQ_Q", env_q)
            with contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(err):
                try:
                    rc = main(argv)
                except SystemExit as exc:
                    rc = exc.code
        err = err.getvalue()
        assert rc in ((0, 1, 2) if prog == "quadform" else (0, 2)), (argv, env_q, err)
        assert "Traceback" not in err
        if rc == 0:
            json.loads(out.getvalue())
        if rc == 1:
            assert err.startswith("quadform: undetermined: "), err
        if any(flag not in (*required, *optional) for flag, _value in pairs):
            assert rc == 2 and err.startswith(f"usage: {prog} {command} "), (argv, err)
            assert f"{prog} {command}: error: " in err


class TestFormats:
    def test_ndjson_keys_sorted(self, capsys):
        rc, out, _ = run_wald(capsys, "counts", "--dmax", "2")
        assert rc == 0
        for line in out.strip().splitlines():
            obj = json.loads(line)
            assert json.dumps(obj, sort_keys=True, separators=(",", ":")) == line

    def test_csv(self, capsys):
        rc, out, _ = run_wald(capsys, "counts", "--dmax", "2", "--format", "csv")
        assert rc == 0
        lines = out.strip().splitlines()
        assert lines[0] == "cell,claim,expected,computed,basis,pass"
        assert all(line.endswith(",true") for line in lines[1:])

    def test_json_alias_means_ndjson(self, capsys):
        rc1, out1, _ = run_wald(capsys, "counts", "--dmax", "2", "--format", "json")
        rc2, out2, _ = run_wald(capsys, "counts", "--dmax", "2", "--format", "ndjson")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.ndjson"
        rc, out, _ = run_wald(
            capsys, "counts", "--dmax", "2", "--out", str(target)
        )
        assert rc == 0
        assert out == ""
        lines = parse_ndjson(target.read_text())
        assert lines[0]["type"] == "header"
        assert lines[-1]["pass"] is True

    @pytest.mark.parametrize(
        "name, reason",
        [
            pytest.param(
                "missing/report.ndjson", "No such file or directory", id="missing/report.ndjson"
            ),
            pytest.param(".", "Is a directory", id="."),
            pytest.param("a" * 300, "File name too long", id="long-name"),
        ],
    )
    def test_out_unwritable_exits_2(self, capsys, monkeypatch, tmp_path, name, reason):
        # each is refused before the campaign runs, with the OS's reason
        def refuse(*args):
            raise AssertionError("a cell ran")

        monkeypatch.setattr(campaigns, "_run_cell", refuse)
        target = str(tmp_path / name)
        rc, out, err = run_wald(capsys, "counts", "--dmax", "2", "--out", target)
        assert rc == 2
        assert out == ""
        assert f"wald: error: cannot write the report to {target}: {reason}" in err
        assert not (tmp_path / "missing").exists()

    def test_refused_config_keeps_an_existing_report_and_makes_no_new_file(self, capsys, tmp_path):
        old = tmp_path / "old.ndjson"
        old.write_text("kept\n")
        for target in (old, tmp_path / "new.ndjson"):
            argv = ("stratum-dim", "--dmax", "6", "--mmax", "6", "--out", str(target))
            rc, out, err = run_wald(capsys, *argv)
            assert rc == 2 and out == "" and "probe primes" in err
        assert old.read_text() == "kept\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["old.ndjson"]


class TestDeterminism:
    def test_byte_identical_repeats(self, capsys):
        argv = ("module-axiom", "--seed", "7")
        rc1, out1, _ = run_wald(capsys, *argv)
        rc2, out2, _ = run_wald(capsys, *argv)
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_workers_do_not_change_bytes(self, capsys, monkeypatch):
        # these cells end well inside POOL_AFTER_S; at 0 the cells after the first go to a pool
        monkeypatch.setattr(campaigns, "POOL_AFTER_S", 0)
        rc1, out1, _ = run_wald(capsys, "ic-basis", "--dmax", "3", "--workers", "1")
        rc2, out2, _ = run_wald(capsys, "ic-basis", "--dmax", "3", "--workers", "2")
        assert rc1 == rc2 == 0
        assert out1 == out2

    def test_workers_above_the_limit_exit_2_before_any_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(campaigns, "ProcessPoolExecutor", no_pool)
        for workers in (MAX_WORKERS + 1, 100000):
            rc, out, err = run_wald(capsys, "min-orbit", "--workers", str(workers))
            assert rc == 2 and out == ""
            assert f"workers must be an integer from 1 to {MAX_WORKERS}" in err
        monkeypatch.setenv("WALDQ_WORKERS", str(MAX_WORKERS + 1))
        rc, _, err = run_wald(capsys, "min-orbit")
        assert rc == 2 and "workers" in err

    def test_pool_never_exceeds_the_cores_or_cells(self, capsys, monkeypatch):
        sizes = []

        class RecordingPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, cells, chunksize=1):
                return map(fn, cells)

        monkeypatch.setattr(campaigns, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(campaigns, "POOL_AFTER_S", 0)
        rc, out, _ = run_wald(capsys, "ic-basis", "--dmax", "3", "--workers", str(MAX_WORKERS))
        assert rc == 0
        _, want, _ = run_wald(capsys, "ic-basis", "--dmax", "3", "--workers", "1")
        assert out == want
        cells = len(campaigns.plan("ic-basis", campaigns.SessionConfig(dmax=3)))
        cores = os.cpu_count() or 1
        # the first cell runs here; one pool of at most as many processes as
        # cores runs the rest, or none on one core
        assert sizes == ([min(cores, cells - 1)] if cores > 1 else [])

    def test_cells_that_end_in_time_start_no_pool(self, capsys, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was built")

        monkeypatch.setattr(campaigns, "POOL_AFTER_S", float("inf"))
        monkeypatch.setattr(campaigns, "ProcessPoolExecutor", no_pool)
        rc, out, _ = run_wald(capsys, "min-orbit", "--workers", "2")
        assert rc == 0
        _, want, _ = run_wald(capsys, "min-orbit", "--workers", "1")
        assert out == want

    def test_pool_runs_the_cells_left(self, capsys, monkeypatch):
        pools = []  # [processes, cells mapped] per pool built

        class RecordingPool(campaigns.ProcessPoolExecutor):
            def __init__(self, max_workers):
                super().__init__(max_workers=max_workers)
                pools.append([max_workers, 0])

            def map(self, fn, cells, chunksize=1):
                cells = list(cells)
                pools[-1][1] = len(cells)
                return super().map(fn, cells, chunksize=chunksize)

        monkeypatch.setattr(campaigns, "POOL_AFTER_S", 0)
        monkeypatch.setattr(campaigns, "ProcessPoolExecutor", RecordingPool)
        rc, out, _ = run_wald(capsys, "min-orbit", "--workers", "2")
        assert rc == 0
        _, want, _ = run_wald(capsys, "min-orbit", "--workers", "1")
        assert out == want
        cells = len(campaigns.plan("min-orbit", campaigns.SessionConfig()))
        cores = os.cpu_count() or 1
        assert pools == ([[min(2, cores), cells - 1]] if cores > 1 else [])

    def test_seed_changes_random_cells(self, capsys):
        _, out1, _ = run_wald(capsys, "module-axiom", "--seed", "1")
        _, out2, _ = run_wald(capsys, "module-axiom", "--seed", "2")
        claims1 = [l["claim"] for l in parse_ndjson(out1) if l["type"] == "cell"]
        claims2 = [l["claim"] for l in parse_ndjson(out2) if l["type"] == "cell"]
        assert claims1 != claims2


#: A campaign whose 12 cells end well inside POOL_AFTER_S.
SMALL_MIN_ORBIT = ["min-orbit", "--q", "3", "--dmax", "3", "--mmax", "2"]

#: Imports waldq and runs two campaigns that start no pool, the second with
#: two workers but cells that end inside POOL_AFTER_S; the pool's modules
#: must stay unloaded throughout.
NO_POOL_SCRIPT = f"""
import contextlib, io, sys
import waldq, waldq.cli

def pool_modules():
    return [m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules]

assert not pool_modules(), pool_modules()
for argv in (["counts", "--q", "3", "--dmax", "2"], {SMALL_MIN_ORBIT!r} + ["--workers", "2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert waldq.cli.wald_main(argv) == 0, argv
    assert not pool_modules(), (argv, pool_modules())
"""

#: The tracer's pattern: read campaigns.ProcessPoolExecutor, subclass it and
#: assign the subclass back; with POOL_AFTER_S at 0 a two-worker run must
#: build its pool from the subclass and print the one-worker run's bytes.
SUBCLASSED_POOL_SCRIPT = f"""
import concurrent.futures, contextlib, io
from waldq import campaigns
from waldq.cli import wald_main

assert campaigns.ProcessPoolExecutor is concurrent.futures.ProcessPoolExecutor
built = []

class RecordingPool(campaigns.ProcessPoolExecutor):
    def __init__(self, max_workers):
        built.append(max_workers)
        super().__init__(max_workers=max_workers)

campaigns.ProcessPoolExecutor = RecordingPool
campaigns.POOL_AFTER_S = 0

def report(workers):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert wald_main({SMALL_MIN_ORBIT!r} + ["--workers", workers]) == 0, workers
    return out.getvalue()

one = report("1")
assert built == [], built
two = report("2")
assert built == [2], built
assert one == two
"""


def run_fresh(script):
    """Run SCRIPT in a fresh interpreter that imports this waldq and no WALDQ_ setting."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(campaigns.__file__)))
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"), "PYTHONPATH": root}
    return subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env
    )


class TestPoolImport:
    def test_run_without_a_pool_loads_none(self):
        out = run_fresh(NO_POOL_SCRIPT)
        assert out.returncode == 0, out.stderr

    @pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a two-worker pool needs two cores")
    def test_subclassed_pool_class_is_the_one_built(self):
        out = run_fresh(SUBCLASSED_POOL_SCRIPT)
        assert out.returncode == 0, out.stderr


class TestEnvOverrides:
    def test_env_sets_default(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_Q", "5")
        monkeypatch.setenv("WALDQ_DMAX", "2")
        monkeypatch.setenv("WALDQ_MMAX", "2")
        rc, out, _ = run_wald(capsys, "min-orbit")
        assert rc == 0
        header = parse_ndjson(out)[0]
        assert header["q"] == 5 and header["dmax"] == 2

    def test_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_Q", "5")
        rc, out, _ = run_wald(capsys, "min-orbit", "--q", "3", "--dmax", "1", "--mmax", "1")
        assert rc == 0
        assert parse_ndjson(out)[0]["q"] == 3

    @pytest.mark.parametrize(
        "field, campaign, flag, var, by_flag, by_var",
        [
            ("q", "min-orbit", "--q", "WALDQ_Q", 5, 7),
            ("kind", "min-orbit", "--kind", "WALDQ_KIND", "split", "ramified"),
            ("dmax", "min-orbit", "--dmax", "WALDQ_DMAX", 2, 3),
            ("mmax", "min-orbit", "--mmax", "WALDQ_MMAX", 2, 3),
            ("depth", "eigen", "--D", "WALDQ_D", 3, 4),
            ("seed", "module-axiom", "--seed", "WALDQ_SEED", 7, 11),
            ("workers", "min-orbit", "--workers", "WALDQ_WORKERS", 2, 3),
            ("out", "counts", "--out", "WALDQ_OUT", "flag.ndjson", "var.ndjson"),
            ("fmt", "counts", "--format", "WALDQ_FORMAT", "ndjson", "csv"),
        ],
    )
    def test_flag_then_variable_then_default(
        self, monkeypatch, tmp_path, field, campaign, flag, var, by_flag, by_var
    ):
        for name in [v for v in os.environ if v.startswith("WALDQ_")]:
            monkeypatch.delenv(name)
        monkeypatch.chdir(tmp_path)
        seen = []
        monkeypatch.setattr(cli, "run_campaign", lambda name, cfg: seen.append(getattr(cfg, field)))
        monkeypatch.setattr(cli, "_emit", lambda report, cfg: 0)
        assert wald_main([campaign]) == 0
        monkeypatch.setenv(var, str(by_var))
        assert wald_main([campaign]) == 0
        assert wald_main([campaign, flag, str(by_flag)]) == 0
        assert seen == [getattr(campaigns.SessionConfig(), field), by_var, by_flag]

    @pytest.mark.parametrize(
        "main, argv",
        [
            (hecke_main, ["convolve", "--lhs", "(1,0)", "--rhs", "(1,0)"]),
            (quadform_main, ["classify", "--matrix", HYPERBOLIC]),
        ],
    )
    def test_q_of_hecke_and_quadform_from_flag_then_variable(self, capsys, monkeypatch, main, argv):
        monkeypatch.setenv("WALDQ_Q", "4")
        assert main([*argv, "--q", "3"]) == 0
        capsys.readouterr()
        assert main(argv) == 2
        assert "error: q must be an odd prime, got 4" in capsys.readouterr().err

    def test_help_prints_with_a_malformed_variable(self, capsys, monkeypatch):
        # variables are read after parsing, so --help never reads them
        monkeypatch.setenv("WALDQ_SEED", "x")
        with pytest.raises(SystemExit) as exc:
            wald_main(["module-axiom", "--help"])
        assert exc.value.code == 0
        assert "--seed SEED" in capsys.readouterr().out
        rc, _, err = run_wald(capsys, "module-axiom")
        assert rc == 2 and "wald: error: WALDQ_SEED must be an integer, got 'x'" in err

    def test_env_bad_value_surfaces_as_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_KIND", "noneuclidean")
        rc, _, err = run_wald(capsys, "min-orbit")
        assert rc == 2 and "wald: error:" in err

    @pytest.mark.parametrize("name", [c.name for c in campaigns.CAMPAIGN_TABLE])
    def test_no_flags_give_the_session_config_report(self, capsys, monkeypatch, name):
        for var in [v for v in os.environ if v.startswith("WALDQ_")]:
            monkeypatch.delenv(var)
        if name == "quadform-orbits":
            # the default is the whole q=3 sweep (about 20 s): both sides plan
            # their cells, and a stand-in runs each one
            monkeypatch.setattr(campaigns, "_run_cell", lambda c: {"cell": repr(c), "pass": True})
        rc, out, err = run_wald(capsys, name)
        assert rc == 0, err
        want = campaigns.render_report(campaigns.run_campaign(name, campaigns.SessionConfig()))
        assert out == want


class TestSingleEigen:
    def test_split_single_run(self, capsys):
        rc, out, _ = run_wald(
            capsys,
            "eigen", "--D", "3", "--e1", "2", "--alpha", "5", "--beta", "7/2",
        )
        assert rc == 0
        lines = parse_ndjson(out)
        cells = [l for l in lines if l["type"] == "cell"]
        assert len(cells) == 1 and cells[0]["cell"] == "single"
        assert cells[0]["pass"] is True
        assert cells[0]["claim"] == (
            "truncated eigen-sum at depth 3 with e1=2, {'alpha': '5', 'beta': '7/2'} (split, q=3)"
        )

    def test_ramified_single_run(self, capsys):
        rc, out, _ = run_wald(
            capsys,
            "eigen", "--kind", "ramified", "--D", "3", "--e1", "3", "--gamma", "2",
        )
        assert rc == 0

    def test_missing_params_exit_2(self, capsys):
        rc, _, err = run_wald(capsys, "eigen", "--e1", "2", "--alpha", "5")
        assert rc == 2 and "beta" in err
        rc, _, err = run_wald(capsys, "eigen", "--kind", "ramified", "--e1", "2")
        assert rc == 2 and "gamma" in err
        rc, _, err = run_wald(capsys, "eigen", "--D", "2", "--alpha", "5")
        assert rc == 2 and "--e1" in err
        for bad in ("x", "1/0"):
            rc, _, err = run_wald(
                capsys, "eigen", "--e1", "2", "--alpha", bad, "--beta", "1"
            )
            assert rc == 2
            assert "eigen parameters must be rationals like 5 or 7/2" in err

    def test_huge_exponent_exits_2_at_once(self, capsys):
        # Fraction("1e100000") alone would build a 100,001-digit integer
        limit = f"of more than {MAX_RATIONAL_DIGITS} digits"
        for e1 in ("1e100000", "1e51", "1" * (MAX_RATIONAL_DIGITS + 1)):
            start = time.perf_counter()
            rc, out, err = run_wald(capsys, "eigen", "--e1", e1, "--alpha", "1", "--beta", "1")
            assert time.perf_counter() - start < 1.0
            assert rc == 2 and out == "", e1
            assert f"wald: error: --e1 has a numerator or denominator {limit}" in err

    @pytest.mark.parametrize("e1", ["1e+0001", "1e00001", "1e-00001"])
    def test_zero_padded_exponents_run(self, capsys, e1):
        # the exponent's sign and leading zeros add no digits: each value is 10 or 1/10
        rc, out, err = run_wald(capsys, "eigen", "--D", "2", "--e1", e1, "--alpha", "1", "--beta", "2")
        assert rc == 0, err
        assert parse_ndjson(out)[-1]["pass"] is True

    @pytest.mark.parametrize("flag", ["--e1", "--alpha", "--beta"])
    def test_values_at_the_digit_bound_run(self, capsys, flag):
        n = MAX_RATIONAL_DIGITS
        at = {"--e1": "9" * n, "--alpha": "1" * n + "/" + "7" * n, "--beta": f"1e{n - 1}"}
        rc, out, err = run_wald(capsys, "eigen", "--D", "3", *(x for kv in at.items() for x in kv))
        assert rc == 0, err
        # one digit more, in the numerator or the denominator, is refused
        for past in ("9" * (n + 1), "1/" + "7" * (n + 1), f"1e{n}", f"1e-{n}", f".{'0' * (n - 1)}1"):
            argv = (x for kv in {**at, flag: past}.items() for x in kv)
            rc, out, err = run_wald(capsys, "eigen", "--D", "3", *argv)
            assert rc == 2 and out == "", past
            assert f"{flag} has a numerator or denominator of more than {n} digits" in err

    def test_wrong_kind_params_exit_2(self, capsys):
        rc, _, err = run_wald(
            capsys,
            "eigen", "--kind", "ramified", "--e1", "2", "--gamma", "2", "--alpha", "1",
        )
        assert rc == 2
        rc, out, err = run_wald(
            capsys,
            "eigen", "--e1", "2", "--alpha", "5", "--beta", "7/2", "--gamma", "2",
        )
        assert rc == 2 and out == "" and "gamma" in err


class TestHeckeCli:
    def test_convolve_matches_library(self, capsys):
        rc = hecke_main(["convolve", "--q", "3", "--lhs", "(1,0)", "--rhs", "(2,0)"])
        out = capsys.readouterr().out
        assert rc == 0
        want = convolve(
            HeckeElement.basis(3, Coweight(1, 0)), HeckeElement.basis(3, Coweight(2, 0))
        )
        assert json.loads(out) == json.loads(
            json.dumps(want.to_json(), sort_keys=True)
        )

    @pytest.mark.parametrize(
        "side, wide", [("--lhs", "(100000,0)"), ("--rhs", f"({MAX_COWEIGHT_WIDTH + 1},0)")]
    )
    def test_wide_coweight_exits_2_before_any_counting(self, capsys, monkeypatch, side, wide):
        def refuse(*args):
            raise AssertionError("structure constants were counted")

        monkeypatch.setattr(hecke, "_pair_product", refuse)
        args = {"--lhs": "(1,0)", "--rhs": "(1,0)", side: wide}
        start = time.perf_counter()
        rc = hecke_main(["convolve", *(x for kv in args.items() for x in kv)])
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        limit = f"exceeds the width limit {MAX_COWEIGHT_WIDTH}"
        assert f"hecke: error: {side} {wide} {limit}" in captured.err

    def test_width_not_size_is_bounded(self, capsys):
        # the width is lam1 - lam2, so a large central part is accepted
        rc = hecke_main(["convolve", "--lhs", "(100000,99999)", "--rhs", "(1,1)"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["terms"][0]["coweight"] == [100001, 100000]

    def test_nondominant_exits_2(self, capsys):
        rc = hecke_main(["convolve", "--lhs", "(0,1)", "--rhs", "(1,0)"])
        assert rc == 2
        assert "hecke: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("q", [4, 9, -3])
    def test_q_not_an_odd_prime_exits_2(self, capsys, q):
        rc = hecke_main(["convolve", "--q", str(q), "--lhs", "(1,0)", "--rhs", "(1,0)"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert f"hecke: error: q must be an odd prime, got {q}" in captured.err

    def test_unknown_flag_exits_2_with_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            hecke_main(["convolve", "--q", "5", "--lhs", "(1,0)", "--rhs", "(1,0)", "--kind", "x"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: hecke convolve [-h] [--q Q] --lhs LHS --rhs RHS\n")
        assert "hecke convolve: error: unrecognized arguments: --kind x" in captured.err

    @pytest.mark.parametrize("text", ["(1,", "(1,0,2)", "(a,0)", "()", "(1,,0)"])
    def test_malformed_coweight_exits_2_naming_it(self, capsys, text):
        rc = hecke_main(["convolve", "--lhs", "(1,0)", "--rhs", text])
        captured = capsys.readouterr()
        assert rc == 2 and captured.out == ""
        assert captured.err == f"hecke: error: cannot parse coweight from {text!r}\n"

    def test_env_bad_q_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_Q", "abc")
        rc = hecke_main(["convolve", "--lhs", "(1,0)", "--rhs", "(1,0)"])
        assert rc == 2
        assert "hecke: error: WALDQ_Q" in capsys.readouterr().err


class TestQuadformCli:
    @staticmethod
    def mat_json(q, e11, e12, e22):
        m = SymMatrixO.from_entries(q, e11, e12, e22)
        return json.dumps(m.to_json())

    def test_hyperbolic(self, capsys):
        rc = quadform_main(
            ["classify", "--q", "3", "--matrix", self.mat_json(3, {}, {0: 1}, {})]
        )
        out = capsys.readouterr().out
        assert rc == 0
        obj = json.loads(out)
        assert obj == {
            "a": 0,
            "b": 0,
            "cover": "SplitCover",
            "delta": obj["delta"],
            "in_scope": True,
        }

    def test_matches_library(self, capsys):
        q = 3
        mat = SymMatrixO.from_entries(q, {1: 1}, {1: 1}, {1: 1, 2: 1})
        rc = quadform_main(["classify", "--q", "3", "--matrix", json.dumps(mat.to_json())])
        out = json.loads(capsys.readouterr().out)
        assert rc == 0
        inv, _, _ = diagonalize(mat)
        assert (out["a"], out["b"]) == (inv.a, inv.b)

    def test_asymmetric_exits_2(self, capsys):
        bad = [
            [LaurentPoly.const(3, 1).to_json(), LaurentPoly.const(3, 1).to_json()],
            [LaurentPoly.const(3, 2).to_json(), LaurentPoly.const(3, 1).to_json()],
        ]
        rc = quadform_main(["classify", "--matrix", json.dumps(bad)])
        assert rc == 2
        assert "quadform: error:" in capsys.readouterr().err

    def test_wrong_shape_exits_2(self, capsys):
        rc = quadform_main(["classify", "--matrix", "[[1]]"])
        assert rc == 2
        assert "quadform: error:" in capsys.readouterr().err

    def test_entry_without_coeffs_exits_2(self, capsys):
        entry = LaurentPoly.const(3, 1).to_json()
        bad = [[{"offset": 0}, entry], [entry, entry]]
        rc = quadform_main(["classify", "--matrix", json.dumps(bad)])
        assert rc == 2
        assert "quadform: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "bad_entry", [{"offset": 1.7, "coeffs": [1]}, {"offset": 0, "coeffs": "12"}]
    )
    def test_non_integer_entry_exits_2(self, capsys, bad_entry):
        entry = LaurentPoly.const(3, 1).to_json()
        bad = [[bad_entry, entry], [entry, entry]]
        rc = quadform_main(["classify", "--matrix", json.dumps(bad)])
        assert rc == 2
        assert "quadform: error:" in capsys.readouterr().err

    def test_bad_json_exits_2(self, capsys):
        # the last input nests too deep for the decoder (RecursionError)
        for text in ("not json", "[[1,0],[0,1]", "", "[" * 100_000):
            rc = quadform_main(["classify", "--matrix", text])
            captured = capsys.readouterr()
            assert rc == 2 and captured.out == ""
            # names the flag and the expected rows, then the decoder's reason
            assert captured.err.startswith(
                "quadform: error: --matrix must be JSON rows [[b11,b12],[b12,b22]]: "
            ), text[:20]

    def test_env_bad_q_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_Q", "abc")
        rc = quadform_main(["classify", "--matrix", self.mat_json(3, {}, {0: 1}, {})])
        assert rc == 2
        assert "quadform: error: WALDQ_Q" in capsys.readouterr().err

    def test_unknown_flag_exits_2_with_the_subcommand_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            quadform_main(["classify", "--matrix", HYPERBOLIC, "--kind", "x"])
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert captured.err.startswith("usage: quadform classify [-h] [--q Q] --matrix MATRIX")
        assert "quadform classify: error: unrecognized arguments: --kind x" in captured.err

    def test_precision_exhausted_exits_1(self, capsys):
        rc = quadform_main(
            [
                "classify",
                "--matrix", self.mat_json(3, {2: 1}, {}, {2: 1}),
                "--precision", "3",
            ]
        )
        assert rc == 1
        assert "undetermined" in capsys.readouterr().err

    def test_huge_precision_prints_the_default_answer(self, capsys):
        # the invariants are fixed past val(det): no list as long as 10^9
        mat = self.mat_json(3, {1: 1}, {1: 1}, {1: 1, 2: 1})
        assert quadform_main(["classify", "--matrix", mat]) == 0
        default = capsys.readouterr().out
        rc = quadform_main(["classify", "--matrix", mat, "--precision", "1000000000"])
        assert rc == 0
        assert capsys.readouterr().out == default

    def test_huge_det_valuation_exits_2_at_once(self, capsys):
        # the default precision would be about 2 * 10^9, and the inverses of
        # the diagonalization lists that long
        big = {"offset": 1000000000, "coeffs": [1]}
        zero, one = LaurentPoly.zero(3).to_json(), LaurentPoly.const(3, 1).to_json()
        mat = json.dumps([[big, zero], [zero, one]])
        start = time.perf_counter()
        rc = quadform_main(["classify", "--matrix", mat])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert f"exceeds the limit {MAX_DET_VALUATION}" in err

    def test_huge_entry_of_a_unit_det_exits_2_at_once(self, capsys):
        # val(det) = 0, but the exact determinant would span 10^9 exponents;
        # classify never reads a term at or above 2 * MAX_DET_VALUATION + 2
        big = {"offset": 1000000000, "coeffs": [1]}
        one = LaurentPoly.const(3, 1).to_json()
        mat = json.dumps([[big, one], [one, one]])
        start = time.perf_counter()
        rc = quadform_main(["classify", "--matrix", mat])
        assert time.perf_counter() - start < 1.0
        assert rc == 2
        err = capsys.readouterr().err
        assert f"at or above t^{2 * MAX_DET_VALUATION + 2}" in err

    def test_det_valuation_past_the_limit_with_small_terms_exits_2(self, capsys):
        # every term lies below t^(2 * MAX_DET_VALUATION + 2), so the val(det)
        # check itself refuses this matrix
        h = MAX_DET_VALUATION // 2 + 1
        ent, zero = {"offset": h, "coeffs": [1]}, LaurentPoly.zero(3).to_json()
        mat = json.dumps([[ent, zero], [zero, ent]])
        assert quadform_main(["classify", "--matrix", mat]) == 2
        err = capsys.readouterr().err
        assert f"val(det) = {2 * h} exceeds the limit {MAX_DET_VALUATION}" in err

    def test_nonpositive_precision_exits_2(self, capsys):
        mat = self.mat_json(3, {0: 1}, {}, {0: 1})
        rc = quadform_main(["classify", "--matrix", mat, "--precision", "-3"])
        assert rc == 2
        assert "quadform: error: precision must be >= 1" in capsys.readouterr().err
