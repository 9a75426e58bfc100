"""Command-line front ends: exit codes, report formats, determinism."""

import json
import os
import time

import pytest

from waldq import campaigns, cli
from waldq.campaigns import MAX_WORKERS
from waldq.cli import MAX_DET_VALUATION, hecke_main, quadform_main, wald_main
from waldq.hecke import HeckeElement, convolve
from waldq.lattice import Coweight
from waldq.quadform import SymMatrixO, diagonalize
from waldq.series import LaurentPoly


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

    def test_each_campaign_refuses_exactly_the_knobs_it_does_not_read(self, capsys, monkeypatch):
        refused = {(c.name, k) for c in campaigns.CAMPAIGN_TABLE for k in cli._KNOB_FLAGS} - {
            (c.name, k) for c in campaigns.CAMPAIGN_TABLE for k in c.knobs
        }
        forms = {(n, k) for n in ("quadform-orbits", "hecke-tables", "isotropic") for k in ("dmax", "mmax", "depth")}
        assert forms | {("stratum-dim", "q")} <= refused
        ran = []
        monkeypatch.setattr(cli, "run_campaign", lambda name, cfg: ran.append(name) or {})
        monkeypatch.setattr(cli, "_emit", lambda report, cfg: 0)
        flags = (("q", "--q"), ("dmax", "--dmax"), ("mmax", "--mmax"), ("depth", "--D"), ("depth", "--depth"))
        for campaign in campaigns.CAMPAIGN_TABLE:
            for knob, flag in flags:
                rc, out, err = run_wald(capsys, campaign.name, flag, "5")
                if (campaign.name, knob) in refused:
                    assert rc == 2 and out == ""
                    shown = "--D" if knob == "depth" else flag
                    assert f"wald: error: {campaign.name} does not use {shown}" in err
                else:
                    assert rc == 0, (campaign.name, flag, err)
        # no refused flag reached a campaign
        assert len(ran) == sum(len(c.knobs) + c.knobs.count("depth") for c in campaigns.CAMPAIGN_TABLE)

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

    @pytest.mark.parametrize("name", ["missing/report.ndjson", "."])
    def test_out_unwritable_exits_2(self, capsys, tmp_path, name):
        # a missing directory is refused before the campaign runs; a path
        # that is a directory fails when the report is written
        target = str(tmp_path / name)
        rc, out, err = run_wald(capsys, "counts", "--dmax", "2", "--out", target)
        assert rc == 2
        assert out == ""
        assert "wald: error:" in err and target in err
        assert not (tmp_path / "missing").exists()


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

    def test_env_bad_value_surfaces_as_config_error(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_KIND", "noneuclidean")
        rc, _, err = run_wald(capsys, "min-orbit")
        assert rc == 2 and "wald: error:" in err


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
        rc = quadform_main(["classify", "--matrix", "not json"])
        assert rc == 2

    def test_env_bad_q_exits_2(self, capsys, monkeypatch):
        monkeypatch.setenv("WALDQ_Q", "abc")
        rc = quadform_main(["classify", "--matrix", self.mat_json(3, {}, {0: 1}, {})])
        assert rc == 2
        assert "quadform: error: WALDQ_Q" in capsys.readouterr().err

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
