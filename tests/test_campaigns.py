"""The campaign table: names, planners and picklable cell payloads."""

import dataclasses
import hashlib
import pickle
from fractions import Fraction

import pytest

import oracles
import waldq
from waldq import campaigns
from waldq.campaigns import CAMPAIGN_TABLE, CAMPAIGNS, ConfigInvalid, SessionConfig, plan


def small_config():
    return SessionConfig(dmax=2, mmax=2, depth=3).validate()


def test_campaign_names_and_order():
    assert waldq.CAMPAIGNS == CAMPAIGNS == (
        "min-orbit",
        "stratum-dim",
        "counts",
        "hecke-tables",
        "ic-basis",
        "multone",
        "cs-matrix",
        "module-axiom",
        "eigen",
        "quadform-orbits",
        "isotropic",
    )
    aliases = [a for c in CAMPAIGN_TABLE for a in c.aliases]
    assert aliases == ["verify-min-orbit"]


@pytest.mark.parametrize("campaign", CAMPAIGN_TABLE, ids=CAMPAIGNS)
def test_declared_knobs_are_the_ones_the_planner_reads(campaign):
    # a knob the campaign declares changes its cells; any other one does not
    base = SessionConfig(q=5, dmax=2, mmax=2, depth=3).validate()
    cells = campaign.planner(base)
    moves = {"q": 7, "kind": "ramified", "dmax": 4, "mmax": 4, "depth": 5, "seed": base.seed + 2}
    for knob, value in moves.items():
        moved = campaign.planner(dataclasses.replace(base, **{knob: value}))
        assert (moved != cells) == (knob in campaign.knobs), knob


@pytest.mark.parametrize(
    "poly, deg",
    [(lambda x: 0, -1), (lambda x: 7, 0), (lambda x: 3 * x**2 - x + 5, 2), (lambda x: Fraction(x**4, 2), 4)],
)
def test_newton_fit_finds_the_degree_and_the_values(poly, deg):
    points = [(p, poly(p)) for p in campaigns.PROBE_PRIMES[:5]]
    got, fit = campaigns._newton_fit(points)
    assert got == deg
    assert fit(23) == poly(Fraction(23)) and fit(-4) == poly(Fraction(-4))


# the first cell's draws of the planners that read the per-kind table: one
# draw per character variable, in the table's order
FIRST_DRAWS = {
    "module-axiom": ((1, (1, 0, 0), -3, 3), (2, (1, 0, 0), 1, 1), (0, (-1, 1, 0), 5, 3)),
    "eigen": (("alpha", "9/7"), ("beta", "1")),
}


@pytest.mark.parametrize("kind", ["split", "ramified"])
@pytest.mark.parametrize("q", [3, 5])
def test_module_axiom_draws_are_randint_choice_and_sample(q, kind):
    # the getrandbits draws make the cells of the randint/choice/sample planner
    for seed in range(200):
        cfg = SessionConfig(q=q, kind=kind, seed=seed).validate()
        assert campaigns._plan_module_axiom(cfg) == oracles.plan_module_axiom_reference(cfg)


@pytest.mark.parametrize("name", CAMPAIGNS)
def test_plan_payloads_pickle_and_name_their_handler(name):
    cells = plan(name, small_config())
    assert cells
    if name in FIRST_DRAWS:
        assert cells[0][-1] == FIRST_DRAWS[name]
    assert pickle.loads(pickle.dumps(cells)) == cells
    for payload in cells:
        handler = payload[0]
        assert callable(handler)
        assert handler.__module__ == "waldq.campaigns"
        assert getattr(campaigns, handler.__name__) is handler
        assert isinstance(payload[1], str)
    assert len({payload[1] for payload in cells}) == len(cells)


def test_unknown_campaign_is_config_invalid():
    with pytest.raises(ConfigInvalid):
        plan("nope", small_config())
    with pytest.raises(ConfigInvalid):
        plan("verify-min-orbit", small_config())


@pytest.mark.parametrize("field", ["dmax", "mmax", "depth", "seed", "workers"])
@pytest.mark.parametrize("flag", [True, False])
def test_boolean_fields_are_config_invalid(field, flag):
    with pytest.raises(ConfigInvalid, match=field):
        SessionConfig(**{field: flag}).validate()


@pytest.mark.sweep
@pytest.mark.parametrize(
    "width, shards",
    # the whole width-3 cube, and the q=3 sweep's shards whose first entry
    # is 0, t, 2 + t, t^2, t^3 and 1 + t + t^2 + t^3: val e11 = 0..3 and
    # both pivot routes
    [(3, range(27)), (4, (0, 3, 5, 9, 27, 40))],
)
def test_exhaustive_cell_matches_certify_first_loop(width, shards):
    # the cell works at precision vmax + 1 = 4: form by form, the zero form
    # included, that gives what certifying every form first at precision 8
    # gives once val(det) > 3 is skipped, and so do the counts, n_skip included
    for shard in shards:
        got = [r for row in campaigns._shard_certs(3, shard, width, 4, 4) for r in row]
        assert got == oracles.quad_shard_certs(3, shard, width, 3, 8, 4), shard
        row = campaigns._cell_quad_exhaustive("x", 3, shard, width, 3, 4)
        n_ok, checked, n_skip = oracles.quad_exhaustive_counts(3, shard, width, 3, 8, 4)
        assert row["computed"] == f"{n_ok}/{checked} certified, {n_skip} undetermined"
        assert row["expected"] == f"{checked}/{checked} certified, {n_skip} undetermined"


#: (q, width, shards, prec, check_prec) for the sweep loop's form-by-form diff
SHARD_CASES = [
    # every form of the width-3 cube that has a certificate at all
    (3, 3, range(27), 8, 4),
    # the width-4 shards of test_exhaustive_cell_matches_certify_first_loop,
    # which checks them at the campaign's precisions, at a higher one
    (3, 4, (0, 3, 5, 9, 27, 40), 8, 4),
    # check precisions below, at and above the precision: above it the
    # certificate often fails, and ok must still agree
    *((3, 2, range(9), prec, cp) for prec in (2, 4) for cp in (1, prec, prec + 2)),
    (5, 2, (0, 1, 5, 7), 3, 4),
]


@pytest.mark.sweep
@pytest.mark.parametrize(
    "q, width, shards, prec, check_prec",
    # the ids name the oracle's vmax = prec - 1 before prec
    [
        pytest.param(*c, id=f"{c[0]}-{c[1]}-shards{i}-{c[3] - 1}-{c[3]}-{c[4]}")
        for i, c in enumerate(SHARD_CASES)
    ],
)
def test_shard_certs_match_sym_normal_cert(q, width, shards, prec, check_prec):
    # the hoisted sweep loop against the per-form reference certificate,
    # form by form: a count alone would not see a check that always passes
    for shard in shards:
        got = [r for row in campaigns._shard_certs(q, shard, width, prec, check_prec) for r in row]
        assert got == oracles.quad_shard_certs(q, shard, width, prec - 1, prec, check_prec), shard


#: SHA-256 of ``render_report(run_campaign("quadform-orbits", ...))`` by
#: (q, seed).  The report names each random form's invariants only, so these
#: pin the planner's draws, the form kernels and the renderer together.
QUADFORM_REPORT_SHA256 = {
    (5, 0): "973f6d61c458822a189b9506f217eaf7bd539d6569820519971669cc20014660",
    (5, 1): "e3a045ae0114be449f751e15fc8772cac83b8173f868375eb58a8ae74e1b5ca5",
    (7, 0): "89185c719e62b4c557ed80f81e3bfbbcfd99517f96ec2f7bb21537612d459083",
    (7, 1): "84a06aaa9a9c5c50f16cf93eb8284546fe7bfb935115376cf4b492dd09d3cbab",
    (11, 0): "e6e5b601f074ac5c6723417f5ebb3385cce1d2d520af002a457e862f2f9e2a00",
    (11, 1): "8415edb2b42e438dc016b04a63116594e8c5518ebd8aa01e25b3a68da9fecf9e",
    (13, 0): "bc9ae412ee5ce737e6de49a07a2190c83876c31c7c460270d8372a9bc67f630d",
    (13, 1): "80abc9d4c135fec377f79b7bfb6d287061c4c56b70095c9f1ca84da40a395656",
}


@pytest.mark.parametrize("q, seed", sorted(QUADFORM_REPORT_SHA256))
def test_quadform_orbits_report_bytes_are_pinned(q, seed):
    report = campaigns.run_campaign("quadform-orbits", SessionConfig(q=q, seed=seed))
    digest = hashlib.sha256(campaigns.render_report(report).encode()).hexdigest()
    assert digest == QUADFORM_REPORT_SHA256[q, seed]

