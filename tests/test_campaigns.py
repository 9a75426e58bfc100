"""The campaign table: names, planners and picklable cell payloads."""

import dataclasses
import pickle

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
    for knob in ("q", "dmax", "mmax", "depth"):
        moved = campaign.planner(dataclasses.replace(base, **{knob: getattr(base, knob) + 2}))
        assert (moved != cells) == (knob in campaign.knobs), knob


# the first cell's draws of the planners that read the per-kind table: one
# draw per character variable, in the table's order
FIRST_DRAWS = {
    "module-axiom": ((1, (1, 0, 0), -3, 3), (2, (1, 0, 0), 1, 1), (0, (-1, 1, 0), 5, 3)),
    "eigen": (("alpha", "9/7"), ("beta", "1")),
}


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


@pytest.mark.parametrize(
    "width, shards",
    # the whole width-3 cube, and the q=3 sweep's shards whose first entry
    # is 0, the unit 2 + t and t^3
    [(3, range(27)), (4, (0, 5, 27))],
)
def test_exhaustive_cell_matches_certify_first_loop(width, shards):
    # val(det) <= vmax is tested before certifying; the counts, n_skip
    # included, are those of certifying every form first
    for shard in shards:
        row = campaigns._cell_quad_exhaustive("x", 3, shard, width, 3, 8, 4)
        n_ok, checked, n_skip = oracles.quad_exhaustive_counts(3, shard, width, 3, 8, 4)
        assert row["computed"] == f"{n_ok}/{checked} certified, {n_skip} undetermined"
        assert row["expected"] == f"{checked}/{checked} certified, {n_skip} undetermined"


@pytest.mark.parametrize(
    "q, width, shards, vmax, prec, check_prec",
    [
        # every form of the width-3 cube that has a certificate at all
        (3, 3, range(27), 7, 8, 4),
        # the sweep's shards whose first entry is 0, t, 2 + t, t^2, t^3 and
        # 1 + t + t^2 + t^3: val e11 = 0..3 and both pivot routes
        (3, 4, (0, 3, 5, 9, 27, 40), 3, 8, 4),
        # check precisions below, at and above the precision: above it the
        # certificate often fails, and ok must still agree
        *((3, 2, range(9), prec - 1, prec, cp) for prec in (2, 4) for cp in (1, prec, prec + 2)),
        (5, 2, (0, 1, 5, 7), 2, 3, 4),
    ],
)
def test_shard_certs_match_sym_normal_cert(q, width, shards, vmax, prec, check_prec):
    # the hoisted sweep loop against the per-form reference certificate,
    # form by form: a count alone would not see a check that always passes
    for shard in shards:
        got = [r for row in campaigns._shard_certs(q, shard, width, vmax, prec, check_prec) for r in row]
        assert got == oracles.quad_shard_certs(q, shard, width, vmax, prec, check_prec), shard
