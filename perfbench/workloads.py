"""The benchmark's workloads: campaign runs built from a workload name and seed.

Each workload is a list of steps ``(label, campaign, config)`` that one
interpreter runs in order through ``waldq.campaigns.run_campaign``; one such
interpreter is one pass.  Labels name each report in ``digests.json``.  Every
input comes from the seed, so the same seed gives the same steps, and every
pass of one run does the same work.

A pass takes at most a few seconds, so that one run holds several and can
report their median.  That sizes every step well below the acceptance
configs: the full ``quadform-orbits --q 3`` sweep takes about a minute of
wall time on two cores, so one pass would fill a whole run.  Only the
``min-orbit`` steps use a pool: their cells take milliseconds to seconds, so
the pool's wall time follows the machine's speed rather than its wake-up
latency, which the tiny ``quadform-orbits`` cells would measure.
"""

import random

#: The seed whose report bytes are pinned by the digests in digests.json.
DEFAULT_SEED = 0

KINDS = ("split", "ramified")

FORMS_PRIMES = (5, 7, 11, 13)

HECKE_ROUNDS = 3


def _forms(seed):
    rng = random.Random(seed)
    return [
        (f"quadform-orbits/q{q}", "quadform-orbits", dict(q=q, seed=rng.randrange(2**31)))
        for q in FORMS_PRIMES
    ]


def _lattice_strata(seed):
    steps = [
        (f"stratum-dim/{k}", "stratum-dim", dict(kind=k, dmax=5, mmax=2, seed=seed))
        for k in KINDS
    ]
    steps += [
        (f"min-orbit/{k}", "min-orbit", dict(q=5, kind=k, dmax=6, mmax=3, workers=2, seed=seed))
        for k in KINDS
    ]
    return steps


def _hecke_module(seed):
    steps = [("counts", "counts", dict(q=5, dmax=6, seed=seed))]
    rng = random.Random(seed)
    for r in range(HECKE_ROUNDS):
        s = rng.randrange(2**31)
        tag = f"r{r:02d}"
        steps.append((f"{tag}/hecke-tables", "hecke-tables", dict(q=3, seed=s)))
        for q in (3, 5):
            for k in KINDS:
                steps.append(
                    (f"{tag}/module-axiom/q{q}/{k}", "module-axiom", dict(q=q, kind=k, seed=s))
                )
        for k in KINDS:
            steps.append((f"{tag}/eigen/{k}", "eigen", dict(kind=k, depth=6, seed=s)))
    return steps


WORKLOADS = {
    "forms": _forms,
    "lattice-strata": _lattice_strata,
    "hecke-module": _hecke_module,
}


def steps(workload, seed):
    """The (label, campaign, config kwargs) steps of a workload, in run order."""
    return WORKLOADS[workload](seed)


def workers(workload):
    """The largest pool size any step of the workload asks for."""
    return max(cfg.get("workers", 1) for _l, _c, cfg in steps(workload, DEFAULT_SEED))


def campaigns():
    """Every campaign some workload runs, in first-use order."""
    return list(
        dict.fromkeys(name for w in WORKLOADS for _l, name, _c in steps(w, DEFAULT_SEED))
    )
