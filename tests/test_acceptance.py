"""Acceptance gate: one test per headline claim, each printing a PASS/FAIL line.

Every test drives the public campaign runner exactly as the CLI does and
asserts the deterministic report passed, plus enough shape checks to make
sure the advertised volume of work actually ran.
"""

import time

import pytest

from waldq.campaigns import SessionConfig, run_campaign
from waldq.hecke import HeckeElement
from waldq.lattice import Coweight


def run(name, **kw):
    cfg = SessionConfig(**kw).validate()
    return run_campaign(name, cfg)


def record(nn, name, ok):
    print(f"ACCEPTANCE {nn:02d} {name}: {'PASS' if ok else 'FAIL'}", flush=True)
    assert ok, f"acceptance criterion {nn} ({name}) failed"


def cells(report):
    return report["rows"]


def all_pass(*reports):
    return all(r["summary"]["pass"] for r in reports)


def test_criterion_01_min_orbit_counts():
    t0 = time.monotonic()
    reports = [
        run("min-orbit", q=q, kind=kind, dmax=5, mmax=5)
        for q in (3, 5)
        for kind in ("split", "ramified")
    ]
    elapsed = time.monotonic() - t0
    ok = all_pass(*reports)
    ok = ok and all(len(cells(r)) == 36 for r in reports)
    ok = ok and elapsed < 60
    record(1, "closed-orbit point counts", ok)


def test_criterion_02_stratum_dimension_polynomials():
    t0 = time.monotonic()
    reports = [
        run("stratum-dim", kind=kind, dmax=4, mmax=5) for kind in ("split", "ramified")
    ]
    elapsed = time.monotonic() - t0
    ok = all_pass(*reports)
    # an interpolation row for every 0 <= m <= a <= 4 ("oracle" basis) and a
    # vanishing row for every m > a ("formula" basis)
    ok = ok and all(
        sum(1 for c in cells(r) if c["basis"] == "oracle") == 15 for r in reports
    )
    ok = ok and all(
        sum(1 for c in cells(r) if c["basis"] == "formula") == 15 for r in reports
    )
    ok = ok and elapsed < 300
    record(2, "stratum counts are polynomials in q of degree m", ok)


def test_criterion_03_sublattice_count_formula():
    reports = [run("counts", q=q, dmax=4) for q in (3, 5)]
    ok = all_pass(*reports)
    record(3, "sublattice counts match the closed formula", ok)


def test_criterion_04_hecke_algebra_tables():
    reports = [run("hecke-tables", q=q) for q in (3, 5)]
    ok = all_pass(*reports)
    # the generator identity, restated at the library level for both q
    for q in (3, 5):
        t10 = HeckeElement.basis(q, Coweight(1, 0))
        want = HeckeElement.basis(q, Coweight(2, 0)) + HeckeElement.basis(
            q, Coweight(1, 1)
        ).scaled(q + 1)
        ok = ok and (t10 * t10 == want)
    # 50 random triples per run
    ok = ok and all(
        sum(1 for c in cells(r) if c["cell"].startswith("rand")) == 50
        for r in reports
    )
    record(4, "convolution tables, axioms and Pieri rules", ok)


def test_criterion_05_basis_function_shadow():
    reports = [run("ic-basis", kind=kind, dmax=5) for kind in ("split", "ramified")]
    ok = all_pass(*reports)
    # support, monomial-count and central-twist rows for every d <= 5
    ok = ok and all(len(cells(r)) == 3 * 6 for r in reports)
    record(5, "basis functions: support, monomial counts, central twist", ok)


def test_criterion_06_multiplicity_one_triangularity():
    reports = [run("multone", kind=kind, depth=5) for kind in ("split", "ramified")]
    ok = all_pass(*reports)
    ok = ok and all(len(cells(r)) == 6 for r in reports)
    record(6, "action on the unit delta is triangular with unit diagonal", ok)


def test_criterion_07_module_axiom():
    reports = [run("module-axiom", kind=kind) for kind in ("split", "ramified")]
    ok = all_pass(*reports)
    ok = ok and all(len(cells(r)) == 50 for r in reports)
    record(7, "action is compatible with convolution", ok)


def test_criterion_08_eigenfunction_window():
    reports = [run("eigen", kind=kind, depth=6) for kind in ("split", "ramified")]
    ok = all_pass(*reports)
    ok = ok and all(len(cells(r)) == 20 for r in reports)
    record(8, "truncated eigenfunction window checks at depth 6", ok)


@pytest.mark.sweep
def test_criterion_09_quadform_invariants():
    report = run("quadform-orbits", q=3)
    ok = report["summary"]["pass"]
    rows = cells(report)
    ok = ok and sum(1 for c in rows if c["cell"].startswith("invar")) == 200
    ok = ok and sum(1 for c in rows if c["cell"].startswith("exhaustive")) == 81
    ok = ok and any(c["cell"].startswith("grid") for c in rows)
    record(9, "symmetric-form invariants: constancy, parity, completeness", ok)


def test_criterion_10_isotropic_line_counts():
    reports = [run("isotropic", q=q) for q in (3, 5)]
    ok = all_pass(*reports)
    record(10, "isotropic line counts match exhaustive search", ok)
