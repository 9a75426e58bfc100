"""The batch kernels, bound by name.

The batch kernels (rel_pos, canon, sublattices, sublattice_rows, sym_diag,
sym_normal_cert) live in ``waldq._purekern``.  This module binds them as
module-level names; callers look them up as ``backend.<kernel>`` at call
time, so a tracer can wrap them in one place.  ``sublattices`` returns the
list of member rows, for callers that sort or build lattices from them;
``sublattice_rows`` yields the same rows one at a time, so ``counts`` counts
them as they are yielded and holds none.  ``available()`` names the one
backend, ``pure``; ``use("pure")`` rebinds the kernels and any other name
raises ValueError.  The report header records ``active_name()``.
"""

from __future__ import annotations

from . import _purekern

_KERNELS = ("rel_pos", "canon", "sublattices", "sublattice_rows", "sym_diag", "sym_normal_cert")


def available() -> tuple[str, ...]:
    return ("pure",)


def use(name: str) -> None:
    """Bind the kernel names to the named backend; only "pure" exists."""
    global _active
    if name not in available():
        raise ValueError(f"unknown backend {name!r}")
    for k in _KERNELS:
        globals()[k] = getattr(_purekern, k)
    _active = name


def active_name() -> str:
    return _active


use("pure")
