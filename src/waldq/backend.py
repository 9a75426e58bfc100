"""Kernel backend selection: compiled fast kernels with a pure fallback.

The batch kernels (rel_pos, canon, sublattices, sym_diag, sym_normal_cert)
exist twice: ``waldq._fastkern`` (Cython) and ``waldq._purekern`` (pure
Python, the reference).  ``use(name)`` binds the five kernel names of this
module to one of them; callers look them up as ``backend.<kernel>`` at call
time.  The compiled module is used when importable; set
``WALDQ_BACKEND=pure`` or ``WALDQ_BACKEND=fast`` to force a choice.  Any
other ``WALDQ_BACKEND`` value is ignored and the default choice applies
(unlike the ``wald`` CLI's ``WALDQ_*`` mirrors, which exit 2 on a bad value).

The fast kernels cap coefficient spans at a fixed buffer size and raise
OverflowError beyond it; the fast bindings transparently retry the pure
twin for such calls, so results never depend on the backend.
"""

from __future__ import annotations

import functools
import os

from . import _purekern

try:
    from . import _fastkern
except ImportError:
    _fastkern = None

_KERNELS = ("rel_pos", "canon", "sublattices", "sym_diag", "sym_normal_cert")


def _guarded(fast_fn, pure_fn):
    @functools.wraps(pure_fn)
    def call(*args):
        try:
            return fast_fn(*args)
        except OverflowError:
            return pure_fn(*args)

    return call


def available() -> tuple[str, ...]:
    return ("pure", "fast") if _fastkern is not None else ("pure",)


def use(name: str) -> None:
    """Force the active backend ("pure" or "fast") by rebinding the kernels."""
    global _active
    if name not in ("pure", "fast"):
        raise ValueError(f"unknown backend {name!r}")
    if name == "fast" and _fastkern is None:
        raise RuntimeError("fast kernels are not built")
    for k in _KERNELS:
        fn = getattr(_purekern, k)
        globals()[k] = fn if name == "pure" else _guarded(getattr(_fastkern, k), fn)
    _active = name


def active_name() -> str:
    return _active


_env = os.environ.get("WALDQ_BACKEND", "").strip().lower()
use(_env if _env in ("pure", "fast") else available()[-1])
