"""Exact lattice combinatorics over F_q[[t]]: orbits, convolution, forms.

The package models rank-2 lattices over the power-series ring with exact
arithmetic end to end: canonical lattice triples and relative positions,
torus-orbit invariants for the split and ramified quadratic algebras, the
spherical convolution algebra and its triangular basis, the equivariant
function module with symbolic character values, and the classification of
symmetric forms over the ring.  The inner loops are pure-Python kernels
(``waldq._purekern``), bound by name in ``waldq.backend``; nothing needs a
compiler.
"""

from ._version import __version__
from . import backend
from .series import FqElem, LaurentPoly, NotAUnit, invert_unit, valuation
from .scalars import (
    LaurentScalar,
    NotAMonomial,
    ResidualSqrtQ,
    SqrtQ,
    ZeroAssignment,
    ZeroCoefficient,
    monomial_count,
    monomial_invert,
    specialize,
)
from .lattice import (
    Coweight,
    Lattice2,
    canonicalize,
    closure_members,
    enumerate_in_position,
    position_count_formula,
    relative_position,
)
from .torus import (
    EtaleKind,
    OrbitPoint,
    TorusClass,
    act_by_class,
    chi_c,
    embed,
    envelope,
    envelope_lattice,
    normalize,
    orbit_representative,
)
from .hecke import (
    HeckeElement,
    ZeroEigenvalue,
    central_normalize,
    convolve,
    satake_basis,
    schur_gl2,
    to_satake,
)
from .waldspurger import (
    CharacterParams,
    TruncationTooSmall,
    WaldFunction,
    WaldModel,
)
from .quadform import (
    CoveringType,
    Delta,
    FormInvariant,
    PrecisionExhausted,
    SymMatrixO,
    covering_type,
    diagonalize,
    isotropic_line_count,
    least_nonsquare,
    legendre,
    normal_form,
    normal_transport,
)
from .campaigns import (
    CAMPAIGNS,
    ConfigInvalid,
    SessionConfig,
    render_report,
    run_campaign,
)

__all__ = [
    "__version__",
    "backend",
    # series
    "FqElem",
    "LaurentPoly",
    "NotAUnit",
    "invert_unit",
    "valuation",
    # scalars
    "LaurentScalar",
    "NotAMonomial",
    "ResidualSqrtQ",
    "SqrtQ",
    "ZeroAssignment",
    "ZeroCoefficient",
    "monomial_count",
    "monomial_invert",
    "specialize",
    # lattices
    "Coweight",
    "Lattice2",
    "canonicalize",
    "closure_members",
    "enumerate_in_position",
    "position_count_formula",
    "relative_position",
    # torus orbits
    "EtaleKind",
    "OrbitPoint",
    "TorusClass",
    "act_by_class",
    "chi_c",
    "embed",
    "envelope",
    "envelope_lattice",
    "normalize",
    "orbit_representative",
    # convolution algebra
    "HeckeElement",
    "ZeroEigenvalue",
    "central_normalize",
    "convolve",
    "satake_basis",
    "schur_gl2",
    "to_satake",
    # module
    "CharacterParams",
    "TruncationTooSmall",
    "WaldFunction",
    "WaldModel",
    # symmetric forms
    "CoveringType",
    "Delta",
    "FormInvariant",
    "PrecisionExhausted",
    "SymMatrixO",
    "covering_type",
    "diagonalize",
    "isotropic_line_count",
    "least_nonsquare",
    "legendre",
    "normal_form",
    "normal_transport",
    # campaigns
    "CAMPAIGNS",
    "ConfigInvalid",
    "SessionConfig",
    "render_report",
    "run_campaign",
]
