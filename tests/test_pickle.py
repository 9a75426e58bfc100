"""The immutable value types survive pickle and copy.deepcopy.

Their ``__setattr__`` refuses every write, so the default slot-state restore
(which calls ``setattr``) cannot rebuild them; each reduces to its
constructor arguments instead.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from waldq.hecke import HeckeElement
from waldq.lattice import Coweight, Lattice2
from waldq.quadform import SymMatrixO
from waldq.scalars import LaurentScalar, SqrtQ
from waldq.series import LaurentPoly
from waldq.waldspurger import WaldFunction, WaldModel

Q = 5

VALUES = {
    "SqrtQ": lambda: SqrtQ.of(Q, Fraction(3, 2), -1),
    "LaurentScalar": lambda: LaurentScalar.alpha(Q) * 2 + LaurentScalar.r(Q),
    "HeckeElement": lambda: HeckeElement(Q, {Coweight(2, 0): LaurentScalar.gamma(Q), (1, 1): 3}),
    "WaldFunction": lambda: WaldFunction(Q, "split", {0: 1, 2: LaurentScalar.beta(Q)}),
    "WaldModel": lambda: WaldModel(Q, "ramified", convention="mirror"),
    "LaurentPoly": lambda: LaurentPoly.from_terms(Q, {-1: 2, 3: 4}),
    "Lattice2": lambda: Lattice2(Q, 3, -1, LaurentPoly.from_terms(Q, {0: 1, 2: 3})),
    "SymMatrixO": lambda: SymMatrixO.from_entries(Q, {0: 1}, {1: 2}, {0: 3, 2: 1}),
}


def same_value(x, y):
    return type(x) is type(y) and all(
        getattr(x, s) == getattr(y, s) for s in type(x).__slots__
    )


@pytest.mark.parametrize("name", sorted(VALUES))
@pytest.mark.parametrize(
    "copier", [lambda x: pickle.loads(pickle.dumps(x)), copy.deepcopy, copy.copy],
    ids=["pickle", "deepcopy", "copy"],
)
def test_round_trip_gives_an_equal_object(name, copier):
    x = VALUES[name]()
    y = copier(x)
    assert same_value(x, y)
    if type(x).__eq__ is not object.__eq__:
        assert y == x and hash(y) == hash(x)
    with pytest.raises(AttributeError):
        y.q = 7
