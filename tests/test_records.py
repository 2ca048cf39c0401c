"""The library's records are NamedTuple or ``__slots__`` classes: equal fields
must give equal objects with equal hashes (they key ``lru_cache``s), the
validating ones must still reject bad fields, and a table must survive
pickling, so that callers can store it or pass it between processes."""

import pickle
from fractions import Fraction
from functools import lru_cache

import pytest

from helpers import hamming74
from jacobiforge import (
    DesignVerdict,
    HahnParams,
    JacobiTable,
    LinearCode,
    MWContext,
    PairSubstitution,
    RefSet,
    field_new,
    higher_jacobi,
)
from jacobiforge.verify import CHECKS, Check, same_value


def twins():
    """Pairs of records built separately from equal fields, and one record
    of the same kind that differs in a field."""
    table = higher_jacobi(hamming74(), RefSet.of(7, [1, 2]), 1)
    return [
        (lambda: RefSet.of(7, [1, 2]), RefSet.of(7, [1, 3])),
        (lambda: RefSet(7, {1, 2}), RefSet.of(7, [1, 3])),  # the constructor freezes a set
        (lambda: HahnParams(Fraction(1, 2), Fraction(-1, 3), 4, 2),
         HahnParams(Fraction(1, 2), Fraction(-1, 3), 4, 1)),
        (lambda: PairSubstitution.both(1, 1, 1, -1), PairSubstitution.both(1, 0, 0, 1)),
        (lambda: DesignVerdict(True, 2, 3), DesignVerdict(True, 2, 4)),
        (lambda: MWContext(q=2, n=7, k=4, tsize=2), MWContext(q=2, n=7, k=3, tsize=2)),
        (lambda: Check(same_value, same_value, "x"), Check(same_value, same_value, "y")),
        (lambda: LinearCode(field_new(2), 7, reversed(hamming74().gen)), hamming74().dual()),
        (lambda: JacobiTable(table.kind, table.param, table.q,
                             RefSet.of(7, [1, 2]), tuple(map(tuple, table.grid))),
         higher_jacobi(hamming74(), RefSet.of(7, [1, 2]), 2)),
    ]


@pytest.mark.parametrize("make, other", twins())
def test_equal_fields_give_equal_records_and_hashes(make, other):
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other

    @lru_cache(maxsize=None)
    def key(record):
        return object()

    assert key(a) is key(b)
    assert key.cache_info().hits == 1


def test_validating_records_reject_bad_fields():
    with pytest.raises(ValueError):
        RefSet(7, frozenset({9}))
    with pytest.raises(ValueError):
        RefSet(7, {9})
    with pytest.raises(ValueError):
        HahnParams(Fraction(1, 2), Fraction(-1, 3), N=3, m=3)
    with pytest.raises(ValueError):
        HahnParams(Fraction(1, 2), Fraction(-1, 3), N=3, m=-1)


def test_refset_repr_is_unchanged():
    assert repr(RefSet.of(7, [1, 2])) == "RefSet({1,2}/7)"
    assert repr(RefSet.of(7)) == "RefSet({}/7)"


def test_records_keep_keyword_construction():
    # perfbench passes MWContext's tsize by keyword
    assert MWContext(q=3, n=12, k=6, tsize=1).tsize == 1
    assert HahnParams(alpha=Fraction(1), beta=Fraction(0), N=4, m=2).N == 4
    assert CHECKS["mass"].detail == "mass {} vs {}"
    assert Check._fields == ("routes", "compare", "detail")  # the status is run_item's


def test_records_survive_a_pickle_round_trip():
    table = higher_jacobi(hamming74(), RefSet.of(7, [2, 5]), 2)
    back = pickle.loads(pickle.dumps(table))
    assert back == table and type(back) is JacobiTable
    assert back.tset == table.tset and hash(back.tset) == hash(table.tset)
    assert back.render() == table.render()
    params = HahnParams(Fraction(1, 2), Fraction(-1, 3), 4, 2)
    assert pickle.loads(pickle.dumps(params)) == params
