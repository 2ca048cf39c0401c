"""The library's records are NamedTuple or ``__slots__`` classes: equal fields
must give equal objects with equal hashes (they key ``lru_cache``s), the
validating ones must still reject bad fields, as the routes reject bad
arguments, and a table must survive pickling, so that callers can store
it or pass it between processes."""

import pickle
import re
from fractions import Fraction
from functools import lru_cache

import pytest

from helpers import block_multiset, hamming74
from jacobiforge import (
    BiHomPoly,
    DesignVerdict,
    FieldMismatch,
    HahnParams,
    JacobiTable,
    LinearCode,
    MWContext,
    NotPrime,
    RatMatrix,
    RefSet,
    SubsetFn,
    extended_jacobi,
    extended_jacobi_direct,
    field_new,
    harm_basis,
    harmonic_higher_wenum,
    higher_from_extended,
    higher_jacobi,
    is_t_design,
    jacobi,
    rat_solve,
)
from jacobiforge.enumerators import subcode_support_histogram
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
        (lambda: BiHomPoly(1, 1, [[1, Fraction(2)], [3, -1]]),  # an integral Fraction is an int
         BiHomPoly(1, 1, [[1, 2], [3, 1]])),
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
    gf2 = field_new(2)
    cases = [
        (lambda: BiHomPoly(-1, 0, [[1]]), ValueError, "bidegrees must be nonnegative"),
        (lambda: BiHomPoly(1, 1, [[1, 2]]), ValueError, "grid does not match bidegree"),
        (lambda: LinearCode(gf2, 3, [[1, 0]]), ValueError, "rows must all have length n"),
        (lambda: LinearCode(gf2, 2, [[1, 2]]), FieldMismatch, "entry 2 is not an element of GF(2)"),
        (lambda: RatMatrix([]), ValueError, "matrix needs at least one row"),
        (lambda: SubsetFn(3, 4, {}), ValueError, "need 0 <= d <= n"),
        (lambda: SubsetFn(3, 2, {(1,): 1}), ValueError, "(1,) is not a d-subset of 1..3"),
    ]
    for build, error, message in cases:
        with pytest.raises(error, match=re.escape(message)):
            build()


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: is_t_design(block_multiset(3, [{1, 2}]), 4), ValueError, "need 0 <= t <= n"),
        (lambda: is_t_design(block_multiset(3, [{1, 2}]), -1), ValueError, "need 0 <= t <= n"),
        (lambda: subcode_support_histogram(hamming74(), 5), ValueError, "need 0 <= r <= k = 4"),
        (lambda: higher_from_extended(hamming74(), RefSet.of(7), -1), ValueError,
         "need 0 <= r <= k = 4"),
        (lambda: jacobi(hamming74(), RefSet.of(6, [1])), ValueError,
         "reference set length does not match the code"),
        (lambda: extended_jacobi(hamming74(), RefSet.of(7), 0), ValueError,
         "extension degree m must be at least 1"),
        (lambda: extended_jacobi_direct(hamming74(), RefSet.of(7), 0), ValueError,
         "extension degree m must be at least 1"),
        (lambda: rat_solve(RatMatrix([[1]]), [1, 2]), ValueError,
         "right-hand side length does not match"),
        (lambda: field_new(2, 0), ValueError, "extension degree must be at least 1"),
        (lambda: field_new(1), NotPrime, "1 is not prime"),
        (lambda: harm_basis(3, 4), ValueError, "need 0 <= d <= n"),
        (lambda: harmonic_higher_wenum(hamming74(), SubsetFn(6, 1, {}), 1), ValueError,
         "function and code live on different coordinate sets"),
    ],
    ids=["is-t-design-t-past-n", "is-t-design-t-neg", "subcode-histogram-r-past-k",
         "higher-from-extended-r-neg", "tset-of-another-n", "extended-jacobi-m-0",
         "extended-jacobi-direct-m-0", "rat-solve-rhs-length", "field-new-e-0",
         "field-new-not-prime", "harm-basis-d-past-n", "harmonic-wenum-another-n"],
)
def test_routes_reject_bad_arguments(call, error, message):
    with pytest.raises(error, match=re.escape(message)):
        call()


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
