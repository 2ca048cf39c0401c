"""Exact split-weight enumerators of linear codes over small finite
fields, the duality transforms relating a code to its dual, subcode
support designs, and Hahn-kernel coefficient recovery.

Everything is computed in exact integer and rational arithmetic; every
identity has at least two independent computation routes and the test
suite insists they agree to the last digit.
"""

from .bipoly import BiHomPoly, PairSubstitution
from .code import LinearCode, RefSet, parse_code
from .designs import (
    BlockMultiset,
    DesignVerdict,
    is_t_design,
    jacobi_by_polarization,
    punctured_split,
    subcode_support_designs,
    t_independence_check,
)
from .enumerators import (
    JacobiTable,
    extended_jacobi,
    extended_jacobi_direct,
    extended_jacobi_via_q,
    higher_from_extended,
    higher_jacobi,
    higher_jacobi_via_q,
    higher_weight_enum,
    jacobi,
    weight_enum,
)
from .errors import (
    DegreeMismatch,
    DegreeUnderflow,
    DesignHypothesisFails,
    DivisionByZero,
    FieldMismatch,
    JacobiForgeError,
    NonIntegerResult,
    NotPrime,
    ParseError,
    PochhammerZeroDenominator,
    SingularMatrix,
    TooLarge,
)
from .exactmath import RatMatrix, rat_solve
from .gf import FieldSpec, field_new
from .harmonic import (
    HahnParams,
    SubsetFn,
    delsarte_design_check,
    f_tilde,
    h_dt,
    hahn_eval,
    harm_basis,
    harmonic_higher_wenum,
    recover_jacobi,
)
from .qcomb import gauss_binom, qbracket, qfact
from .transforms import MWContext, mw_extended_jacobi, mw_higher_jacobi, mw_higher_weight
from .verify import verify_all

__version__ = "0.1.0"
