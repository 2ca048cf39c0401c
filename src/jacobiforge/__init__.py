"""Exact split-weight enumerators of linear codes over small finite
fields, the duality transforms relating a code to its dual, subcode
support designs, and Hahn-kernel coefficient recovery.

Everything is computed in exact integer and rational arithmetic; every
identity has at least two independent computation routes and the test
suite insists they agree to the last digit.

The table layer is imported with the package.  The names exported from
the design, harmonic and verify modules are resolved on first use, so a
process that computes only tables never compiles those modules.
"""

from .bipoly import BiHomPoly
from .code import LinearCode, RefSet, Run, parse_code
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
from .qcomb import gauss_binom, qbracket, qfact
from .transforms import MWContext, mw_extended_jacobi, mw_higher_jacobi, mw_higher_weight

__version__ = "0.1.0"

# exported name -> the module that defines it, imported on first use
_LAZY = {
    "BlockMultiset": "designs",
    "DesignVerdict": "designs",
    "is_t_design": "designs",
    "jacobi_by_polarization": "designs",
    "subcode_support_designs": "designs",
    "t_independence_check": "designs",
    "HahnParams": "harmonic",
    "SubsetFn": "harmonic",
    "delsarte_design_check": "harmonic",
    "f_tilde": "harmonic",
    "h_dt": "harmonic",
    "hahn_eval": "harmonic",
    "harm_basis": "harmonic",
    "harmonic_higher_wenum": "harmonic",
    "recover_jacobi": "harmonic",
    "verify_all": "verify",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{module}", __name__), name)
