"""singlab: exact resolution combinatorics of cyclic quotient surface
singularities.

Hirzebruch-Jung chains, eta invariants of the lens-space boundaries, type
T(r,s,d) singularities and their enumeration, the non-collapsing quantity
C = 2 - b2 + 2/p - 3*eta for Artin and contracted configurations, and an
exhaustive deterministic search over (p, q) ranges.  All invariants are
exact rationals; floating point appears only in the independent cotangent
oracle for eta.
"""

from .chains import (
    AtNode,
    CyclicQuotient,
    OnCurve,
    ResolutionChain,
    blow_down,
    blow_up,
    chain_to_quotient,
    hj_resolve,
    non_minimal_graph,
    reverse_chain,
)
from .errors import (
    DivisionByZero,
    IndexOutOfRange,
    InternalCheckError,
    InvalidChain,
    InvalidConfiguration,
    InvalidN,
    InvalidSite,
    MismatchError,
    NonMinimalChain,
    NotInvertible,
    NotMinusOneCurve,
    RowLimitExceeded,
    SinglabError,
    UnsupportedFamily,
)
from .eta import eta_cotangent, eta_exact
from .exact import cf_eval, cf_eval_pair, decimal_str, mod_inverse
from .invariants import (
    ContractedInterval,
    FamilyClosedForm,
    InvariantReport,
    ResolutionConfiguration,
    artin_configuration,
    attach_family,
    configuration,
    configuration_invariants,
    family_minimal_graph,
    find_type_t_substrings,
    theorem_tables,
)
from .search import MODES, SearchQuery, row_limit, scan, scan_pieces
from .type_t import (
    TypeTInvariants,
    TypeTParams,
    conjugate,
    enumerate_type_t,
    grow_left,
    grow_right,
    recognize_type_t,
    seed_chain,
    type_t_group,
    type_t_invariants,
    type_t_string,
)

__version__ = "0.1.0"

__all__ = [
    "AtNode",
    "ContractedInterval",
    "CyclicQuotient",
    "DivisionByZero",
    "FamilyClosedForm",
    "IndexOutOfRange",
    "InternalCheckError",
    "InvalidChain",
    "InvalidConfiguration",
    "InvalidN",
    "InvalidSite",
    "InvariantReport",
    "MODES",
    "MismatchError",
    "NonMinimalChain",
    "NotInvertible",
    "NotMinusOneCurve",
    "OnCurve",
    "ResolutionChain",
    "ResolutionConfiguration",
    "RowLimitExceeded",
    "SearchQuery",
    "SinglabError",
    "TypeTInvariants",
    "TypeTParams",
    "UnsupportedFamily",
    "artin_configuration",
    "attach_family",
    "blow_down",
    "blow_up",
    "cf_eval",
    "cf_eval_pair",
    "chain_to_quotient",
    "configuration",
    "configuration_invariants",
    "conjugate",
    "decimal_str",
    "enumerate_type_t",
    "eta_cotangent",
    "eta_exact",
    "family_minimal_graph",
    "find_type_t_substrings",
    "grow_left",
    "grow_right",
    "hj_resolve",
    "mod_inverse",
    "non_minimal_graph",
    "recognize_type_t",
    "reverse_chain",
    "row_limit",
    "scan",
    "scan_pieces",
    "seed_chain",
    "theorem_tables",
    "type_t_group",
    "type_t_invariants",
    "type_t_string",
]
