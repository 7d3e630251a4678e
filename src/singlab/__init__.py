"""singlab: exact resolution combinatorics of cyclic quotient surface
singularities.

Hirzebruch-Jung chains, eta invariants of the lens-space boundaries, type
T(r,s,d) singularities and their enumeration, the non-collapsing quantity
C = 2 - b2 + 2/p - 3*eta for Artin and contracted configurations, and an
exhaustive deterministic search over (p, q) ranges.  All invariants are
exact rationals; floating point appears only in the independent cotangent
oracle for eta.
"""

from .chains import *
from .errors import *
from .eta import *
from .exact import *
from .invariants import *
from .search import *
from .type_t import *

__version__ = "0.1.0"

# Each module's __all__ is the one list of its public names; this form is
# the one the typing spec recognises for re-exports.
__all__ = []
__all__ += chains.__all__
__all__ += errors.__all__
__all__ += eta.__all__
__all__ += exact.__all__
__all__ += invariants.__all__
__all__ += search.__all__
__all__ += type_t.__all__
