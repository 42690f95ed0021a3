"""Exact computation with local braid-group actions on free groups.

The toolkit verifies and classifies the braid-compatible local actions
on free groups, reconstructs their successor graph, applies braid words
through the induced automorphisms, and computes group-valued invariants
of the closure links with desk-scale verification (Markov moves, finite
quotients, abelianizations).
"""

# The package exports each module's __all__.
from .autf2 import *
from .braid import *
from .groups import *
from .invariant import *
from .localrep import *
from .snf import *
from .words import *

__version__ = "0.1.0"
