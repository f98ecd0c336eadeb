"""Loop vectorisation for score-computing programs.

The package provides the scalar reference interpreter, the antichain-
indexed vectorised interpreter with speculative loops and fixed-point
early exit, the relaxed flag-masked variant, the translations between the
three command tiers, and a differential-testing harness that turns the
soundness statements into executable oracles.
"""

from .indices import EMPTY, EMPTY_CHAIN, ROOT_CHAIN, AChain, Index
from .parser import parse
from .pmap import PMap
from .rdb import Rdb
from .relaxed import Flag, fixcheck, run_relaxed
from .source_interp import SrcState, run_src
from .state import DENSE, SPARSE, TgtOutcome, make_state
from .syntax import Variable, print_cmd
from .target_interp import FIXPOINT, UNROLLED, run_tgt
from .translate import embed, lower_relaxed, vectorise, vectorise_relaxed

__version__ = "0.1.0"

__all__ = [
    "AChain", "DENSE", "EMPTY", "EMPTY_CHAIN", "FIXPOINT", "Flag", "Index",
    "PMap", "ROOT_CHAIN", "Rdb", "SPARSE", "SrcState", "TgtOutcome",
    "UNROLLED", "Variable", "embed", "fixcheck", "lower_relaxed",
    "make_state", "parse", "print_cmd", "run_relaxed", "run_src", "run_tgt",
    "vectorise", "vectorise_relaxed",
]
