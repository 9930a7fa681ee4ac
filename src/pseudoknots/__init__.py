"""Invariants of pseudoknots.

Computes the signed weighted resolution set (were-set) of a pseudodiagram
by exhaustive resolution enumeration with Jones-polynomial classification,
the Gauss-diagrammatic invariant mapping pseudoknots to integer-decorated
chord diagrams, and a move engine (Reidemeister and pseudo-Reidemeister
rewrites, shadow flypes, counterexample family) demonstrating that the
were-set does not determine the pseudoknot.

Importing the package loads the were-set path only: `bracket`, `diagram`,
`laurent`, `tables` and `wereset`.  The names of the other modules are
loaded on first use (`_LAZY`), so a `pseudoknots wereset` process does
not compile the Gauss, flype and move layers.  `wereset` is imported
here, not lazily: the submodule of that name, once imported, would
otherwise be bound as `pseudoknots.wereset` in place of the function.
"""

import importlib

from .bracket import (
    DiagramTooLargeError,
    KnotName,
    KnotTable,
    Unknown,
    classify,
    jones,
    kauffman_bracket,
)
from .diagram import (
    FlypeError,
    GaussError,
    PDError,
    PseudoPD,
    ResolvedPD,
    mirror,
    parse_pd,
    resolve,
    unknot,
    writhe,
)
from .laurent import LaurentPolynomial
from .tables import alternating_resolution, load_table, rebuild_table, standard_diagrams, twist_shadow
from .wereset import WereSet, wereset, wereset_equal

# public name -> the submodule that defines it, imported on first use
_LAZY = {
    "DecoratedChordDiagram": "chords",
    "canonical_form": "chords",
    "canonical_hex": "chords",
    "evenness_check": "chords",
    "FlypeSite": "flype",
    "counterexample_pair": "flype",
    "enumerate_flype_sites": "flype",
    "family": "flype",
    "family_site": "flype",
    "shadow_flype_pd": "flype",
    "PseudoGaussDiagram": "gauss",
    "parse_gauss": "gauss",
    "pd_to_gauss": "gauss",
    "compute_i": "invariant",
    "i_equal": "invariant",
    "prechord_diagram": "invariant",
    "MoveError": "moves",
    "MoveSite": "moves",
    "apply_move": "moves",
    "scramble": "moves",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


__all__ = [
    "DecoratedChordDiagram",
    "DiagramTooLargeError",
    "FlypeError",
    "FlypeSite",
    "GaussError",
    "KnotName",
    "KnotTable",
    "LaurentPolynomial",
    "MoveError",
    "MoveSite",
    "PDError",
    "PseudoGaussDiagram",
    "PseudoPD",
    "ResolvedPD",
    "Unknown",
    "WereSet",
    "alternating_resolution",
    "apply_move",
    "canonical_form",
    "canonical_hex",
    "classify",
    "compute_i",
    "counterexample_pair",
    "enumerate_flype_sites",
    "evenness_check",
    "family",
    "family_site",
    "i_equal",
    "jones",
    "kauffman_bracket",
    "load_table",
    "mirror",
    "parse_gauss",
    "parse_pd",
    "pd_to_gauss",
    "prechord_diagram",
    "rebuild_table",
    "resolve",
    "scramble",
    "shadow_flype_pd",
    "standard_diagrams",
    "twist_shadow",
    "unknot",
    "wereset",
    "wereset_equal",
    "writhe",
]
