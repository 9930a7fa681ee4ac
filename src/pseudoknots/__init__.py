"""Invariants of pseudoknots.

Computes the signed weighted resolution set (were-set) of a pseudodiagram
by exhaustive resolution enumeration with Jones-polynomial classification,
the Gauss-diagrammatic invariant mapping pseudoknots to integer-decorated
chord diagrams, and a move engine (Reidemeister and pseudo-Reidemeister
rewrites, shadow flypes, counterexample family) demonstrating that the
were-set does not determine the pseudoknot.
"""

from .bracket import (
    DiagramTooLargeError,
    KnotName,
    KnotTable,
    Unknown,
    build_table,
    classify,
    jones,
    kauffman_bracket,
)
from .chords import DecoratedChordDiagram, canonical_form, canonical_hex, evenness_check
from .diagram import (
    PDError,
    PseudoPD,
    ResolvedPD,
    mirror,
    parse_pd,
    pd_isomorphic,
    resolve,
    unknot,
    writhe,
)
from .flype import (
    ChordFlypeSite,
    FlypeError,
    FlypeSite,
    chord_flype,
    chord_site_for,
    counterexample_pair,
    enumerate_flype_sites,
    family,
    family_site,
    shadow_flype_pd,
)
from .gauss import GaussError, PseudoGaussDiagram, mirror_gauss, parse_gauss, pd_to_gauss, resolve_gauss
from .invariant import compute_i, i_equal, prechord_diagram
from .laurent import LaurentPolynomial
from .moves import MoveError, MoveSite, apply_move, scramble
from .tables import alternating_resolution, load_table, rebuild_table, standard_diagrams, twist_shadow
from .wereset import WereSet, wereset, wereset_equal

__all__ = [
    "ChordFlypeSite",
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
    "build_table",
    "canonical_form",
    "canonical_hex",
    "chord_flype",
    "chord_site_for",
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
    "mirror_gauss",
    "parse_gauss",
    "parse_pd",
    "pd_isomorphic",
    "pd_to_gauss",
    "prechord_diagram",
    "rebuild_table",
    "resolve",
    "resolve_gauss",
    "scramble",
    "shadow_flype_pd",
    "standard_diagrams",
    "twist_shadow",
    "unknot",
    "wereset",
    "wereset_equal",
    "writhe",
]
