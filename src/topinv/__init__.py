"""Exact characteristic-class and quadratic-form invariants of
triangulated manifolds."""

from .complexes import (CohomologyClass, HomologySummary, ParseError,
                        PoincareReport, SimplicialComplex, TopologyError,
                        cup_product, homology, is_poincare_f2, pairing,
                        parse_complex, product_complex, relabel)
from .steenrod import bockstein, cup_i, sq
from .charclasses import (CharClassProfile, ObstructionReport, cobordant,
                          integral_sw, obstructions, partitions, profile,
                          sw_classes, sw_numbers, wu_classes)
from .quadforms import (FormError, LocalInvariants, QuadraticForm,
                        is_antisquare, is_even, local_invariants, oddity,
                        p_split, parse_gram, rationally_equivalent,
                        real_signature, reciprocity_residual,
                        signature_mod8_from_local)
from .intersection import (IntersectionForm, InvariantPanel, PanelComparison,
                           compare_panels, form_even,
                           forms_rationally_equivalent, intersection_form,
                           panel, signature, signature_mod8)

__all__ = [name for name in dir() if not name.startswith("_")]
