"""Exact characteristic-class and quadratic-form invariants of
triangulated manifolds.

The public names resolve on first access (PEP 562, as in Scientific
Python SPEC 1): importing the package loads no submodule, and a name
loads only the module that defines it.  So `topinv -h` loads no program
module; qf and qf-equiv load quadforms and textformat, and factoring
only for a cofactor that trial division leaves; the F2 verbs (wu, sw,
sw-numbers, cobordant, and panel, compare and obstructions on a
non-orientable complex) load complexes, faces, f2linalg,
steenrod, charclasses and intersection; zlinalg loads for an integral
answer and quadforms for the form of an orientable 4m-manifold.
"""

_SUBMODULES = ("charclasses", "complexes", "f2linalg", "intersection",
               "quadforms", "steenrod", "zlinalg")

# each submodule and the public names it defines
_NAMES = {
    "complexes": ("CohomologyClass", "HomologySummary", "ParseError",
                  "PoincareReport", "SimplicialComplex", "TopologyError",
                  "cup_product", "homology", "is_poincare_f2", "pairing",
                  "parse_complex", "product_complex", "relabel"),
    "steenrod": ("bockstein", "cup_i", "sq"),
    "charclasses": ("CharClassProfile", "ObstructionReport", "cobordant",
                    "integral_sw", "obstructions", "partitions", "profile",
                    "sw_classes", "sw_numbers", "wu_classes"),
    "quadforms": ("FormError", "LocalInvariants", "QuadraticForm",
                  "is_antisquare", "is_even", "local_invariants", "oddity",
                  "p_split", "parse_gram", "rationally_equivalent",
                  "real_signature", "reciprocity_residual",
                  "signature_mod8_from_local"),
    "intersection": ("IntersectionForm", "InvariantPanel", "PanelComparison",
                     "compare_panels", "form_even",
                     "forms_rationally_equivalent", "intersection_form",
                     "panel", "signature", "signature_mod8"),
}
_HOME = {name: mod for mod, names in _NAMES.items() for name in names}

__all__ = sorted([*_SUBMODULES, *_HOME])


def _submodule(name: str):
    # through __import__, the import statement's own path, which
    # -X importtime reports; importlib.import_module bypasses it
    return getattr(__import__(f"{__name__}.{name}"), name)


def __getattr__(name: str):
    if name in _SUBMODULES:
        return _submodule(name)
    if name in _HOME:
        return getattr(_submodule(_HOME[name]), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
