"""The package's public surface: the names, and the objects they are."""

import sys

import pytest

import topinv

# topinv.__all__ when every submodule was imported up front
PUBLIC = [
    "CharClassProfile", "CohomologyClass", "FormError", "HomologySummary",
    "IntersectionForm", "InvariantPanel", "LocalInvariants",
    "ObstructionReport", "PanelComparison", "ParseError", "PoincareReport",
    "QuadraticForm", "SimplicialComplex", "TopologyError", "bockstein",
    "charclasses", "cobordant", "compare_panels", "complexes", "cup_i",
    "cup_product", "f2linalg", "form_even", "forms_rationally_equivalent",
    "homology", "integral_sw", "intersection", "intersection_form",
    "is_antisquare", "is_even", "is_poincare_f2", "local_invariants",
    "obstructions", "oddity", "p_split", "pairing", "panel",
    "parse_complex", "parse_gram", "partitions", "product_complex",
    "profile", "quadforms", "rationally_equivalent", "real_signature",
    "reciprocity_residual", "relabel", "signature", "signature_mod8",
    "signature_mod8_from_local", "sq", "steenrod", "sw_classes",
    "sw_numbers", "wu_classes", "zlinalg",
]


def test_all_is_unchanged():
    assert topinv.__all__ == PUBLIC
    assert set(PUBLIC) <= set(dir(topinv))


def test_each_name_is_the_object_in_its_home_module():
    for name in PUBLIC:
        obj = getattr(topinv, name)
        if name in ("charclasses", "complexes", "f2linalg", "intersection",
                    "quadforms", "steenrod", "zlinalg"):
            assert obj is sys.modules[f"topinv.{name}"]
        else:
            assert obj.__module__.startswith("topinv."), name
            assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert topinv.panel is topinv.intersection.panel
    assert topinv.parse_gram is topinv.quadforms.parse_gram
    assert topinv.SimplicialComplex is topinv.complexes.SimplicialComplex


def test_star_import_binds_the_public_names():
    ns: dict = {}
    exec("from topinv import *", ns)
    assert set(ns) - {"__builtins__"} == set(PUBLIC)
    assert ns["sw_numbers"] is topinv.charclasses.sw_numbers


def test_unknown_attribute_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        topinv.no_such_name
    assert not hasattr(topinv, "no_such_name")
