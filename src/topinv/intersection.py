"""Middle-degree intersection forms and the invariant panel.

For an orientable 4m-dimensional Poincare complex the cup product on the
torsion-free part of H^(2m)(K;Z), evaluated on the oriented fundamental
cycle, is a symmetric nonsingular integer form.  The panel bundles its
signature data with the characteristic-class invariants; the comparator
reports whether any implemented obstruction separates two complexes.
intersection_form, on the pinned basis of cohomology_z, serves only the
intersection verb, which prints its gram; every other answer reads
panel_form, on the unit-first basis of free_cocycles.  An odd gram with
v_2m = 0 is an error, and so is an even one with v_2m != 0 when
dim H^(2m)(K; F2) is the rank (IntersectionForm.even says why).

quadforms is imported only where a form is built or read, so a panel of
a complex with no middle form (non-orientable, or not 4m-dimensional)
never loads it.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING

from . import charclasses
from .complexes import (NonOrientableError,  # noqa: F401 (re-exported)
                        SimplicialComplex, TopologyError, cup_cochain_z,
                        is_poincare_f2)

if TYPE_CHECKING:
    from . import quadforms


@dataclass
class IntersectionForm:
    m: int
    basis: list[tuple[int, ...]]
    gram: list[list[int]]
    orientation_tag: str

    @property
    def rank(self) -> int:
        return len(self.gram)

    @functools.cached_property
    def quadratic_form(self) -> quadforms.QuadraticForm:
        """The gram as a rational form, built once per intersection form."""
        from . import quadforms
        return quadforms.QuadraticForm(self.gram)

    @functools.cached_property
    def signature(self) -> int:
        """Sylvester signature of the gram, exact."""
        from . import quadforms
        return quadforms.real_signature(self.quadratic_form)

    @functools.cached_property
    def signature_mod8(self) -> int:
        """Signature mod 8, cross-checked through the local invariants."""
        from . import quadforms
        local = quadforms.signature_mod8_from_local(self.quadratic_form)
        if local != self.signature % 8:
            raise TopologyError(
                "signature mod 8 routes disagree (local vs Sylvester)")
        return local

    def even(self, K: SimplicialComplex) -> bool:
        """Evenness of the gram, checked against K's middle Wu class: x.x =
        <v_2m u xbar, [K]> mod 2 for x free and xbar its reduction, so v_2m
        = 0 makes the gram even; the converse needs every F2 class to be an
        xbar: dim H^2m(K; F2) = rank (Enriques surfaces: even, v_2 != 0)."""
        from . import quadforms
        gram_even = quadforms.is_even(self.quadratic_form)
        wu_zero = charclasses.wu_classes(K)[2 * self.m].is_zero
        if gram_even != wu_zero and (
                wu_zero or K.cohomology_f2(2 * self.m).dim == self.rank):
            raise TopologyError(
                "evenness criteria disagree (gram vs middle Wu class)")
        return gram_even


def _form(K: SimplicialComplex, basis_of) -> IntersectionForm:
    """The checked form on basis_of(2m), a basis of H^(2m)(K; Z)/torsion."""
    n = K.dimension
    if n % 4 != 0 or n == 0:
        raise TopologyError("dimension not 4m")
    if not is_poincare_f2(K):
        raise TopologyError("duality pairing singular")
    fc = K.fundamental_class_z()
    m = n // 4
    # rank H^2m(K; Z) <= dim H^2m(K; F2), so an F2-trivial middle
    # degree gives the rank-0 form with no integral elimination
    basis = basis_of(2 * m) if K.cohomology_f2(2 * m).dim else []
    gram = [[sum(map(operator.mul, cup_cochain_z(K, 2 * m, 2 * m, x, y), fc))
             for y in basis] for x in basis]
    if gram != [list(col) for col in zip(*gram)]:
        raise TopologyError("intersection gram not symmetric (internal error)")
    tag = "+1 on " + " ".join(map(str, K.simplices(n)[0]))
    form = IntersectionForm(m, basis, gram, tag)
    from . import quadforms
    try:
        form.quadratic_form  # its diagonalization raises on a singular gram
    except quadforms.FormError:
        raise TopologyError("pairing singular on torsion-free part")
    return form


def intersection_form(K: SimplicialComplex) -> IntersectionForm:
    """The form on cohomology_z's pinned basis: the gram the verb prints."""
    return K._memo(("iform",), lambda: _form(K, K.cohomology_z))


def panel_form(K: SimplicialComplex) -> IntersectionForm:
    """The intersection form on free_cocycles, congruent to the printed one."""
    return K._memo(("pform",), lambda: _form(K, K.free_cocycles))


def signature(K: SimplicialComplex) -> int:
    """Sylvester signature of the intersection form, exact."""
    return panel_form(K).signature


def signature_mod8(K: SimplicialComplex) -> int:
    """Signature mod 8, cross-checked through the local invariants."""
    return panel_form(K).signature_mod8


def form_even(K: SimplicialComplex) -> bool:
    """Evenness of the intersection form, verified both ways."""
    return panel_form(K).even(K)


@dataclass
class InvariantPanel:
    """The comparison panel: cobordism, spin flavours, and signature data.

    Form fields are None unless the dimension is a positive multiple of 4
    and the complex is orientable; de_rham is None unless dim = 4k+1 >= 5.
    """

    dim: int
    sw_numbers: dict[tuple[int, ...], int]
    orientable: bool
    k_orientable_max: int
    spin: bool
    spin_c: bool
    de_rham: int | None
    even_form: bool | None
    signature_mod8: int | None
    signature: int | None


def panel(K: SimplicialComplex) -> InvariantPanel:
    """The form's fields off one panel_form, the rest off obstructions'."""
    even = sig8 = sig = None
    n = K.dimension
    # w_1 = 0 rules out NonOrientableError: a sign conflict gives
    # H^n(K; Z) = Z/2, so Sq^1 = rho beta maps onto H^n(K; F2) and v_1 != 0
    if n % 4 == 0 and n > 0 and charclasses.sw_classes(K)[1].is_zero:
        form = panel_form(K)
        even, sig, sig8 = form.even(K), form.signature, form.signature_mod8
    ob = charclasses.obstructions(K)
    names = {f.name for f in fields(InvariantPanel)}
    return InvariantPanel(
        dim=n, sw_numbers=charclasses.sw_numbers(K), even_form=even,
        signature_mod8=sig8, signature=sig,
        **{f.name: getattr(ob, f.name) for f in fields(ob) if f.name in names})


def forms_rationally_equivalent(
        k1: SimplicialComplex, k2: SimplicialComplex
) -> tuple[quadforms.EquivalenceResult, quadforms.EquivalenceResult]:
    """Rational equivalence of the two extracted intersection forms.

    The orientation convention fixes each gram only up to a global sign,
    so the comparison is reported twice: against the second form as-is
    and against its negation.
    """
    from . import quadforms
    f = panel_form(k1).quadratic_form
    g = panel_form(k2).quadratic_form
    gneg = quadforms.QuadraticForm([[-v for v in row] for row in g.gram])
    return (quadforms.rationally_equivalent(f, g),
            quadforms.rationally_equivalent(f, gneg))


@dataclass
class PanelComparison:
    verdict: str
    differing: list[str]

    @property
    def consistent(self) -> bool:
        return self.verdict == "consistent-with-profinite-isomorphism"


def _unsigned(p: InvariantPanel, name: str):
    """Field name of p with the orientation's sign removed."""
    v = getattr(p, name)
    if v is None or name not in ("signature", "signature_mod8"):
        return v
    return abs(v) if name == "signature" else min(v, -v % 8)


def compare_panel_values(a: InvariantPanel, b: InvariantPanel) -> PanelComparison:
    """Comparator semantics: the verdict follows the cobordism, spin,
    spin_c, and signature-mod-8 obstructions; the differing list records
    every panel field that disagrees, in InvariantPanel's field order.

    Both signature fields are compared up to sign, since the orientation
    convention is not a relabeling invariant.  A consistent verdict never
    asserts that the profinite completions agree; it only means no
    implemented obstruction separates the inputs.
    """
    if a.dim != b.dim:
        return PanelComparison("distinguished by dimension", ["dim"])
    differing = [f.name for f in fields(InvariantPanel)
                 if _unsigned(a, f.name) != _unsigned(b, f.name)]
    decisive = {"sw_numbers", "spin", "spin_c", "signature_mod8"}
    if decisive & set(differing):
        return PanelComparison("distinguished", differing)
    return PanelComparison("consistent-with-profinite-isomorphism", differing)


def compare_panels(k1: SimplicialComplex, k2: SimplicialComplex) -> PanelComparison:
    return compare_panel_values(panel(k1), panel(k2))
