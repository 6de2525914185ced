"""The q-deformed Lie superalgebra acting on the group parameters.

Verifies the bracket relations, the displayed consistency identities, and
the operational meaning of "the cross relations are consistent": local
confluence of the combined system and agreement of the two reduction orders
on every bracket-times-parameter word.

The X/Y change of basis (44) is the identity family xy_basis of LieAlg,
checked by calculus.verify_family in the full presentation.  Its words use
only SUPER_GENS, and there LieAlg reduces as the bracket relations alone
would: every LieAlg rule whose pattern lies in SUPER_GENS has its
replacement in SUPER_GENS, and every other rule needs a group parameter
before it can fire.
"""

from __future__ import annotations

from functools import partial
from itertools import chain

from .calculus import verify_family
from .kernel import (
    Element,
    branches,
    confluence_residual,
    graded_commutator,
    residual,
)
from .report import Check
from .ring import ONE, LaurentScalar
from .rmatrix import T_NAMES

SUPER_GENS = ("T1", "T2", "nabla_p", "nabla_m")
BODY_GENS = tuple(chain(*T_NAMES))


def verify_superalgebra(cat):
    """Bracket relations, the displayed consistency identities, and local
    confluence of the combined coordinate/bracket/cross-rule system, decided
    on its critical pairs (diamond lemma)."""
    return [*verify_family("superalg_43", cat), *verify_family("consistency_s5", cat),
            confluence_check(cat)]


def confluence_check(cat):
    """LieAlg's critical pairs, decided once per run: the confluence suite's
    row confluence.LieAlg reads this check's verdict."""
    return Check("superalgebra.confluence",
                 "combined bracket/cross-rule system locally confluent "
                 "(critical pairs, diamond lemma)", "(2)(43)(45)",
                 partial(confluence_residual, cat.presentation("LieAlg")))


def verify_cross_relations_consistency(cat):
    """For every bracket pattern (L, L'), a LieAlg rule pattern in
    SUPER_GENS, and every group parameter g, reduce L*L'*g bracket-first and
    cross-relation-first and compare."""
    la = cat.presentation("LieAlg")
    brackets = [r.pattern for r in la.rules if set(r.pattern) <= set(SUPER_GENS)]

    def fn(word):
        via_bracket, via_cross = branches(word, la)
        return residual(via_bracket - via_cross, la)

    return [Check(f"cross_consistency.{L}_{Lp}_{g}",
                  f"{L}*{Lp}*{g}: bracket-first vs cross-first", "(43)(45)",
                  partial(fn, (L, Lp, g)))
            for L, Lp in brackets for g in BODY_GENS]


def classical_limit_checks(cat):
    """At q = 1 every deformation term of the brackets vanishes and the
    undeformed superalgebra remains.  Symbolic by design, so it reads the
    symbolic LieAlg of cat, also in a numeric shadow run.

    Each bracket is reduced in the symbolic LieAlg, and the coefficients of
    its difference from the undeformed bracket are then evaluated at q = 1.
    That is exactly the reduction in a catalog built at q = 1: evaluation at
    q = 1 is a ring map, and which rule normalize applies where depends on
    the words only, never on a coefficient, so the two commute."""
    la = cat.symbolic.presentation("LieAlg")
    E = Element.word
    # undeformed brackets: [T1, np] = -np, [T2, np] = np, [T1, nm] = nm,
    # [T2, nm] = -nm, [T1, T2] = 0, np^2 = nm^2 = 0, {nm, np} = T1 + T2
    expected = {
        ("T1", "nabla_p"): E(("nabla_p",), -ONE),
        ("T2", "nabla_p"): E(("nabla_p",)),
        ("T1", "nabla_m"): E(("nabla_m",)),
        ("T2", "nabla_m"): E(("nabla_m",), -ONE),
        ("T1", "T2"): Element.zero(),
        ("nabla_p", "nabla_p"): Element.zero(),
        ("nabla_m", "nabla_m"): Element.zero(),
        ("nabla_m", "nabla_p"): E(("T1",)) + E(("T2",)),
    }

    def fn(x, y, want):
        diff = graded_commutator(la.el(x), la.el(y), la) - want
        return residual(diff.mapped(lambda c: LaurentScalar.from_fraction(c.eval_at(1))), la)

    return [Check(f"classical_limit.{x}_{y}",
                  f"bracket of {x}, {y} at q = 1 is undeformed", "(43)",
                  partial(fn, x, y, want))
            for (x, y), want in expected.items()]
