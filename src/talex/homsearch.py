"""Enumeration of surjective homomorphisms from a knot group presentation
onto a finite group.

Every Wirtinger generator of a knot group is a meridian, and all meridians
are conjugate, so a homomorphism onto G sends every generator into a
single conjugacy class C; surjectivity further forces the normal closure
of C to be all of G.  The search therefore runs class by class, fixing x_1
to the least member of C and assigning x_2..x_m to members of C by
backtracking, checking each relator as soon as its last generator
receives a value.
"""

from __future__ import annotations

from dataclasses import dataclass

from .groups import FiniteGroup
from .knots import KnotPresentation

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The backtracking search hit its node budget before finishing."""

    def __init__(self, budget: int):
        super().__init__(f"surjection search exceeded {budget} nodes")
        self.budget = budget


@dataclass(frozen=True)
class Homomorphism:
    """Images of the presentation generators (one element index each)."""

    group: FiniteGroup
    images: tuple[int, ...]


def evaluate_word(group: FiniteGroup, images, word) -> int:
    acc = group.identity
    cayley = group.cayley
    for letter in word:
        g = images[abs(letter) - 1]
        if letter < 0:
            g = group.inverses[g]
        acc = cayley[acc][g]
    return acc


def conjugates(group: FiniteGroup, images) -> set[tuple[int, ...]]:
    """The orbit of an image tuple under simultaneous conjugation."""
    return {tuple(group.conjugate(x, g) for x in images)
            for g in range(group.order)}


def find_meridional_surjections(pres: KnotPresentation, group: FiniteGroup,
                                up_to_conjugacy: bool = False,
                                budget: int = DEFAULT_BUDGET
                                ) -> list[Homomorphism]:
    """All surjections sending every generator into one conjugacy class.

    Output is deterministic: homomorphisms sorted by their image tuples,
    with up_to_conjugacy the least member of each simultaneous-conjugation
    orbit, and otherwise the union of those orbits.  The search finds the
    least members directly.  Let r = min C for the class C of the images.
    Every orbit has members with x_1 = r, since x_1 can be conjugated to
    r, and they form one orbit of the centralizer C_G(r).  The orbit's
    least member has x_1 = r, because r = min C, so it is the least
    C_G(r)-conjugate of any surjection found with x_1 = r.

    The budget bounds the nodes of this tree: one for x_1 = r, and one
    per member of C tried at x_2..x_m.  Raises BudgetExceededError rather
    than silently truncating.
    """
    if not pres.meridional:
        raise ValueError("surjection search needs a meridional presentation")
    m = pres.generators
    e = group.identity

    # check each relator as soon as its highest generator is assigned
    relators_at = [[] for _ in range(m + 1)]
    for r in pres.relators:
        if r:
            relators_at[max(abs(letter) for letter in r)].append(r)

    nodes = 0
    found: set[tuple[int, ...]] = set()
    for cls in group.conjugacy_classes():
        rep = cls.representative
        if len(group.normal_closure(rep)) != group.order:
            continue
        members = sorted(cls.members)
        images = [0] * m
        centralizer = None  # C_G(rep), built at the class's first surjection

        def assign(pos: int):
            nonlocal nodes, centralizer
            if pos == m:
                if len(group.subgroup_generated(images)) == group.order:
                    if centralizer is None:
                        cayley = group.cayley
                        centralizer = [g for g in range(group.order)
                                       if cayley[g][rep] == cayley[rep][g]]
                    found.add(min(tuple(group.conjugate(x, g) for x in images)
                                  for g in centralizer))
                return
            for g in members if pos else (rep,):
                nodes += 1
                if nodes > budget:
                    raise BudgetExceededError(budget)
                images[pos] = g
                if all(evaluate_word(group, images, r) == e
                       for r in relators_at[pos + 1]):
                    assign(pos + 1)
            images[pos] = 0

        assign(0)

    if not up_to_conjugacy:
        found = set().union(*(conjugates(group, f) for f in found))
    return [Homomorphism(group, images) for images in sorted(found)]


def extends_to_automorphism(group: FiniteGroup, src, dst) -> bool:
    """True iff the assignment src[i] -> dst[i] extends to an automorphism
    of the whole group (src must generate).

    The walk from e sets sigma(x s) = sigma(x) d for every reached x and
    every pair (s, d), and fails on any conflict.  In a finite group every
    element is a positive word in src, so with sigma(e) = e, induction on
    the length of w gives sigma(x w) = sigma(x) sigma(w) once the walk
    has reached all of G: sigma is a homomorphism, and a bijective one is
    an automorphism.  No check of the law over all |G|^2 pairs is needed.
    """
    e = group.identity
    sigma = {e: e}
    frontier = [e]
    while frontier:
        x = frontier.pop()
        sx = sigma[x]
        for s, d in zip(src, dst):
            y = group.mul(x, s)
            z = group.mul(sx, d)
            prior = sigma.get(y)
            if prior is None:
                sigma[y] = z
                frontier.append(y)
            elif prior != z:
                return False
    if len(sigma) != group.order:
        return False
    return len(set(sigma.values())) == group.order


def regular_equivalence_classes(homs: list[Homomorphism]
                                ) -> list[list[Homomorphism]]:
    """Partition surjections into classes whose compositions with the
    regular representation are conjugate representations.

    Two surjections related by f' = sigma . f for an automorphism sigma
    give conjugate compositions: reg(sigma(g)) = Q reg(g) Q^-1 for the
    permutation matrix Q of sigma on the element basis.  Both Wada
    matrices are then conjugated by a block diagonal of copies of Q, so
    the unreduced numerator and denominator are equal, not only equal up
    to a unit.  The one runtime caller is twisted.invariants: it computes
    one member per class and hands the result to every member, and
    verify, compute and the nonvanishing sweep take their per-surjection
    results from it.
    """
    classes: list[list[Homomorphism]] = []
    for h in homs:
        for cls in classes:
            first = cls[0]
            if first.group is h.group and extends_to_automorphism(
                    h.group, first.images, h.images):
                cls.append(h)
                break
        else:
            classes.append([h])
    return classes
