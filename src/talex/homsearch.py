"""Enumeration of surjective homomorphisms from a knot group presentation
onto a finite group.

Every Wirtinger generator of a knot group is a meridian, and all meridians
are conjugate, so a homomorphism onto G sends every generator into a
single conjugacy class C; surjectivity further forces C to generate G
(ConjugacyClass.generates).  The search therefore runs class by class,
fixing x_1 to the least member of C and assigning x_2..x_m to members of
C by backtracking, checking each relator as soon as its last generator
receives a value.  Conjugation reads FiniteGroup.inner_automorphisms().
"""

from __future__ import annotations

from .algebra import FrozenValue
from .groups import FiniteGroup
from .knots import KnotPresentation

DEFAULT_BUDGET = 5_000_000


class BudgetExceededError(RuntimeError):
    """The backtracking search hit its node budget before finishing."""

    def __init__(self, budget: int):
        super().__init__(f"surjection search exceeded {budget} nodes")
        self.budget = budget


class Homomorphism(FrozenValue):
    """Images of the presentation generators (one element index each)."""

    __slots__ = ("group", "images")

    def __init__(self, group: FiniteGroup, images: tuple[int, ...]):
        self._fill(group, images)


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
    return {tuple(a[x] for x in images) for a in group.inner_automorphisms()}


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
    C_G(r)-conjugate of any surjection found with x_1 = r.  C_G(r) acts
    through the inner automorphisms that fix r, one per coset of Z(G):
    on an abelian G, the identity map alone.  Conjugate tuples generate
    subgroups of equal order, so surjectivity is checked once per orbit,
    on its least member, and not at all when C = {r}: then every image is
    r, and cls.generates already says that <r> = G.

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
    seen: set[tuple[int, ...]] = set()  # orbit minima of relator solutions
    found: set[tuple[int, ...]] = set()
    for cls in group.conjugacy_classes():
        if not cls.generates:
            continue
        rep = cls.representative
        members = sorted(cls.members)
        fixing = [a for a in group.inner_automorphisms() if a[rep] == rep]
        central = len(cls) == 1
        images = [0] * m

        def assign(pos: int):
            nonlocal nodes
            if pos == m:
                least = min(tuple(a[x] for x in images) for a in fixing)
                if least not in seen:
                    seen.add(least)
                    if central or len(group.subgroup_generated(least)) \
                            == group.order:
                        found.add(least)
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


def regular_equivalence_classes(homs: list[Homomorphism]
                                ) -> list[list[Homomorphism]]:
    """Partition surjections into classes whose compositions with the
    regular representation are conjugate representations, in the order
    of each class's first member, members in input order.

    Two surjections related by f' = sigma . f for an automorphism sigma
    give conjugate compositions: reg(sigma(g)) = Q reg(g) Q^-1 for the
    permutation matrix Q of sigma on the element basis.  Both Wada
    matrices are then conjugated by a block diagonal of copies of Q, so
    the unreduced numerator and denominator are equal, not only equal up
    to a unit.  The one runtime caller is twisted.invariants: it computes
    one member per class and hands the result to every member, and
    verify, compute and the nonvanishing sweep take their per-surjection
    results from it.

    Each class is keyed by the Cayley graph of its images s_1..s_m:
    number G by a breadth-first walk from e that visits x * s_1, ...,
    x * s_m for each reached x in turn, and list the number of x * s_i
    for every reached x and every i.  The keys of s and s' agree exactly
    when an automorphism sends s to s':
    - an automorphism sigma with sigma(s_i) = s'_i carries one walk onto
      the other, so the keys agree;
    - conversely, equal keys give a bijection phi of G (both walks reach
      all of G) with phi(e) = e and phi(x * s_i) = phi(x) * s'_i; every
      element is a positive word w in the s_i, so phi(x * w) = phi(x) *
      phi(w) by induction on the length of w, and phi is an automorphism
      that sends s to s'.

    When every image is one g, the walk's key depends only on m and the
    order of g, and that pair is the key, with no walk: onto G, G = <g> is
    cyclic, and g^k -> g'^k is an automorphism for generators g and g'.
    """
    classes: dict[tuple, list[Homomorphism]] = {}
    for h in homs:
        key = [len(h.images)]
        if len(set(h.images)) == 1:
            key.append(h.group.element_order(h.images[0]))
        else:
            cayley, e = h.group.cayley, h.group.identity
            number = [-1] * h.group.order
            number[e] = 0
            walk = [e]
            for x in walk:
                row = cayley[x]
                for s in h.images:
                    k = number[row[s]]
                    if k < 0:
                        k = number[row[s]] = len(walk)
                        walk.append(row[s])
                    key.append(k)
        classes.setdefault((h.group, tuple(key)), []).append(h)
    return list(classes.values())
