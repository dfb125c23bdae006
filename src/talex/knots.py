"""Knot group presentations: free words, Fox derivatives and the Fox
Jacobian, the Alexander minor, and Wirtinger presentations read off planar
diagram (PD) codes.

fox_jacobian is the one function that takes the Fox derivatives of a
presentation's relators, and it checks what every use of them needs: a
meridional presentation of deficiency one and a dropped generator in
range.  The Alexander minor is the determinant of the Jacobian
abelianized, and twisted.wada_invariant evaluates the same Jacobian at a
representation.

Free words are tuples of nonzero ints: letter +j is the generator x_j,
letter -j its inverse (j is 1-based).  Elements of the integral group ring
of the free group are dicts mapping freely reduced words to nonzero
integer coefficients.

PD codes follow the usual convention for oriented knot diagrams: edges are
numbered 1..2n along the knot, and each crossing is a 4-tuple
(a, b, c, d) of incident edges listed counterclockwise starting from the
incoming under-edge a (so the outgoing under-edge is c = a + 1 mod 2n).
Arcs of the diagram - the Wirtinger generators - are the maximal runs of
edges not interrupted by an underpass.

The relator written at a crossing with under-in arc x_i, under-out arc
x_j and over arc x_k is x_k^e x_i x_k^-e x_j^-1, where e = +1 when the
over-strand enters at position d and -1 when it enters at position b.
Any globally consistent sign convention yields the same invariants up to
units (at worst it mirrors the knot), so tests compare up to unit.

Knot tables return Tietze-simplified presentations (simplify_presentation):
generators that a relator determines are eliminated until none is left,
which takes each bundled knot down to its bridge number of generators.
The generators that remain are a subset of the original Wirtinger arcs, so
the result is still meridional, balanced and of deficiency one, and Wada's
invariant is unchanged up to units (Wada, Topology 1994).  The unsimplified
presentation stays available through wirtinger_from_pd.
"""

from __future__ import annotations

import json
import os
from functools import lru_cache

from .algebra import (
    INTEGERS,
    CoefficientDomain,
    FrozenValue,
    LaurentPolynomial,
    PolyMatrix,
    _json_ints,
    coefficient_cell,
    determinant,
    reduce_mod,
)

FreeWord = tuple[int, ...]
GroupRingElement = dict[FreeWord, int]


def free_reduce(word) -> FreeWord:
    """Cancel adjacent inverse pairs; idempotent and length-nonincreasing."""
    out: list[int] = []
    for letter in word:
        if letter == 0:
            raise ValueError("0 is not a valid letter")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def invert_word(word) -> FreeWord:
    return tuple(-letter for letter in reversed(word))


def abelian_exponent(word) -> int:
    """Image of the word under the abelianization sending every x_i to t,
    as the exponent of t."""
    return sum(1 if letter > 0 else -1 for letter in word)


def fox_derivative(word, j: int) -> GroupRingElement:
    """The free derivative d(word)/dx_j in the integral group ring.

    Satisfies dx_i/dx_j = delta_ij, d(x_i^-1)/dx_j = -delta_ij x_i^-1 and
    the product rule d(uv) = du + u dv.
    """
    if j < 1:
        raise ValueError("generator index must be positive")
    word = free_reduce(word)
    terms: GroupRingElement = {}
    prefix: list[int] = []
    for letter in word:
        if letter == j:
            key = tuple(prefix)
            terms[key] = terms.get(key, 0) + 1
        elif letter == -j:
            # prefix is a reduced prefix not ending in +j, so appending -j
            # keeps it reduced
            key = tuple(prefix) + (-j,)
            terms[key] = terms.get(key, 0) - 1
        prefix.append(letter)
    return {w: c for w, c in terms.items() if c}


class PDValidationError(ValueError):
    """Raised for malformed planar diagram codes."""


class PDCode(FrozenValue):
    """An oriented knot diagram as a sequence of crossing 4-tuples."""

    __slots__ = ("crossings",)

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...]):
        n = len(crossings)
        if n == 0:
            raise PDValidationError("a PD code needs at least one crossing")
        counts: dict[int, int] = {}
        for idx, cr in enumerate(crossings):
            if len(cr) != 4:
                raise PDValidationError(f"crossing {idx} is not a 4-tuple")
            for e in cr:
                counts[e] = counts.get(e, 0) + 1
        if set(counts) != set(range(1, 2 * n + 1)):
            raise PDValidationError(
                f"edge labels must cover 1..{2 * n} exactly")
        bad = [e for e, c in counts.items() if c != 2]
        if bad:
            raise PDValidationError(
                f"edge labels {sorted(bad)} do not occur exactly twice")
        self._fill(crossings)

    @staticmethod
    def parse(raw) -> "PDCode":
        """Read the crossings from JSON lists of integer labels."""
        return PDCode(tuple(_json_ints(cr, "PD label") for cr in raw))

    def __len__(self):
        return len(self.crossings)


class KnotPresentation(FrozenValue):
    """A deficiency-one group presentation; when meridional, every
    generator is a meridian of the knot (so sending each one to t gives a
    well defined abelianization)."""

    __slots__ = ("generators", "relators", "meridional")

    def __init__(self, generators: int, relators: tuple[FreeWord, ...],
                 meridional: bool = True):
        for r in relators:
            for letter in r:
                if letter == 0 or abs(letter) > generators:
                    raise ValueError(f"letter {letter} out of range")
            if meridional and abelian_exponent(r) != 0:
                raise ValueError(
                    "meridional presentation with unbalanced relator")
        self._fill(generators, relators, meridional)


def wirtinger_from_pd(pd: PDCode) -> KnotPresentation:
    """Wirtinger presentation with one generator per arc and one relator
    per crossing, the final crossing's (redundant) relator dropped.

    The edges 1..2n form one cycle under e -> e + 1 mod 2n, and each arc
    runs from just after one under-in edge to the next one along that
    cycle, so the arcs always cover all 2n edges: no diagram that passes
    the under-strand and over-edge checks has an edge outside every arc,
    and there is no separate check for a single closed component."""
    n = len(pd)
    total = 2 * n

    def nxt(e: int) -> int:
        return e % total + 1

    under_in = set()
    over_in: dict[int, int] = {}
    for idx, (a, b, c, d) in enumerate(pd.crossings):
        if nxt(a) != c:
            raise PDValidationError(
                f"crossing {idx}: under-strand must run a -> a+1, got "
                f"({a},{b},{c},{d})")
        if nxt(b) == d:
            over_in[idx] = b
        elif nxt(d) == b:
            over_in[idx] = d
        else:
            raise PDValidationError(
                f"crossing {idx}: over-edges {b},{d} are not consecutive")
        under_in.add(a)

    # arcs start right after each underpass and absorb edges forward
    arc_of_edge: dict[int, int] = {}
    starts = sorted(nxt(a) for a in under_in)
    for gen, start in enumerate(starts, 1):
        e = start
        while True:
            arc_of_edge[e] = gen
            if e in under_in:
                break
            e = nxt(e)

    relators = []
    for idx, (a, b, c, d) in enumerate(pd.crossings):
        over = arc_of_edge[over_in[idx]]
        sign = 1 if over_in[idx] == d else -1
        word = free_reduce(
            (sign * over, arc_of_edge[a], -sign * over, -arc_of_edge[c]))
        relators.append(word)
    return KnotPresentation(generators=n, relators=tuple(relators[:-1]))


def _cyclic_reduce(word) -> FreeWord:
    """Free reduction followed by cancelling inverse letters at the two
    ends; yields a conjugate of the word, which is an equivalent relator."""
    word = free_reduce(word)
    i, j = 0, len(word)
    while j - i >= 2 and word[i] == -word[j - 1]:
        i += 1
        j -= 1
    return word[i:j]


def _substitute(word, j: int, image: FreeWord) -> FreeWord:
    inverse = invert_word(image)
    out: list[int] = []
    for letter in word:
        if letter == j:
            out.extend(image)
        elif letter == -j:
            out.extend(inverse)
        else:
            out.append(letter)
    return _cyclic_reduce(out)


def simplify_presentation(pres: KnotPresentation) -> KnotPresentation:
    """Greedy Tietze elimination of generators.

    While some relator contains a generator exactly once, solve such a
    relator r for such a generator x_j, substitute the solution into the
    other relators and cyclically reduce them.  Of all (r, x_j) pairs the
    one chosen least lengthens the other relators - (occurrences of x_j
    elsewhere) * (len(r) - 2) - with ties going to the shorter relator,
    then the earlier relator, then the lower generator index.  Each step
    removes one generator and one relator, so the deficiency is kept; the
    surviving generators are renumbered 1..m' in their original order.
    Deterministic, and a fixpoint on its output.
    """
    relators = [_cyclic_reduce(r) for r in pres.relators]
    alive = list(range(1, pres.generators + 1))
    while True:
        counts, total = [], {}
        for r in relators:
            cnt: dict[int, int] = {}
            for letter in r:
                cnt[abs(letter)] = cnt.get(abs(letter), 0) + 1
            for g, c in cnt.items():
                total[g] = total.get(g, 0) + c
            counts.append(cnt)
        best = min((((total[g] - 1) * (len(r) - 2), len(r), idx, g)
                    for idx, (r, cnt) in enumerate(zip(relators, counts))
                    for g, c in cnt.items() if c == 1), default=None)
        if best is None:
            break
        *_, idx, j = best
        r = relators.pop(idx)
        pos = next(k for k, letter in enumerate(r) if abs(letter) == j)
        u, v = r[:pos], r[pos + 1:]
        # u x_j v = 1 gives x_j = u^-1 v^-1; u x_j^-1 v = 1 gives x_j = v u
        if r[pos] > 0:
            image = free_reduce(invert_word(u) + invert_word(v))
        else:
            image = free_reduce(v + u)
        relators = [_substitute(w, j, image) for w in relators]
        alive.remove(j)
    renumber = {g: k for k, g in enumerate(alive, 1)}
    return KnotPresentation(
        generators=len(alive),
        relators=tuple(tuple(renumber[letter] if letter > 0
                             else -renumber[-letter] for letter in r)
                       for r in relators),
        meridional=pres.meridional)


def fox_jacobian(pres: KnotPresentation,
                 dropped: int | None = None) -> list[list[GroupRingElement]]:
    """The Fox Jacobian dr_i/dx_j: one row per relator r_i, and one column
    per generator x_j in ascending order, the column of x_dropped removed
    (x_m unless dropped names another generator).

    This is the one place that checks what Wada's invariant and the
    Alexander minor need of a presentation: meridional, of deficiency one,
    and a dropped generator in 1..m.  A one-generator presentation has no
    relators, so its Jacobian has no rows.  The result is not cached: its
    entries are mutable dicts that callers may hold.
    """
    m = pres.generators
    dropped = m if dropped is None else dropped
    if len(pres.relators) != m - 1:
        raise ValueError(f"need deficiency one: {m} generators, "
                         f"{len(pres.relators)} relators")
    if not pres.meridional:
        raise ValueError("the Fox Jacobian needs a meridional presentation")
    if not 1 <= dropped <= m:
        raise ValueError(f"dropped generator {dropped} out of range")
    return [[fox_derivative(r, j) for j in range(1, m + 1) if j != dropped]
            for r in pres.relators]


@lru_cache(maxsize=256)
def alexander_minor(pres: KnotPresentation,
                    domain: CoefficientDomain = INTEGERS,
                    dropped: int | None = None) -> LaurentPolynomial:
    """The Alexander minor D(t): the determinant of fox_jacobian(pres,
    dropped) abelianized by x_i -> t, over the given domain.

    Over F_p it is the integer minor reduced mod p, since a determinant
    commutes with reducing its entries; so the fields share one integer
    elimination per presentation and column.  With no relators (the
    one-generator unknot) the matrix is 0 x 0 and D is 1.  D(t) equals
    Delta_K(t) up to a unit for every choice of column, and D(1) = +-1 for
    a knot.  Presentations and domains are frozen, so each minor is
    computed once per call signature and cached.
    """
    if domain.p is not None:
        return reduce_mod(alexander_minor(pres, INTEGERS, dropped), domain.p)
    cells = []
    jacobian = fox_jacobian(pres, dropped)
    for row in jacobian:
        for element in row:
            cell: dict[int, int] = {}
            for word, c in element.items():
                e = abelian_exponent(word)
                cell[e] = cell.get(e, 0) + c
            cells.append(coefficient_cell(cell, None))
    n = len(jacobian)
    return determinant(PolyMatrix.of_cells(domain, n, n, tuple(cells)))


class KnotTableError(ValueError):
    """Raised for malformed knot table files."""


def load_knot_table(source) -> dict[str, KnotPresentation]:
    """Parse a knot table file into named, validated, Tietze-simplified
    presentations.

    The file is JSON: {"knots": [entry, ...]} where each entry is either
    {"name": ..., "pd": [[a,b,c,d], ...]} or a direct presentation
    {"name": ..., "generators": m, "relators": [[letters], ...]}, and no
    two entries share a name.  Generator counts, PD labels and relator
    letters must be JSON integers; 2.5, true or "2" is malformed.  The table holds simplify_presentation of
    each entry, whose generators are a subset of the entry's original
    generators (for PD entries, of its Wirtinger arcs), renumbered 1..m'.
    The simplified form must pass the knot check |Delta(1)| = 1, read off
    its Alexander minor; Delta(1) is a Tietze invariant up to sign, so
    this is the check on the entry as written, at the size of the
    simplified one.

    The source, a path or an object with read(), is read on every call,
    so an edited file is seen.  Parsing, validation and simplification are
    cached by the text read: each call returns a new dict, and calls with
    equal texts share its KnotPresentation values, which are frozen.  A
    malformed text raises KnotTableError on every call, since exceptions
    are not cached.
    """
    if hasattr(source, "read"):
        text = source.read()
    else:
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    return dict(_parse_knot_table(text))


@lru_cache(maxsize=8)
def _parse_knot_table(text) -> tuple[tuple[str, KnotPresentation], ...]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise KnotTableError(f"knot table is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("knots"), list):
        raise KnotTableError('knot table must be an object with a "knots" list')
    table: dict[str, KnotPresentation] = {}
    for pos, entry in enumerate(data["knots"]):
        if not isinstance(entry, dict):
            raise KnotTableError(f"entry {pos} is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            raise KnotTableError(f"entry {pos} has no name")
        if name in table:
            raise KnotTableError(f"entry {pos}: duplicate knot name {name!r}")
        try:
            if "pd" in entry:
                pres = wirtinger_from_pd(PDCode.parse(entry["pd"]))
            elif "relators" in entry:
                m, = _json_ints([entry["generators"]], "generator count")
                pres = KnotPresentation(
                    generators=m,
                    relators=tuple(free_reduce(_json_ints(r, "relator letter"))
                                   for r in entry["relators"]))
            else:
                raise KnotTableError(
                    f"entry {name}: needs either a pd code or relators")
            if len(pres.relators) != pres.generators - 1:
                raise KnotTableError(
                    f"entry {name}: expected deficiency one "
                    f"({pres.generators} generators, "
                    f"{len(pres.relators)} relators)")
            pres = simplify_presentation(pres)
            if abs(sum(alexander_minor(pres).coeffs)) != 1:
                raise KnotTableError(
                    f"entry {name}: Alexander polynomial at 1 is not a unit; "
                    "not a valid knot presentation")
        except (ValueError, TypeError) as exc:  # TypeError: a wrong shape
            if isinstance(exc, KnotTableError):
                raise
            raise KnotTableError(f"entry {name or pos}: {exc}") from exc
        table[name] = pres
    return tuple(table.items())


def bundled_table_path() -> str:
    """The table shipped next to this module.  importlib.resources would
    give the same path but costs tens of ms of imports on a CLI run."""
    return os.path.join(os.path.dirname(__file__), "data", "knots.json")


def bundled_table() -> dict[str, KnotPresentation]:
    return load_knot_table(bundled_table_path())
