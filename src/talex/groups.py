"""Finite groups as explicit Cayley tables, and their permutation
representations.

Every non-cyclic group family of the paper's theorems is an abelian group
A extended by a cyclic group <b>, and one builder, _extension, writes its
table from the table of A, the automorphism x -> b x b^-1 of A and the
element b^m of A; direct_product combines two groups componentwise.
Downstream code only ever sees an order-n Cayley table with optional
named generators.  Group axioms are verified at construction for every
order: rows and columns must be permutations, and associativity is
checked exactly by Light's test, (x*g)*y = x*(g*y) for all x, y and every
g in a generating set built greedily from the table, in O(n^2 |gens|).

Conjugation is decided here alone: the conjugacy classes, and whether
each generates the group, are read once from inner_automorphisms().

Representations are by permutation matrices and are stored as column
maps: perms[g][j] is the row of the single 1 in column j of the image of g.
The regular representation's column maps are the rows of the Cayley
table, so it costs no storage beyond the group.  Its splitting along an
abelian subgroup H, FiniteGroup.regular_factors, has block-monomial
factors: column maps on the cosets of H, and one exponent e per block
column for the block of multiplication by x^e on ZZ[x]/Phi_d.  Like the
conjugation table, it is built once per group, on first use.

Element index conventions:

* cyclic(n): index i is a^i.
* dihedral(n): indices 0..n-1 are the rotations a^i, indices n..2n-1 are
  the reflections a^i b  (index i + n*eps for a^i b^eps).
* dicyclic(n): index i + 2n*eps is a^i b^eps with i mod 2n.
* metacyclic(m, p, k): index i + p*j is a^i b^j.
* dp_semidirect_cp(p): index i*p + j + p^2*eps is a^i b^j c^eps;
  d3_semidirect_c3() is dp_semidirect_cp(3).
* alternating4(): index 2u + w + 4j is (a b a^-1)^u b^w a^j.
* direct products: pair (g, h) gets index g*|H| + h.
"""

from __future__ import annotations

import json
from itertools import product
from math import gcd, lcm

from .algebra import FrozenValue, _is_prime, _json_ints, cyclotomic_residues


class GroupValidationError(ValueError):
    """Raised when a Cayley table fails one of the group axioms."""


class FiniteGroup:
    """An immutable finite group on elements 0..order-1."""

    def __init__(self, cayley, labels=None, name=None):
        self.cayley = tuple(tuple(row) for row in cayley)
        self.order = len(self.cayley)
        self.name = name or f"G{self.order}"
        self.labels = dict(labels or {})
        self._validate()
        self.identity = self._find_identity()
        self.inverses = self._find_inverses()
        self._inner: tuple[tuple[int, ...], ...] | None = None
        self._classes: tuple[ConjugacyClass, ...] | None = None
        self._split: tuple[tuple[MatrixRep, int], ...] | None = None
        self._derived: frozenset[int] | None = None

    # -- construction-time checks ----------------------------------------

    def _validate(self):
        n = self.order
        if n == 0:
            raise GroupValidationError("empty Cayley table")
        idx = set(range(n))
        for i, row in enumerate(self.cayley):
            if len(row) != n:
                raise GroupValidationError(f"row {i} has wrong length")
            if set(row) != idx:
                raise GroupValidationError(f"row {i} is not a permutation")
        for j in range(n):
            if {row[j] for row in self.cayley} != idx:
                raise GroupValidationError(f"column {j} is not a permutation")
        for name, g in self.labels.items():
            if not 0 <= g < n:
                raise GroupValidationError(f"label {name!r} out of range")
        # Light's test: the g with (xg)y = x(gy) for all x, y are closed
        # under products, so checking a generating set proves associativity
        c = self.cayley
        for g in self._greedy_generators():
            cg = c[g]
            for x in range(n):
                cx = c[x]
                cxg = c[cx[g]]
                for y in range(n):
                    if cxg[y] != cx[cg[y]]:
                        raise GroupValidationError(
                            f"associativity fails at ({x},{g},{y})")

    def _greedy_generators(self) -> list[int]:
        """Elements whose iterated products reach the whole table: take the
        smallest element not yet reached and close the reached set under
        multiplication, until every element is reached.  A two-sided
        identity (its row and its column are both the identity map) is
        reached but left out: (xe)y = xy = x(ey) holds trivially."""
        c = self.cayley
        ident = tuple(range(self.order))
        reached = [False] * self.order
        closed: list[int] = []
        gens = []
        for g in range(self.order):
            if reached[g]:
                continue
            if c[g] != ident or any(row[g] != x for x, row in enumerate(c)):
                gens.append(g)
            reached[g] = True
            queue = [g]
            while queue:
                x = queue.pop()
                closed.append(x)
                for y in closed:
                    for z in (c[x][y], c[y][x]):
                        if not reached[z]:
                            reached[z] = True
                            queue.append(z)
        return gens

    def _find_identity(self) -> int:
        n = self.order
        for e in range(n):
            if all(self.cayley[e][x] == x and self.cayley[x][e] == x
                   for x in range(n)):
                return e
        raise GroupValidationError("no identity element")

    def _find_inverses(self) -> tuple[int, ...]:
        """Row g is a permutation, so exactly one h has g*h = e.  It is a
        two-sided inverse: (h*g)*h = h*(g*h) = h = e*h, and columns
        cancel, so h*g = e."""
        return tuple(row.index(self.identity) for row in self.cayley)

    # -- basic operations --------------------------------------------------

    def mul(self, a: int, b: int) -> int:
        return self.cayley[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def power(self, g: int, k: int) -> int:
        if k < 0:
            return self.power(self.inv(g), -k)
        acc = self.identity
        base = g
        while k:
            if k & 1:
                acc = self.cayley[acc][base]
            base = self.cayley[base][base]
            k >>= 1
        return acc

    def element_order(self, g: int) -> int:
        k, x = 1, g
        while x != self.identity:
            x = self.cayley[x][g]
            k += 1
        return k

    def conjugate(self, g: int, by: int) -> int:
        return self.cayley[self.cayley[by][g]][self.inverses[by]]

    def label(self, name: str) -> int:
        return self.labels[name]

    def elements(self) -> range:
        return range(self.order)

    def __len__(self):
        return self.order

    def __repr__(self):
        return f"<{self.name}: order {self.order}>"

    # -- structure ---------------------------------------------------------

    def inner_automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """The distinct maps x -> g x g^-1, in order of the least g giving
        each: one per coset of the center, since g and g' give the same map
        exactly when g^-1 g' is central.  Each map reads row g of the Cayley
        table and then column g^-1, two lookups per entry."""
        if self._inner is None:
            c = self.cayley
            self._inner = tuple(dict.fromkeys(
                tuple(c[y][ginv] for y in c[g])
                for g, ginv in enumerate(self.inverses)))
        return self._inner

    def regular_factors(self, gens: tuple[int, ...] | None = None
                        ) -> tuple[tuple["MatrixRep", int], ...]:
        """The regular representation split along H = <a> x <b>, for gens
        = (a,) or (a, b) commuting with <a> & <b> = {e}: pairs (factor,
        multiplicity) whose direct sum with repetition is conjugate to it
        over Q (proof in twisted).

        A character chi = (al, be) of H, mod L = lcm(|a|, |b|), has order
        d = L / gcd(L, al, be) and sends h = a^u b^v to zeta_d^e, e = (al*u
        + be*v)*d/L.  Its factor has block x^e mod Phi_d at (s(i), i) when
        g*g_i = g_s(i) * h, for g_i the least elements of the left cosets
        of H in increasing order.  One factor, in order of (d, chi), stands
        for each orbit of chi under Galois conjugation and conjugation by
        N_G(H), with the orbit's number of Galois orbits as multiplicity.
        Without gens, H is the first <a> x <b>, a a class representative
        and b in C_G(a), minimising the elimination work [G:H]^3 * sum over
        y in H of phi(|y|)^2 (H and its characters are isomorphic), cyclic
        H first on ties; that split is cached.
        """
        c, e = self.cayley, self.identity
        if gens is None:
            if self._split is None:
                cyc = [self.subgroup_generated((g,)) for g in self.elements()]
                best = {}  # (work, not cyclic, (a, b)) per type of <a> x <b>
                reps = [k.representative for k in self.conjugacy_classes()]
                for a, b in product(reps, self.elements()):
                    t = (len(cyc[a]), len(cyc[b]))
                    if t not in best and c[a][b] == c[b][a] \
                            and len(cyc[a] & cyc[b]) == 1:
                        best[t] = ((self.order // (t[0] * t[1])) ** 3 * sum(
                            _totient(lcm(len(cyc[x]), len(cyc[y]))) ** 2
                            for x in cyc[a] for y in cyc[b]), t[1] > 1, (a, b))
                self._split = self.regular_factors(min(best.values())[2])
            return self._split
        a, b = (*gens, e)[:2]
        ha, hb = self.element_order(a), self.element_order(b)
        coord = {c[self.power(a, u)][self.power(b, v)]: (u, v)
                 for u in range(ha) for v in range(hb)}
        if len(gens) > 2 or c[a][b] != c[b][a] or len(coord) != ha * hb:
            raise ValueError(f"{tuple(gens)} gives no direct product <a> x <b>")
        reps = sorted({min(c[g][y] for y in coord) for g in self.elements()})
        where = {c[r][y]: (i, u, v)
                 for i, r in enumerate(reps) for y, (u, v) in coord.items()}
        images = [[where[row[r]] for r in reps] for row in c]
        perms = tuple(tuple(i for i, _, _ in ys) for ys in images)
        # chi . c_n as (u1, v1, u2, v2): c_n(a) = a^u1 b^v1, c_n(b) = a^u2 b^v2
        normal = {coord[s[a]] + coord[s[b]] for s in self.inner_automorphisms()
                  if s[a] in coord and s[b] in coord}
        split, seen, L = [], set(), lcm(ha, hb)
        for d, al, be in sorted((L // gcd(L, al, be), al, be)
                                for al in range(0, L, L // ha)
                                for be in range(0, L, L // hb)):
            if (al, be) not in seen:
                orbit = {((al * u1 + be * v1) * k % L,
                          (al * u2 + be * v2) * k % L)
                         for u1, v1, u2, v2 in normal
                         for k in range(1, L + 1) if gcd(k, L) == 1}
                seen |= orbit
                exps = tuple(tuple((al * u + be * v) * d // L % d
                                   for _, u, v in ys) for ys in images)
                split.append((MatrixRep(self, _totient(d) * len(reps), perms,
                                        exps, d), len(orbit) // _totient(d)))
        return tuple(split)

    def conjugacy_classes(self) -> tuple["ConjugacyClass", ...]:
        """The classes in order of their least members: the first element
        not yet seen is the least member of its class."""
        if self._classes is None:
            seen = [False] * self.order
            classes = []
            for g in range(self.order):
                if seen[g]:
                    continue
                members = frozenset(a[g] for a in self.inner_automorphisms())
                for m in members:
                    seen[m] = True
                classes.append(ConjugacyClass(
                    g, members,
                    len(self.subgroup_generated(members)) == self.order))
            self._classes = tuple(classes)
        return self._classes

    def subgroup_generated(self, gens) -> frozenset[int]:
        seen = {self.identity}
        frontier = [self.identity]
        gens = set(gens)
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = self.cayley[x][g]
                if y not in seen:
                    seen.add(y)
                    frontier.append(y)
        return frozenset(seen)

    def is_normally_generated_by_one(self) -> int | None:
        """Smallest element whose conjugacy class generates the whole group,
        or None.  A knot group only surjects onto groups that have one.
        The identity's class generates only the trivial group."""
        return next((cls.representative for cls in self.conjugacy_classes()
                     if cls.generates), None)

    def commutator_subgroup(self) -> frozenset[int]:
        """G' = <g h g^-1 h^-1 : g, h in G>, built once per group."""
        if self._derived is None:
            c, inv = self.cayley, self.inverses
            self._derived = self.subgroup_generated(
                {c[c[c[g][h]][inv[g]]][inv[h]]
                 for g in range(self.order) for h in range(self.order)})
        return self._derived

    def to_json(self) -> dict:
        return {"order": self.order, "identity": self.identity,
                "table": [list(r) for r in self.cayley],
                "labels": dict(self.labels)}


class ConjugacyClass(FrozenValue):
    """A class, its least member, and whether it generates the group."""

    __slots__ = ("representative", "members", "generates")

    def __init__(self, representative: int, members: frozenset[int],
                 generates: bool):
        self._fill(representative, members, generates)

    def __len__(self):
        return len(self.members)


def _totient(d: int) -> int:
    return len(cyclotomic_residues(d)[0])


# -- catalog constructors -------------------------------------------------


def cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, labels={"a": 1 % n}, name=f"C{n}")


def _extension(base: FiniteGroup, m: int, twist: tuple[int, ...], s: int,
               labels: dict[str, int], name: str) -> FiniteGroup:
    """The group of the x b^j, x in the abelian group base and 0 <= j < m,
    at index x + |base|*j, with b x b^-1 = twist[x] and b^m = s.  For a
    group, twist must be an automorphism of base whose m-th power is the
    identity and which fixes s; FiniteGroup checks the axioms anyway.

    (x b^j)(y b^k) = x twist^j(y) b^(j+k), and b^(j+k) = s b^(j+k-m) when
    j + k >= m, so the block of row x b^j in block column k is row x, or
    row x s, of the base table with its columns permuted by twist^j."""
    c, nb = base.cayley, base.order
    table, tw = [], tuple(range(nb))
    for j in range(m):
        permuted = [[row[t] for t in tw] for row in c]
        for x in range(nb):
            row = []
            for k in range(m):
                src = permuted[x] if j + k < m else permuted[c[x][s]]
                off = nb * ((j + k) % m)
                row += [v + off for v in src]
            table.append(row)
        tw = tuple(twist[t] for t in tw)
    return FiniteGroup(table, labels=labels, name=name)


def dihedral(n: int) -> FiniteGroup:
    """D_n = <a, b | a^n = b^2 = 1, b a b = a^-1>, order 2n."""
    if n < 2:
        raise ValueError("dihedral degree must be at least 2")
    base = cyclic(n)
    return _extension(base, 2, base.inverses, 0, {"a": 1, "b": n}, f"D{n}")


def dicyclic(n: int) -> FiniteGroup:
    """Dic_n = <a, b | a^2n = 1, b^2 = a^n, b a b^-1 = a^-1>, order 4n."""
    if n < 2:
        raise ValueError("dicyclic degree must be at least 2")
    base = cyclic(2 * n)
    return _extension(base, 2, base.inverses, n, {"a": 1, "b": 2 * n},
                      f"Dic{n}")


def _multiplicative_order(k: int, p: int) -> int:
    k %= p
    if k == 0:
        return 0
    o, x = 1, k
    while x != 1:
        x = x * k % p
        o += 1
    return o


def metacyclic(m: int, p: int, k: int) -> FiniteGroup:
    """G(m, p | k) = <a, b | a^p = b^m = 1, b a b^-1 = a^k>, order m*p.

    Requires p an odd prime with p = 1 mod m and k a primitive m-th root
    of unity mod p; the three precondition failures are reported apart.
    """
    if m < 1:
        raise ValueError("m must be positive")
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    if (p - 1) % m != 0:
        raise ValueError(f"p = {p} is not congruent to 1 mod m = {m}")
    if pow(k, m, p) != 1:
        raise ValueError(f"k = {k} is not an m-th root of unity mod {p}")
    if _multiplicative_order(k, p) != m:
        raise ValueError(
            f"k = {k} has order {_multiplicative_order(k, p)} mod {p}, not {m}")
    return _extension(cyclic(p), m, tuple(i * k % p for i in range(p)), 0,
                      {"a": 1, "b": p}, f"G({m},{p}|{k})")


def alternating4() -> FiniteGroup:
    """A_4 = <a, b | a^3 = b^2 = 1, (ab)^3 = 1>: the Klein four-group
    <b, a b a^-1>, whose three involutions a permutes cyclically, extended
    by <a>."""
    base = direct_product(cyclic(2), cyclic(2))
    return _extension(base, 3, (0, 2, 3, 1), 0, {"a": 4, "b": 1}, "A4")


def d3_semidirect_c3() -> FiniteGroup:
    """D3 x| C3, the group of the paper's proved p = 3 case: the same
    group as the conjecture's dp_semidirect_cp(3).  The name stays as the
    builder of the d3c3 theorem case, and the benchmark's tracer times it
    by name."""
    return dp_semidirect_cp(3)


def dp_semidirect_cp(p: int) -> FiniteGroup:
    """<a, b, c | a^p = b^p = c^2 = 1, ab = ba, cac = a^-1, cbc = b^-1>,
    order 2p^2."""
    if not _is_prime(p) or p == 2:
        raise ValueError(f"p = {p} must be an odd prime")
    base = direct_product(cyclic(p), cyclic(p))
    return _extension(base, 2, base.inverses, 0,
                      {"a": p, "b": 1, "c": p * p}, f"D{p}sC{p}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Componentwise product; pair (x, y) gets index x*|H| + y.  Labels of
    the left factor keep their names, colliding right-factor labels get a
    prime suffix."""
    nh = h.order
    table = [[g.cayley[x1][x2] * nh + h.cayley[y1][y2]
              for x2 in range(g.order) for y2 in range(h.order)]
             for x1 in range(g.order) for y1 in range(h.order)]
    labels = {}
    for name, x in g.labels.items():
        labels[name] = x * nh + h.identity
    for name, y in h.labels.items():
        while name in labels:
            name += "'"
        labels[name] = g.identity * nh + y
    return FiniteGroup(table, labels=labels,
                       name=f"{g.name}x{h.name}")


def trivial_group() -> FiniteGroup:
    return cyclic(1)


def group_from_cayley_json(obj: dict | str) -> FiniteGroup:
    """Load {order, identity, table, labels} and re-validate all axioms.
    A label or table entry that is not a JSON integer is rejected, not
    coerced: 1.5 and true are not elements."""
    if isinstance(obj, str):
        obj = json.loads(obj)
    try:
        table = obj["table"]
        if len(table) != obj["order"]:
            raise GroupValidationError(
                "declared order does not match the table")
        labels, name = obj.get("labels", {}), obj.get("name", "custom")
        if not isinstance(labels, dict):
            raise GroupValidationError("labels must be an object")
        if not isinstance(name, str):
            raise GroupValidationError("name must be a string")
        _json_ints(labels.values(), "label")
        g = FiniteGroup([_json_ints(row, "table entry") for row in table],
                        labels=labels, name=name)
    except TypeError as exc:  # a JSON value of the wrong type
        raise GroupValidationError(f"malformed Cayley table: {exc}") from exc
    if "identity" in obj and g.identity != obj["identity"]:
        raise GroupValidationError("declared identity is wrong")
    return g


# -- permutation representations ------------------------------------------


class MatrixRep(FrozenValue):
    """A homomorphism from a finite group into GL(dimension, ZZ) by
    block-monomial matrices, stored as column maps on blocks: the image of
    g has one nonzero block in block column j, in block row perms[g][j],
    and that block is the matrix of multiplication by x^exponents[g][j] on
    ZZ[x]/Phi_d, d = cyclotomic, in the basis 1, x, ..., x^(phi(d)-1).

    Without exponents, d is 1 and every block is the 1 x 1 identity: a
    permutation representation, whose image of g has a 1 in row
    perms[g][j] of column j and zeros elsewhere."""

    __slots__ = ("group", "dimension", "perms", "exponents", "cyclotomic")

    def __init__(self, group: FiniteGroup, dimension: int,
                 perms: tuple[tuple[int, ...], ...],
                 exponents: tuple[tuple[int, ...], ...] | None = None,
                 cyclotomic: int = 1):
        self._fill(group, dimension, perms, exponents, cyclotomic)

    def factors(self) -> tuple[tuple["MatrixRep", int], ...]:
        """Pairs (factor, multiplicity) whose direct sum with repetition is
        conjugate to this representation over Q: FiniteGroup.regular_factors
        when the column maps are the rows of the Cayley table, which makes
        this the regular representation whoever built it, else (self, 1)."""
        if self.exponents is None and self.perms == self.group.cayley:
            return self.group.regular_factors()
        return ((self, 1),)

    def validate(self) -> None:
        group, perms, d = self.group, self.perms, self.cyclotomic
        exps = self.exponents or tuple((0,) * len(p) for p in perms)
        if len(perms) != group.order or len(exps) != group.order:
            raise GroupValidationError("one image per element required")
        size = _totient(d)
        blocks = tuple(range(self.dimension // size))
        for g, perm in enumerate(perms):
            if len(perm) * size != self.dimension \
                    or set(perm) != set(blocks) or len(exps[g]) != len(perm):
                raise GroupValidationError(
                    f"image of {g} is not a bijection of the "
                    f"{len(blocks)} blocks")
        e = group.identity
        if perms[e] != blocks or any(x % d for x in exps[e]):
            raise GroupValidationError("identity does not map to I")
        # the h with rho(gh) = rho(g) rho(h) for all g are closed under
        # products (as in Light's test), so checking a generating set
        # proves the law for every pair; block column j of rho(g) rho(h)
        # is x^(exps[h][j] + exps[g][perms[h][j]]) in block row
        # perms[g][perms[h][j]]
        for h in group._greedy_generators():
            ph, eh = perms[h], exps[h]
            for g in range(group.order):
                pg, eg = perms[g], exps[g]
                gh = group.mul(g, h)
                if perms[gh] != tuple(pg[x] for x in ph) or any(
                        (x - eh[j] - eg[ph[j]]) % d
                        for j, x in enumerate(exps[gh])):
                    raise GroupValidationError(
                        f"homomorphism law fails at ({g},{h})")


def regular_representation(group: FiniteGroup) -> MatrixRep:
    """Left multiplication h -> g*h on the element basis: row g of the
    Cayley table is the column map of the image of g.

    It needs no MatrixRep.validate: the group's construction already
    proved what that would check.  Every row is a permutation, and the
    identity's row is the identity map.  The homomorphism law for a
    greedy generator h, perms[g*h][x] = perms[g][perms[h][x]] for all g
    and x, reads (g*h)*x = g*(h*x): the triples of Light's test in
    FiniteGroup._validate, on the same table and the same generators.
    """
    return MatrixRep(group, group.order, group.cayley)
