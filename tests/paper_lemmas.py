"""The paper's per-family proof lemmas and the independent oracles.

The paper proves one congruence per group family with binomial identities
and conjugating matrices; the Brauer-character argument in
``talex.theorems`` covers every family at once, so these lemmas are checked
here rather than run by the package.  The oracles are the slow, obviously
correct versions of code the package runs fast: cofactor expansion for
determinants, exhaustive search for surjections, the all-pairs
homomorphism check for automorphisms, group ring arithmetic on
dictionaries for Fox calculus, and permutation groups closed from their
generators for the catalog groups.  The tests check both kinds; the package
does not ship them.
"""

from __future__ import annotations

import math
from collections import Counter

from talex.algebra import LaurentPolynomial, PolyMatrix, _is_prime
from talex.groups import FiniteGroup, MatrixRep, metacyclic
from talex.homsearch import Homomorphism, evaluate_word
from talex.knots import (
    GroupRingElement,
    KnotPresentation,
    _cyclic_reduce,
    _substitute,
    free_reduce,
    invert_word,
)
from talex.theorems import _odd_prime


# -- algebra ---------------------------------------------------------------


def substitute_scale(f: LaurentPolynomial, c: int) -> LaurentPolynomial:
    """Return g with g(t) = f(c*t); c must be invertible in the domain."""
    dom = f.domain
    c = dom.reduce(c)
    dom.inv(c)  # raises if c is not a unit
    if f.is_zero:
        return f
    if dom.p is None:
        # c is +-1 here, so c^k == c^|k| and Laurent tails are harmless
        powers = [c ** abs(k) for k in range(f.min_exp, f.max_exp + 1)]
    else:
        powers = [pow(c, k, dom.p) for k in range(f.min_exp, f.max_exp + 1)]
    return LaurentPolynomial.make(
        dom, f.min_exp, (a * w for a, w in zip(f.coeffs, powers)))


def determinant_cofactor(m: PolyMatrix) -> LaurentPolynomial:
    """Oracle for algebra.determinant: cofactor expansion along the first
    row, sharing none of the packed Bareiss routes; small matrices only."""
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    dom = m.domain
    if n == 0:
        return LaurentPolynomial.one(dom)
    if n == 1:
        return m.entry(0, 0)
    total = LaurentPolynomial.zero(dom)
    for j in range(n):
        factor = m.entry(0, j)
        if factor.is_zero:
            continue
        sub = PolyMatrix.from_rows(
            [[m.entry(i, jj) for jj in range(n) if jj != j]
             for i in range(1, n)])
        term = factor * determinant_cofactor(sub)
        total = total + (term if j % 2 == 0 else -term)
    return total


# -- Fox calculus on dictionaries -----------------------------------------


def ring_add(a: GroupRingElement, b: GroupRingElement) -> GroupRingElement:
    out = dict(a)
    for w, c in b.items():
        n = out.get(w, 0) + c
        if n:
            out[w] = n
        else:
            out.pop(w, None)
    return out


def ring_word_mul(u, e: GroupRingElement) -> GroupRingElement:
    """Left multiplication of a group ring element by the word u."""
    out: GroupRingElement = {}
    for w, c in e.items():
        key = free_reduce(tuple(u) + w)
        n = out.get(key, 0) + c
        if n:
            out[key] = n
        else:
            out.pop(key, None)
    return out


def ring_mul_letter(e: GroupRingElement, letter: int) -> GroupRingElement:
    """Right multiplication of a group ring element by one letter."""
    out: GroupRingElement = {}
    for w, c in e.items():
        key = free_reduce(w + (letter,))
        out[key] = out.get(key, 0) + c
    return {w: c for w, c in out.items() if c}


# -- Tietze elimination ---------------------------------------------------


def simplify_presentation_counter(pres: KnotPresentation) -> KnotPresentation:
    """Oracle for knots.simplify_presentation: the same greedy elimination
    with the candidates counted by one Counter per relator, summed."""
    relators = [_cyclic_reduce(r) for r in pres.relators]
    alive = list(range(1, pres.generators + 1))
    while True:
        counts = [Counter(abs(letter) for letter in r) for r in relators]
        total = sum(counts, Counter())
        candidates = [((total[g] - 1) * (len(r) - 2), len(r), idx, g)
                      for idx, (r, cnt) in enumerate(zip(relators, counts))
                      for g, c in cnt.items() if c == 1]
        if not candidates:
            break
        *_, idx, j = min(candidates)
        r = relators.pop(idx)
        pos = next(k for k, letter in enumerate(r) if abs(letter) == j)
        u, v = r[:pos], r[pos + 1:]
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
                       for r in relators))


# -- permutation realizations of catalog groups ---------------------------


def cycles_to_perm(degree: int, cycles) -> tuple[int, ...]:
    """The permutation of 0..degree-1 (p[i] = image of i) with the given
    cycles on the points 1..degree."""
    p = list(range(degree))
    for cyc in cycles:
        for i, x in enumerate(cyc):
            p[x - 1] = cyc[(i + 1) % len(cyc)] - 1
    return tuple(p)


def perm_group_from_generators(gens: dict[str, tuple[int, ...]],
                               name: str) -> FiniteGroup:
    """Close named permutations (tuples, p[i] = image of i) under
    composition; elements are indexed in BFS discovery order starting
    from the identity, with generators visited in sorted name order."""
    degree = len(next(iter(gens.values())))
    ident = tuple(range(degree))

    def compose(p, q):  # apply q first, then p
        return tuple(p[q[i]] for i in range(degree))

    names = sorted(gens)
    elems = [ident]
    index = {ident: 0}
    frontier = [ident]
    while frontier:
        x = frontier.pop(0)
        for nm in names:
            y = compose(x, gens[nm])
            if y not in index:
                index[y] = len(elems)
                elems.append(y)
                frontier.append(y)
    table = [[index[compose(a, b)] for b in elems] for a in elems]
    labels = {nm: index[gens[nm]] for nm in names}
    return FiniteGroup(table, labels=labels, name=name)


def alternating4_as_even_permutations() -> FiniteGroup:
    """A_4 = <a, b | a^3 = b^2 = 1, (ab)^3 = 1> on 4 points."""
    return perm_group_from_generators(
        {"a": cycles_to_perm(4, [(1, 2, 3)]),
         "b": cycles_to_perm(4, [(1, 2), (3, 4)])}, "A4")


def d3_semidirect_c3_in_s9() -> FiniteGroup:
    """<a, b, c | a^3 = b^3 = c^2 = 1, ab = ba, cac = a^-1, cbc = b^-1> by
    its standard embedding into S_9."""
    return perm_group_from_generators(
        {"a": cycles_to_perm(9, [(1, 2, 3), (4, 5, 6), (7, 8, 9)]),
         "b": cycles_to_perm(9, [(1, 5, 8), (2, 6, 9), (3, 4, 7)]),
         "c": cycles_to_perm(9, [(2, 3), (4, 9), (5, 8), (6, 7)])}, "D3sC3")


# -- representations and surjections -------------------------------------


def trivial_representation(group: FiniteGroup) -> MatrixRep:
    return MatrixRep(group, ((0,),) * group.order)


def direct_sum_rep(r1: MatrixRep, r2: MatrixRep) -> MatrixRep:
    """Block-diagonal sum of two representations of the same group."""
    if r1.group is not r2.group:
        raise ValueError("direct sum requires a common group")
    d1 = r1.dimension
    perms = tuple(p1 + tuple(d1 + x for x in p2)
                  for p1, p2 in zip(r1.perms, r2.perms))
    return MatrixRep(r1.group, perms)


def satisfies_relators(pres: KnotPresentation, group: FiniteGroup,
                       images) -> bool:
    e = group.identity
    return all(evaluate_word(group, images, r) == e for r in pres.relators)


def brute_force_surjections(pres: KnotPresentation, group: FiniteGroup
                            ) -> list[Homomorphism]:
    """Oracle: exhaustive enumeration over C^m for every conjugacy class C
    whose members could host meridians; small groups only."""
    m = pres.generators
    out = []
    for cls in group.conjugacy_classes():
        members = sorted(cls.members)
        stack = [()]
        while stack:
            partial = stack.pop()
            if len(partial) == m:
                if satisfies_relators(pres, group, partial) and \
                        len(group.subgroup_generated(partial)) == group.order:
                    out.append(partial)
                continue
            for g in reversed(members):
                stack.append(partial + (g,))
    out.sort()
    return [Homomorphism(group, images) for images in out]


def conjugation_orbit_minima(homs: list[Homomorphism]
                             ) -> list[Homomorphism]:
    """Oracle for the search's up_to_conjugacy output: the first member, in
    sorted order, of each simultaneous-conjugation orbit, found by
    canonicalising every homomorphism over all |G| conjugates."""
    reps, seen = [], set()
    for h in sorted(homs, key=lambda h: h.images):
        g = h.group
        canon = min(tuple(g.conjugate(x, by) for x in h.images)
                    for by in range(g.order))
        if canon not in seen:
            seen.add(canon)
            reps.append(h)
    return reps


def extends_to_automorphism_all_pairs(group: FiniteGroup, src, dst) -> bool:
    """Oracle for the automorphism classes of
    homsearch.regular_equivalence_classes: whether src[i] -> dst[i]
    extends to an automorphism, by a walk from the identity followed by
    the homomorphism law checked on all |G|^2 pairs."""
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
    if len(set(sigma.values())) != group.order:
        return False
    return all(sigma[group.mul(a, b)] == group.mul(sigma[a], sigma[b])
               for a in range(group.order) for b in range(group.order))


# -- binomial identities and conjugating matrices from the proofs ----------


def binomial(n: int, k: int) -> int:
    """C(n, k) for any integer n (falling factorial over k!), k >= 0."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // math.factorial(k)


def a_matrix(p: int, n: int) -> list[list[int]]:
    """The q x q binomial matrix (i, j) -> C(i-1, j-1) mod p, q = p^n."""
    if not _is_prime(p):
        raise ValueError(f"{p} is not prime")
    if n < 1:
        raise ValueError("n must be at least 1")
    q = p ** n
    return [[binomial(i, j) % p for j in range(q)] for i in range(q)]


def tau_a(p: int, n: int) -> list[list[int]]:
    """Upper triangular with alternating 1, -1 bands: (i, j) -> (-1)^(j-i)
    for i <= j, 0 below; all diagonal entries 1."""
    _odd_prime(p, "tau(a)")
    q = p ** n
    return [[(1 if (j - i) % 2 == 0 else p - 1) if i <= j else 0
             for j in range(q)] for i in range(q)]


def tau_b(p: int, n: int) -> list[list[int]]:
    """(i, j) -> (-1)^(j-1) C(j-1, i-1) mod p; upper triangular with
    alternating +-1 diagonal."""
    _odd_prime(p, "tau(b)")
    q = p ** n
    return [[(-1) ** j * binomial(j, i) % p for j in range(q)]
            for i in range(q)]


def dihedral_perm_a(q: int) -> list[list[int]]:
    """The q-cycle permutation matrix of the rotation in the embedding
    D_q -> S_q: ones on the subdiagonal and in the top-right corner."""
    mat = [[0] * q for _ in range(q)]
    mat[0][q - 1] = 1
    for i in range(1, q):
        mat[i][i - 1] = 1
    return mat


def dihedral_perm_b(q: int) -> list[list[int]]:
    """The antidiagonal reflection matrix."""
    mat = [[0] * q for _ in range(q)]
    for i in range(q):
        mat[i][q - 1 - i] = 1
    return mat


def metacyclic_perm_b(p: int, k: int) -> list[list[int]]:
    """Permutation image of b for G(m, p | k) acting on C_p: the (i, j)
    entry is 1 exactly when j = k*i - 1 mod p (1-based as in the proof)."""
    mat = [[0] * p for _ in range(p)]
    for i in range(1, p + 1):
        j = (k * i - 2) % p + 1
        mat[i - 1][j - 1] = 1
    return mat


def mat_mul_mod(a, b, p):
    n, m, kk = len(a), len(b[0]), len(b)
    return [[sum(a[i][x] * b[x][j] for x in range(kk)) % p
             for j in range(m)] for i in range(n)]


def mat_inv_mod(a, p):
    """Gauss-Jordan inverse of a square matrix over F_p."""
    n = len(a)
    aug = [[x % p for x in row] + [1 if i == j else 0 for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] % p), None)
        if piv is None:
            raise ArithmeticError("matrix is singular mod p")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = pow(aug[col][col], -1, p)
        aug[col] = [(x * inv) % p for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col]:
                f = aug[r][col]
                aug[r] = [(x - f * y) % p for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def check_lucas(p: int, limit: int) -> bool:
    """C(m, n) mod p equals the digit-wise product of base-p binomials,
    for all 0 <= n <= m <= limit."""
    for m in range(limit + 1):
        for n in range(m + 1):
            lhs = math.comb(m, n) % p
            rhs_v, mm, nn = 1, m, n
            while mm or nn:
                rhs_v = rhs_v * math.comb(mm % p, nn % p) % p
                mm //= p
                nn //= p
            if lhs != rhs_v:
                return False
    return True


def check_pascal(limit: int) -> bool:
    return all(math.comb(m, n) == math.comb(m - 1, n) + math.comb(m - 1, n - 1)
               for m in range(1, limit + 1) for n in range(1, limit + 1))


def check_vandermonde(limit: int) -> bool:
    """C(m+n, r) = sum_k C(m, k) C(n, r-k) for all m, n <= limit and every
    r: each Pascal row is packed into one big integer wide enough that row
    convolution is integer multiplication, so the check is a product."""
    width = 2 * limit + 8  # C(2*limit, limit) < 2^(2*limit)
    packed = []
    for m in range(2 * limit + 1):
        v = 0
        for k in range(m, -1, -1):
            v = (v << width) + math.comb(m, k)
        packed.append(v)
    return all(packed[m] * packed[n] == packed[m + n]
               for m in range(limit + 1) for n in range(limit + 1))


def check_euler_finite_difference(n_limit: int, a_values=(1, 2, 3)) -> bool:
    """The alternating binomial sum annihilates polynomials of degree
    r < n and picks out (-1)^n n! a_n at degree n; checked on monomials
    x^r and on the paper's special case f(k) = C(ak - 2, r)."""
    kmax = n_limit
    powers = [[k ** r for r in range(n_limit + 1)] for k in range(kmax + 1)]
    shifted = {a: [[binomial(a * k - 2, r) for r in range(n_limit + 1)]
                   for k in range(kmax + 1)] for a in a_values}
    for n in range(n_limit + 1):
        signed = [(-1) ** k * math.comb(n, k) for k in range(n + 1)]
        for r in range(n + 1):
            s = sum(c * powers[k][r] for k, c in enumerate(signed))
            expect = 0 if r < n else (-1) ** n * math.factorial(n)
            if s != expect:
                return False
        for a in a_values:
            tab = shifted[a]
            for r in range(n + 1):
                s = sum(c * tab[k][r] for k, c in enumerate(signed))
                expect = 0 if r < n else (-1) ** n * a ** n
                if s != expect:
                    return False
    return True


def check_dihedral_lemma(p: int, n: int) -> bool:
    """The three binomial claims behind the dihedral theorem, over their
    full stated ranges for q = p^n."""
    q = p ** n
    for k in range(q):
        if math.comb(q - 1, k) % p != (-1) ** k % p:
            return False
    for m in range(1, q + 1):
        for j in range(1, q + 1):
            s = sum((-1) ** (j - k) * math.comb(m, k - 1)
                    for k in range(1, j + 1))
            if s != binomial(m - 1, j - 1):
                return False
    for i in range(1, q + 1):
        for j in range(1, q + 1):
            lhs = (-1) ** (j - 1) * binomial(i + j - 2, j - 1) % p
            if lhs != binomial(q - i, j - 1) % p:
                return False
    return True


def check_metacyclic_lemma(p: int) -> bool:
    """The three claims behind the metacyclic theorem: the convolution
    identity, the explicit inverse of A_p, and the sign-flip symmetry."""
    for i in range(1, p + 1):
        for j in range(1, p + 1):
            s = sum(binomial(i - 1, k - 1) * binomial(p - j, p - k)
                    for k in range(j, i + 1))
            if s != binomial((p - j) + (i - 1), p - 1):
                return False
    a = a_matrix(p, 1)
    m = [[binomial(p - j, p - i) % p for j in range(1, p + 1)]
         for i in range(1, p + 1)]
    ident = [[1 if i == j else 0 for j in range(p)] for i in range(p)]
    if mat_mul_mod(a, m, p) != ident or mat_mul_mod(m, a, p) != ident:
        return False
    for i in range(1, p + 1):
        for s in range(1, p + 1):
            if binomial(p - s, p - i) % p != \
                    (-1) ** (i + s) * binomial(i - 1, s - 1) % p:
                return False
    return True


def check_dihedral_conjugation(p: int, n: int) -> bool:
    """A_{p,n}^-1 rho(a) A_{p,n} = tau(a) and likewise for b, exactly
    mod p, with rho the permutation images from the proof."""
    q = p ** n
    a = a_matrix(p, n)
    ainv = mat_inv_mod(a, p)
    lhs_a = mat_mul_mod(mat_mul_mod(ainv, dihedral_perm_a(q), p), a, p)
    lhs_b = mat_mul_mod(mat_mul_mod(ainv, dihedral_perm_b(q), p), a, p)
    return lhs_a == tau_a(p, n) and lhs_b == tau_b(p, n)


def check_metacyclic_triangularization(m: int, p: int, k: int) -> bool:
    """A_p^-1 rho(b) A_p is upper triangular with diagonal
    (1, k, k^2, ..., k^(p-1)) mod p."""
    metacyclic(m, p, k)  # validate the parameters
    a = a_matrix(p, 1)
    ainv = mat_inv_mod(a, p)
    t = mat_mul_mod(mat_mul_mod(ainv, metacyclic_perm_b(p, k), p), a, p)
    for i in range(p):
        for j in range(i):
            if t[i][j] % p:
                return False
        if t[i][i] % p != pow(k, i, p):
            return False
    return True
