"""Exact Laurent polynomial, rational function and polynomial matrix arithmetic.

Coefficients live either in the ring of integers or in a prime field F_p,
and every operation is exact; there is no floating point anywhere.  The
values of the knot invariants computed elsewhere in this package are
rational functions in one variable t over one of these domains, defined up
to multiplication by units c*t^k, so this module also fixes normal forms
that make "equal up to unit" a structural comparison.

Determinants of matrices of Laurent polynomials use fraction-free Bareiss
elimination.  To keep large eliminations fast, polynomials are packed into
big integers (Kronecker substitution at t = 2^B), so the elimination inner
loop runs on CPython's arbitrary-precision ints rather than Python lists:

* over the integers, intermediate entries are minors of the input matrix,
  so a fixed slot width derived from row 1-norms is provably large enough
  and the whole elimination never needs to unpack;
* over F_p, each value a row update forms is reduced mod p by a Barrett
  multiply on the whole packed integer and divided by the previous pivot
  t^v*g bottom up: the v low slots must be zero, and the rest is
  multiplied by the Newton inverse of g mod t^L, L the longest quotient
  of the elimination step.  The slot width
  W >= 32 grows with p and the matrix so that every slot digit stays
  below 2^(W-2): no carries, at every prime.

Both domains run the same elimination loop (_bareiss) and differ only in
how a value is divided by the previous pivot.  A PolyMatrix keeps each
entry as its coefficient cell (min_exp, coeffs), so determinant hands
those rows to a kernel without building one polynomial object per entry.

The norm prod_{z^n = 1} a(z*t) of a Laurent polynomial over the n-th roots
of unity, which is det(a(t*P)) for an n-cycle P, needs no matrix at all:
cycle_norm computes it exactly from power sums by Newton's identities.

The package's value classes (domains, polynomials, matrices, records)
derive from FrozenValue: hand-written __slots__ classes whose fields are
set once in __init__, compare and hash as the tuple of their fields, and
refuse assignment.  Frozen dataclasses would give the same semantics, but
importing dataclasses loads inspect, ast, dis and tokenize, and each
decorated class execs generated source at import, which together cost a
third of the start-up of a CLI run.  The classes built thousands of times
per run (CoefficientDomain, LaurentPolynomial, RationalFunction) spell
out __init__, __eq__ and __hash__ over their own fields, since the
generic versions that loop over __slots__ are measurably slower there.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from functools import lru_cache

_set = object.__setattr__


class DomainMismatchError(ValueError):
    """Raised when operands live over different coefficient domains."""


class NonInvertibleScalarError(ValueError):
    """Raised when a scalar that must be a unit is not invertible."""


# Miller-Rabin with these bases decides primality exactly below
# _PRIME_LIMIT (Sorenson and Webster, "Strong pseudoprimes to twelve prime
# bases", Math. Comp. 86, 2017).
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Whether n is prime, by deterministic Miller-Rabin; ValueError for
    n >= _PRIME_LIMIT, where the test would no longer be a proof."""
    if n >= _PRIME_LIMIT:
        raise ValueError(f"{n} is too large to test for primality "
                         f"(the limit is {_PRIME_LIMIT})")
    if n < 2:
        return False
    for a in _PRIME_BASES:
        if n % a == 0:
            return n == a
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = 2^s * d, d odd
    d = (n - 1) >> s
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class FrozenValue:
    """Base of the immutable value classes: the fields are the subclass's
    __slots__, in order, set in its __init__ through _set or _fill.
    Instances of one class are equal, and hash alike, when their field
    tuples are; assigning or deleting a field raises AttributeError."""

    __slots__ = ()

    def _fill(self, *values):
        for name, value in zip(self.__slots__, values):
            _set(self, name, value)

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}"
                           for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy and pickle rebuild through __init__
        return type(self), self._fields()


def _json_ints(values, what: str) -> tuple[int, ...]:
    """The values as a tuple of ints, for the JSON loaders of knot and
    group tables: a JSON 2.5, true or "2" raises TypeError rather than
    being coerced."""
    values = tuple(values)
    for v in values:
        if type(v) is not int:
            raise TypeError(f"{what} {v!r} is not an integer")
    return values


class CoefficientDomain(FrozenValue):
    """The exact integers (p is None) or the prime field F_p.

    Scalars are plain Python ints; over F_p they are kept reduced to the
    range 0..p-1.
    """

    __slots__ = ("p",)

    def __init__(self, p: int | None = None):
        if p is not None and not _is_prime(p):
            raise ValueError(f"modulus {p} is not prime")
        _set(self, "p", p)

    def __eq__(self, other):
        if other.__class__ is not CoefficientDomain:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash((self.p,))

    @property
    def is_field(self) -> bool:
        return self.p is not None

    def reduce(self, c: int) -> int:
        return c % self.p if self.p is not None else c

    def neg(self, c: int) -> int:
        return (-c) % self.p if self.p is not None else -c

    def inv(self, c: int) -> int:
        if self.p is not None:
            if c % self.p == 0:
                raise NonInvertibleScalarError("zero is not invertible")
            return pow(c, -1, self.p)
        if c in (1, -1):
            return c
        raise NonInvertibleScalarError(
            f"{c} is not invertible over the integers")

    def __repr__(self):
        return "ZZ" if self.p is None else f"GF({self.p})"


INTEGERS = CoefficientDomain()


def prime_field(p: int) -> CoefficientDomain:
    return CoefficientDomain(p)


def _check_same_domain(a: "LaurentPolynomial", b: "LaurentPolynomial"):
    if a.domain is not b.domain and a.domain != b.domain:
        raise DomainMismatchError(f"{a.domain} vs {b.domain}")


class LaurentPolynomial(FrozenValue):
    """An exact Laurent polynomial sum_i coeffs[i] * t^(min_exp + i).

    Canonical form: the first and last stored coefficients are nonzero,
    all coefficients are reduced into the domain, and the zero polynomial
    is stored as the empty tuple with min_exp 0.  Instances are immutable
    and safe to share between threads.
    """

    __slots__ = ("domain", "min_exp", "coeffs")

    def __init__(self, domain: CoefficientDomain, min_exp: int,
                 coeffs: tuple[int, ...]):
        _set(self, "domain", domain)
        _set(self, "min_exp", min_exp)
        _set(self, "coeffs", coeffs)

    def __eq__(self, other):
        if other.__class__ is not LaurentPolynomial:
            return NotImplemented
        return (self.coeffs == other.coeffs and self.min_exp == other.min_exp
                and (self.domain is other.domain
                     or self.domain == other.domain))

    def __hash__(self):
        return hash((self.domain, self.min_exp, self.coeffs))

    @staticmethod
    def make(domain: CoefficientDomain, min_exp: int,
             coeffs: Iterable[int]) -> "LaurentPolynomial":
        p = domain.p
        cs = list(coeffs) if p is None else [c % p for c in coeffs]
        lo = 0
        while lo < len(cs) and cs[lo] == 0:
            lo += 1
        hi = len(cs)
        while hi > lo and cs[hi - 1] == 0:
            hi -= 1
        if lo == hi:
            return LaurentPolynomial(domain, 0, ())
        return LaurentPolynomial(domain, min_exp + lo, tuple(cs[lo:hi]))

    @staticmethod
    def zero(domain: CoefficientDomain = INTEGERS) -> "LaurentPolynomial":
        return LaurentPolynomial(domain, 0, ())

    @staticmethod
    def one(domain: CoefficientDomain = INTEGERS) -> "LaurentPolynomial":
        return LaurentPolynomial(domain, 0, (domain.reduce(1),))

    @staticmethod
    def t_power(k: int, domain: CoefficientDomain = INTEGERS) -> "LaurentPolynomial":
        return LaurentPolynomial(domain, k, (domain.reduce(1),))

    @staticmethod
    def from_coeff_map(domain: CoefficientDomain,
                       terms: dict[int, int]) -> "LaurentPolynomial":
        return LaurentPolynomial(domain, *coefficient_cell(terms, domain.p))

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def max_exp(self) -> int:
        return self.min_exp + len(self.coeffs) - 1

    def coefficient(self, k: int) -> int:
        i = k - self.min_exp
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return 0

    def shift(self, k: int) -> "LaurentPolynomial":
        """Multiply by t^k."""
        if self.is_zero:
            return self
        return LaurentPolynomial(self.domain, self.min_exp + k, self.coeffs)

    def __add__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        _check_same_domain(self, other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.max_exp, other.max_exp)
        cs = [0] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            cs[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            cs[other.min_exp - lo + i] += c
        return LaurentPolynomial.make(self.domain, lo, cs)

    def __neg__(self) -> "LaurentPolynomial":
        return LaurentPolynomial(
            self.domain, self.min_exp,
            tuple(self.domain.neg(c) for c in self.coeffs))

    def __sub__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        return self + (-other)

    def __mul__(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        _check_same_domain(self, other)
        if self.is_zero or other.is_zero:
            return LaurentPolynomial.zero(self.domain)
        a, b = self.coeffs, other.coeffs
        cs = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    cs[i + j] += ai * bj
        return LaurentPolynomial.make(
            self.domain, self.min_exp + other.min_exp, cs)

    def scale(self, c: int) -> "LaurentPolynomial":
        c = self.domain.reduce(c)
        if c == 0:
            return LaurentPolynomial.zero(self.domain)
        return LaurentPolynomial.make(
            self.domain, self.min_exp, (c * a for a in self.coeffs))

    def __pow__(self, e: int) -> "LaurentPolynomial":
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result, base = None, self
        while e:
            if e & 1:
                result = base if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return LaurentPolynomial.one(self.domain) if result is None \
            else result

    def evaluate(self, x: int) -> int:
        """Evaluate at an integer point (needs min_exp >= 0 over ZZ)."""
        if self.is_zero:
            return 0
        if self.min_exp < 0 and self.domain.p is None:
            raise ValueError("cannot evaluate a Laurent tail over ZZ")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        if self.min_exp:
            if self.domain.p is None:
                acc *= x ** self.min_exp
            else:
                acc *= pow(x, self.min_exp, self.domain.p)
        return self.domain.reduce(acc)

    def __str__(self):
        return to_text(self)

    # -- textual / machine serialization ---------------------------------

    def to_json(self) -> dict:
        return {"minExponent": self.min_exp, "coefficients": list(self.coeffs)}

    @staticmethod
    def from_json(obj: dict, domain: CoefficientDomain = INTEGERS
                  ) -> "LaurentPolynomial":
        return LaurentPolynomial.make(
            domain, int(obj["minExponent"]),
            [int(c) for c in obj["coefficients"]])


ZERO_CELL: tuple[int, tuple[int, ...]] = (0, ())


def coefficient_cell(terms: dict[int, int], p: int | None
                     ) -> tuple[int, tuple[int, ...]]:
    """The canonical (min_exp, coeffs) of sum_k terms[k] * t^k, the
    coefficients reduced mod p when p is given: the fields that
    LaurentPolynomial.make gives, and the cell form of PolyMatrix."""
    if p is not None:
        terms = {k: c % p for k, c in terms.items() if c % p}
    elif not all(terms.values()):
        terms = {k: c for k, c in terms.items() if c}
    if not terms:
        return ZERO_CELL
    lo = min(terms)
    cs = [0] * (max(terms) - lo + 1)
    for k, c in terms.items():
        cs[k - lo] = c
    return lo, tuple(cs)


def to_text(f: LaurentPolynomial) -> str:
    """Human form with explicit signs, highest power first: "t^2 - t + 1"."""
    if f.is_zero:
        return "0"
    parts = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c == 0:
            continue
        k = f.min_exp + i
        sign = "-" if c < 0 else "+"
        mag = abs(c)
        if k == 0:
            body = str(mag)
        else:
            tk = "t" if k == 1 else f"t^{k}"
            body = tk if mag == 1 else f"{mag}*{tk}"
        parts.append((sign, body))
    first_sign, first_body = parts[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        out += f" {sign} {body}"
    return out


def reduce_mod(f: LaurentPolynomial, p: int) -> LaurentPolynomial:
    """Coefficientwise reduction ZZ[t^+-1] -> F_p[t^+-1]."""
    if f.domain.p is not None:
        raise DomainMismatchError("reduce_mod expects an integer polynomial")
    return LaurentPolynomial.make(prime_field(p), f.min_exp, f.coeffs)


# -- polynomial division and gcd ----------------------------------------


def _divmod_field(num: list[int], den: list[int], p: int
                  ) -> tuple[list[int], list[int]]:
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    if dn < dd:
        return [], num
    inv_lead = pow(den[-1], -1, p)
    quo = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c = (num[dd + k] * inv_lead) % p
        quo[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] = (num[k + i] - c * d) % p
    while num and num[-1] == 0:
        num.pop()
    return quo, num


def _divexact_int(num: list[int], den: list[int]) -> list[int]:
    """Exact division in ZZ[t]; valid whenever den truly divides num."""
    num = list(num)
    dn, dd = len(num) - 1, len(den) - 1
    quo = [0] * (dn - dd + 1)
    for k in range(dn - dd, -1, -1):
        c, r = divmod(num[dd + k], den[-1])
        if r:
            raise ArithmeticError("inexact polynomial division")
        quo[k] = c
        if c:
            for i, d in enumerate(den):
                num[k + i] -= c * d
    if any(num):
        raise ArithmeticError("inexact polynomial division")
    return quo


@lru_cache(maxsize=None)
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d in ascending coefficients: x^d - 1 divided exactly by Phi_e
    for every proper divisor e of d."""
    phi = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            phi = _divexact_int(phi, _cyclotomic(e))
    return tuple(phi)


@lru_cache(maxsize=None)
def cyclotomic_residues(d: int) -> tuple[tuple[int, ...], ...]:
    """x^n mod Phi_d for n = 0..d-1, each as its phi(d) integer
    coefficients on 1, x, ..., x^(phi(d)-1).  Since x^d = 1 mod Phi_d,
    column j of the matrix of multiplication by x^e on ZZ[x]/Phi_d is
    entry (e + j) mod d.  Each entry is x times the one before, with
    x^phi(d) replaced by x^phi(d) - Phi_d (Phi_d is monic)."""
    phi = _cyclotomic(d)
    x = [1] + [0] * (len(phi) - 2)
    out = []
    for _ in range(d):
        out.append(tuple(x))
        x = [c - x[-1] * q for c, q in zip([0] + x[:-1], phi)]
    return tuple(out)


def _content(cs: Sequence[int]) -> int:
    g = 0
    for c in cs:
        g = math.gcd(g, c)
        if g == 1:
            break
    return g


def _gcd_coeff_lists(a: list[int], b: list[int],
                     domain: CoefficientDomain) -> list[int]:
    """GCD of genuine polynomials given as coefficient lists."""
    if not a:
        return list(b)
    if not b:
        return list(a)
    if domain.p is not None:
        p = domain.p
        f, g = list(a), list(b)
        while g:
            _, r = _divmod_field(f, g, p)
            f, g = g, r
        inv_lead = pow(f[-1], -1, p)
        return [(c * inv_lead) % p for c in f]
    # primitive polynomial remainder sequence over ZZ
    ca, cb = _content(a), _content(b)
    f = [c // ca for c in a]
    g = [c // cb for c in b]
    if len(f) < len(g):
        f, g = g, f
    while True:
        r = _pseudo_rem(f, g)
        if not r:
            break
        cr = _content(r)
        f, g = g, [c // cr for c in r]
    c = math.gcd(ca, cb)
    if g[-1] < 0:
        g = [-x for x in g]
    return [c * x for x in g]


def _pseudo_rem(f: list[int], g: list[int]) -> list[int]:
    dg = len(g) - 1
    lead = g[-1]
    r = list(f)
    while r and len(r) - 1 >= dg:
        top = r[-1]
        off = len(r) - 1 - dg
        r = [lead * c for c in r]
        for i, d in enumerate(g):
            r[off + i] -= top * d
        r.pop()  # the leading term cancels exactly
        while r and r[-1] == 0:
            r.pop()
    return r


def poly_gcd(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """GCD up to units, returned with min_exp 0 (t is a unit here)."""
    _check_same_domain(a, b)
    if a.is_zero and b.is_zero:
        return LaurentPolynomial.zero(a.domain)
    g = _gcd_coeff_lists(list(a.coeffs), list(b.coeffs), a.domain)
    return LaurentPolynomial.make(a.domain, 0, g)


def divexact(a: LaurentPolynomial, b: LaurentPolynomial) -> LaurentPolynomial:
    """a / b when b divides a exactly (up to a t-power shift)."""
    _check_same_domain(a, b)
    if b.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    if a.is_zero:
        return a
    if a.domain.p is not None:
        quo, rem = _divmod_field(list(a.coeffs), list(b.coeffs), a.domain.p)
        if rem:
            raise ArithmeticError("inexact polynomial division")
    else:
        quo = _divexact_int(list(a.coeffs), list(b.coeffs))
    return LaurentPolynomial.make(a.domain, a.min_exp - b.min_exp, quo)


# -- rational functions --------------------------------------------------


class RationalFunction(FrozenValue):
    """A quotient of Laurent polynomials over a common domain."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: LaurentPolynomial,
                 denominator: LaurentPolynomial):
        _check_same_domain(numerator, denominator)
        if denominator.is_zero:
            raise ZeroDivisionError("rational function with zero denominator")
        _set(self, "numerator", numerator)
        _set(self, "denominator", denominator)

    def __eq__(self, other):
        if other.__class__ is not RationalFunction:
            return NotImplemented
        return (self.numerator == other.numerator
                and self.denominator == other.denominator)

    def __hash__(self):
        return hash((self.numerator, self.denominator))

    @property
    def domain(self) -> CoefficientDomain:
        return self.numerator.domain

    @staticmethod
    def of(numerator: LaurentPolynomial,
           denominator: LaurentPolynomial | None = None) -> "RationalFunction":
        if denominator is None:
            denominator = LaurentPolynomial.one(numerator.domain)
        return RationalFunction(numerator, denominator)

    def __mul__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.numerator * other.numerator,
                                self.denominator * other.denominator)

    def __truediv__(self, other: "RationalFunction") -> "RationalFunction":
        return RationalFunction(self.numerator * other.denominator,
                                self.denominator * other.numerator)

    def __pow__(self, e: int) -> "RationalFunction":
        if e < 0:
            return RationalFunction(self.denominator, self.numerator) ** (-e)
        return RationalFunction(self.numerator ** e, self.denominator ** e)

    @property
    def is_zero(self) -> bool:
        return self.numerator.is_zero

    def reduce_mod(self, p: int) -> "RationalFunction":
        den = reduce_mod(self.denominator, p)
        if den.is_zero:
            raise ZeroDivisionError(f"denominator vanishes mod {p}")
        return RationalFunction(reduce_mod(self.numerator, p), den)

    def to_json(self) -> dict:
        return {"numerator": self.numerator.to_json(),
                "denominator": self.denominator.to_json()}

    @staticmethod
    def from_json(obj: dict, domain: CoefficientDomain = INTEGERS
                  ) -> "RationalFunction":
        return RationalFunction(
            LaurentPolynomial.from_json(obj["numerator"], domain),
            LaurentPolynomial.from_json(obj["denominator"], domain))

    def __str__(self):
        if self.denominator == LaurentPolynomial.one(self.domain):
            return str(self.numerator)
        return f"({self.numerator}) / ({self.denominator})"


def _unit_normalize_poly(f: LaurentPolynomial) -> LaurentPolynomial:
    """Shift min_exp to 0 and scale the lowest coefficient to a unit:
    1 over a prime field, positive sign over the integers."""
    if f.is_zero:
        return f
    f = f.shift(-f.min_exp)
    if f.domain.p is not None:
        low = f.coeffs[0]
        if low != 1:
            f = f.scale(f.domain.inv(low))
    else:
        if f.coeffs[0] < 0:
            f = -f
    return f


def rational_normalize(r: RationalFunction) -> RationalFunction:
    """Normal form: gcd cancelled, both min exponents 0, lowest coefficients
    scaled to units (1 over F_p; positive with content removed over ZZ).

    Units here are c * t^k with c invertible, so numerator and denominator
    may be scaled independently; two rational functions are equal up to
    unit exactly when their normal forms coincide.
    """
    num, den = r.numerator, r.denominator
    if num.is_zero:
        return RationalFunction(LaurentPolynomial.zero(num.domain),
                                LaurentPolynomial.one(num.domain))
    g = poly_gcd(num, den)
    if len(g.coeffs) > 1 or g.coeffs[0] not in (1, -1):
        num = divexact(num, g)
        den = divexact(den, g)
    num, den = _unit_normalize_poly(num), _unit_normalize_poly(den)
    if num.domain.p is None:
        cn, cd = _content(num.coeffs), _content(den.coeffs)
        if cn > 1:
            num = LaurentPolynomial.make(num.domain, 0,
                                         [c // cn for c in num.coeffs])
        if cd > 1:
            den = LaurentPolynomial.make(den.domain, 0,
                                         [c // cd for c in den.coeffs])
    return RationalFunction(num, den)


def equal_up_to_unit(a: RationalFunction, b: RationalFunction) -> bool:
    """True iff a = c * t^k * b for a unit scalar c and integer k."""
    if a.domain != b.domain:
        raise DomainMismatchError(f"{a.domain} vs {b.domain}")
    na, nb = rational_normalize(a), rational_normalize(b)
    return na.numerator == nb.numerator and na.denominator == nb.denominator


# -- polynomial matrices and determinants --------------------------------


class PolyMatrix(FrozenValue):
    """A rows x cols matrix of Laurent polynomials over one domain.

    The entries are stored row by row as cells (min_exp, coeffs), in the
    canonical form of LaurentPolynomial, zero as (0, ()), and the domain
    once for the whole matrix, so a 0 x 0 matrix keeps its domain too.
    Producers that have the coefficients at hand (twisted.evaluate_rep_phi,
    knots.alexander_minor) build the cells directly with of_cells, and
    determinant eliminates them without building one polynomial per entry;
    entry and entries build those polynomials for other callers.
    PolyMatrix(rows, cols, entries) and from_rows take polynomials, and
    take the domain from the first entry, the integers when there is
    none."""

    __slots__ = ("domain", "rows", "cols", "cells")

    def __init__(self, rows: int, cols: int,
                 entries: tuple[LaurentPolynomial, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        if len({e.domain for e in entries}) > 1:
            raise DomainMismatchError("matrix entries over mixed domains")
        self._fill(entries[0].domain if entries else INTEGERS, rows, cols,
                   tuple((e.min_exp, e.coeffs) for e in entries))

    @staticmethod
    def of_cells(domain: CoefficientDomain, rows: int, cols: int,
                 cells: tuple[tuple[int, tuple[int, ...]], ...]
                 ) -> "PolyMatrix":
        """The matrix with these cells, which the caller guarantees are
        rows * cols canonical (min_exp, coeffs) pairs over domain."""
        m = object.__new__(PolyMatrix)
        m._fill(domain, rows, cols, cells)
        return m

    def __reduce__(self):
        return PolyMatrix.of_cells, self._fields()

    @staticmethod
    def from_rows(rows: Sequence[Sequence[LaurentPolynomial]]) -> "PolyMatrix":
        r = len(rows)
        c = len(rows[0]) if r else 0
        flat = []
        for row in rows:
            if len(row) != c:
                raise ValueError("ragged matrix rows")
            flat.extend(row)
        return PolyMatrix(r, c, tuple(flat))

    def entry(self, i: int, j: int) -> LaurentPolynomial:
        return LaurentPolynomial(self.domain, *self.cells[i * self.cols + j])

    @property
    def entries(self) -> tuple[LaurentPolynomial, ...]:
        domain = self.domain
        return tuple(LaurentPolynomial(domain, e, cs) for e, cs in self.cells)


def _pack(coeffs: Sequence[int], width: int) -> int:
    v = 0
    for c in reversed(coeffs):
        v = (v << width) + c
    return v


def _unpack_balanced(v: int, width: int) -> list[int]:
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    while v:
        d = v & mask
        if d >= half:
            d -= mask + 1
        out.append(d)
        v = (v - d) >> width
    return out


def _bareiss(a: list[list[int]], n: int, divide) -> int:
    """The determinant of the n x n matrix a of packed polynomials by
    fraction-free Bareiss elimination; a is overwritten.

    Step k pivots on a[k][k], swapping in a lower row when it is zero, and
    replaces a_ij by (a_ij*piv - a_ik*a_kj) / prev for i, j > k, with prev
    the previous pivot.  Only entries where row i, or row k when a_ik != 0,
    is nonzero are formed; the others stay zero.  Each step forms all its
    values first and then divides them together: divide(prev, values)
    returns their exact quotients by prev, in order, so a divisor may be
    prepared for the longest of them."""
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        row_k, piv = a[k], a[k][k]
        cells, values = [], []
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                if row_i[j] or aik and row_k[j]:
                    cells.append((row_i, j))
                    values.append(row_i[j] * piv - aik * row_k[j])
        for (row_i, j), q in zip(cells, divide(prev, values)):
            row_i[j] = q
        prev = piv
    return sign * a[n - 1][n - 1]


def _det_packed_integer(rows: list[list[Sequence[int]]], n: int) -> list[int]:
    """Fraction-free Bareiss over ZZ[t] on packed coefficient lists.

    Every intermediate entry is a minor of the input matrix, so its
    coefficient 1-norm is bounded by the product of the row 1-norms; the
    slot width is chosen to hold products of two such minors, which covers
    the worst value formed during an update.
    """
    bound_bits = 2
    for row in rows:
        s = sum(sum(abs(c) for c in e) for e in row)
        bound_bits += max(s, 2).bit_length()
    width = 2 * bound_bits + 4
    a = [[_pack(e, width) for e in row] for row in rows]
    det = _bareiss(a, n, lambda prev, values: [x // prev for x in values])
    return _unpack_balanced(det, width)


class _PackedFp:
    """F_p[t] packed in slots of `width` W bits, reduced mod p by a Barrett
    multiply on the whole packed integer.

    reduce takes a packed value whose balanced slot digits d satisfy
    |d| < 2^(W-2) and returns the packed value of the digits d mod p.  The
    width must leave room for p: p^2 < 2^(W-2) suffices below.  Let c be
    the least multiple of p with c >= 2^(W-2): adding c to every slot makes
    each digit d + c lie in [0, B), B = 2^(W-1) + p <= 2^W, with no carries,
    and does not change it mod p.  With s = bit_length(B*p - 1) and
    m = ceil(2^s/p), floor((d+c)*m / 2^s) = floor((d+c)/p) exactly, because
    (d+c)*(m*p - 2^s) < B*p <= 2^s.  Since 2^s < 2*B*p, (d+c)*m < 2*B^2 + B
    < 2^(2W), so masking the even slots, and separately the odd slots,
    into windows of 2W bits keeps every product inside its own window;
    each quotient is below B/p < 2^(2W-s) because 2*B^2 < 2^(2W), so after
    the shift by s a mask of 2W-s bits per window removes what the next
    window shifted in.  The result x - p*q has every slot in 0..p-1.
    """

    def __init__(self, p: int, width: int):
        self.p = p
        self.width = width
        self.shift = (((1 << width - 1) + p) * p - 1).bit_length()
        self.multiplier = -(-(1 << self.shift) // p)
        self.masks: dict[int, tuple[int, int, int]] = {}

    def reduce(self, v: int) -> int:
        """The packed value of v's balanced slot digits mod p (see the
        class docstring)."""
        w, p, s = self.width, self.p, self.shift
        nslots = v.bit_length() // w + 2
        masks = self.masks.get(nslots)
        if masks is None:  # c in every slot, the even slots, the windows
            slots = ((1 << w * nslots) - 1) // ((1 << w) - 1)
            windows = ((1 << w * (nslots + nslots % 2)) - 1) \
                // ((1 << 2 * w) - 1)
            masks = self.masks[nslots] = (
                -(-(1 << w - 2) // p) * p * slots, windows * ((1 << w) - 1),
                windows * ((1 << 2 * w - s) - 1))
        offset, even, window = masks
        x = v + offset
        m = self.multiplier
        q = ((x & even) * m >> s & window) \
            + (((x >> w & even) * m >> s & window) << w)
        return x - p * q

    def divisor(self, d: int, precision: int) -> tuple[int, int, int, int]:
        """(v, deg g, inverse of g mod t^precision, precision) for a
        reduced nonzero d = t^v * g with g(0) != 0; the inverse comes from
        Newton's iteration x <- x * (2 - g x), doubling its length, which a
        constant g does not need."""
        w = self.width
        v = ((d & -d).bit_length() - 1) // w
        g = d >> (w * v)
        x = pow(g & ((1 << w) - 1), -1, self.p)
        klen = 1 if g >> w else precision  # a constant is its own inverse
        while klen < precision:
            klen = min(2 * klen, precision)
            mask = (1 << (w * klen)) - 1
            gx = self.reduce((g & mask) * x) & mask
            x = self.reduce(2 * x - x * gx) & mask
        return v, (g.bit_length() - 1) // w, x, precision

    def divexact(self, f: int, divisor: tuple[int, int, int, int]) -> int:
        """The reduced packed f divided by t^v * g, bottom up: drop the v
        low slots, which must be zero, and multiply by the inverse of g cut
        to the quotient length.  A digit of that product sums at most
        precision terms below p^2, so it stays in its slot: the mask is
        exact."""
        v, g_deg, inv, precision = divisor
        w = self.width
        if not f:
            return 0
        qlen = (f.bit_length() - 1) // w + 1 - v - g_deg
        if f & ((1 << w * v) - 1) or not 0 < qlen <= precision:
            raise ArithmeticError("inexact packed division")
        mask = (1 << w * qlen) - 1
        return self.reduce((f >> w * v & mask) * (inv & mask) & mask)


def _det_packed_modp(rows: list[list[Sequence[int]]], n: int,
                     p: int) -> list[int]:
    """Fraction-free Bareiss natively over F_p[t] on packed polynomials.

    Each value a row update forms is reduced mod p (_PackedFp.reduce) and
    divided by the previous pivot bottom up (_PackedFp.divexact).  The
    Newton inverse of the pivot is grown only to the longest quotient of
    the step: a reduced value of L slots divided by a pivot of P slots has
    L - P + 1.  The entries after step k are (k+2)-minors of at most
    (k+2)*(max_len-1)+1 slots, so raw digits stay below n*max_len*(p-1)^2,
    and quotient and Newton-inverse digits below (n*max_len+2)*(p-1)^2.
    The slot width W is the least W >= 32 with 2*(p-1)^2*(n*max_len+2) <
    2^(W-1), which puts both bounds, and p^2, under the 2^(W-2) that
    _PackedFp needs.  The coefficients come back balanced, not yet
    reduced."""
    max_len = max((len(e) for row in rows for e in row), default=1)
    width = max(32, (2 * (p - 1) ** 2 * (n * max_len + 2)).bit_length() + 1)
    helper = _PackedFp(p, width)
    reduce = helper.reduce

    def divide(prev: int, values: list[int]) -> list[int]:
        values = [reduce(x) for x in values]
        top = max(values, default=0).bit_length()
        if prev == 1 or not top:
            return values
        divisor = helper.divisor(
            prev, (top - 1) // width - (prev.bit_length() - 1) // width + 1)
        return [helper.divexact(x, divisor) for x in values]

    a = [[_pack(e, width) for e in row] for row in rows]
    return _unpack_balanced(_bareiss(a, n, divide), width)


def determinant(m: PolyMatrix) -> LaurentPolynomial:
    """Exact determinant by fraction-free elimination.

    The matrix's cells go to the kernel as coefficient rows, with no
    polynomial built per entry: each row is shifted by the least min_exp
    among its nonzero cells, so the elimination runs on genuine
    polynomials.  The domain alone picks the kernel: a matrix over ZZ runs
    _det_packed_integer and one over F_p runs _det_packed_modp, at every
    p, with a slot width sized from p and the input.  The result does not
    depend on the width.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n, dom, cells = m.rows, m.domain, m.cells
    if n == 0:
        return LaurentPolynomial.one(dom)
    shift = 0
    rows: list[list[Sequence[int]]] = []
    for start in range(0, n * n, n):
        row = cells[start:start + n]
        r = min((e for e, cs in row if cs), default=None)
        if r is None:
            return LaurentPolynomial.zero(dom)
        shift += r
        rows.append([(0,) * (e - r) + cs if cs else cs for e, cs in row])
    if dom.p is None:
        coeffs = _det_packed_integer(rows, n)
    else:
        coeffs = _det_packed_modp(rows, n, dom.p)
    return LaurentPolynomial.make(dom, shift, coeffs)


def cycle_norm(a: LaurentPolynomial, length: int) -> LaurentPolynomial:
    """prod_{z^length = 1} a(z*t), sign included: the determinant of
    a(t*C) for the cyclic shift C of that length, whose eigenvalues are
    the length-th roots of unity.  Over F_p, a is lifted to the integers
    and the result reduced.

    No matrix is built.  Write a = t^s * a0 with a0 a polynomial of degree
    d, leading coefficient c and roots alpha_i, and let beta_i = c*alpha_i,
    the roots of the monic integer polynomial c^(d-1) * a0(x/c).  Since
    prod_z (z*t - alpha) = (-1)^length * (alpha^length - t^length), the
    coefficient of t^(length*(d-j)) in prod_z a0(z*t) is
    (-1)^(d*(length+1)+j) * c^(length*(1-j)) * e_j(beta^length).  Newton's
    recurrence gives the power sums of beta, every length-th one is a
    power sum of beta^length, and Newton's identities turn those into
    e_j(beta^length).  Both divisions, by j and by c^(length*(j-1)), are
    exact, since e_j and the coefficients are integers.  The shift t^s
    comes back as t^(length*s) * ((-1)^(length+1))^s, the product of the
    roots of unity being (-1)^(length+1).
    """
    if a.is_zero:
        return a
    cs = a.coeffs
    d = len(cs) - 1
    c = cs[-1]
    # beta's polynomial x^d + sum_i mono[i] * x^(d-i), i = 1..d
    mono = [0] + [cs[d - i] * c ** (i - 1) for i in range(1, d + 1)]
    sums = [d]
    for m in range(1, d * length + 1):
        acc = m * mono[m] if m <= d else 0
        for i in range(1, min(m - 1, d) + 1):
            acc += mono[i] * sums[m - i]
        sums.append(-acc)
    elem = [1]  # e_j(beta^length)
    for j in range(1, d + 1):
        acc = 0
        for i in range(1, j + 1):
            term = elem[j - i] * sums[i * length]
            acc += term if i % 2 else -term
        elem.append(acc // j)
    flip = (d + a.min_exp) * (length + 1)
    out = [0] * (d * length + 1)
    for j in range(d + 1):
        value = c ** length if j == 0 else elem[j] // c ** (length * (j - 1))
        out[(d - j) * length] = -value if (flip + j) % 2 else value
    return LaurentPolynomial.make(a.domain, length * a.min_exp, out)


def product_over_roots_of_unity(f: LaurentPolynomial, n: int
                                ) -> LaurentPolynomial:
    """The integer polynomial prod_{j=1..n} f(a^j t) for a = e^(2 pi i / n),
    with the unit fixed so that the lowest-degree coefficient is positive.

    This is cycle_norm(f, n) up to that sign, so no complex arithmetic and
    no matrix is involved.
    """
    if n < 1:
        raise ValueError("the root-of-unity order must be positive")
    if f.domain.p is not None:
        raise DomainMismatchError(
            "roots-of-unity products are defined over the integers")
    out = cycle_norm(f, n)
    if not out.is_zero and out.coeffs[0] < 0:
        out = -out
    return out
