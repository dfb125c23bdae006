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
  multiplied by the Newton inverse of g mod a power of t.  The route
  condition in determinant keeps every slot digit below 2^30: no carries.

Both domains run the same elimination loop (_bareiss) and differ only in
how a value is divided by the previous pivot.

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


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
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
        if not terms:
            return LaurentPolynomial.zero(domain)
        lo = min(terms)
        hi = max(terms)
        cs = [0] * (hi - lo + 1)
        for k, c in terms.items():
            cs[k - lo] += c
        return LaurentPolynomial.make(domain, lo, cs)

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
        result = LaurentPolynomial.one(self.domain)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

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
    """A rows x cols matrix of Laurent polynomials over one domain."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int,
                 entries: tuple[LaurentPolynomial, ...]):
        if rows < 0 or cols < 0:
            raise ValueError("negative matrix dimensions")
        if len(entries) != rows * cols:
            raise ValueError("entry count does not match dimensions")
        if len({e.domain for e in entries}) > 1:
            raise DomainMismatchError("matrix entries over mixed domains")
        self._fill(rows, cols, entries)

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
        return self.entries[i * self.cols + j]

    @property
    def domain(self) -> CoefficientDomain:
        if self.entries:
            return self.entries[0].domain
        return INTEGERS


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
    is nonzero are formed; the others stay zero.  divide(prev, k) returns
    the map from such a value to its exact quotient by prev."""
    sign = prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            i = next((i for i in range(k + 1, n) if a[i][k]), None)
            if i is None:
                return 0
            a[k], a[i], sign = a[i], a[k], -sign
        row_k, piv = a[k], a[k][k]
        quotient = divide(prev, k)
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                if row_i[j] or aik and row_k[j]:
                    row_i[j] = quotient(row_i[j] * piv - aik * row_k[j])
        prev = piv
    return sign * a[n - 1][n - 1]


def _det_packed_integer(rows: list[list[list[int]]], n: int) -> list[int]:
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
    det = _bareiss(a, n, lambda prev, k: lambda x: x // prev)
    return _unpack_balanced(det, width)


class _PackedFp:
    """F_p[t] packed in 32-bit slots, reduced mod p by a Barrett multiply
    on the whole packed integer.

    reduce takes a packed value whose balanced slot digits d satisfy
    |d| < 2^30 and returns the packed value of the digits d mod p.  Let c be
    the least multiple of p with c >= 2^30: adding c to every slot makes
    each digit d + c lie in [0, B), B = 2^31 + p, with no carries, and does
    not change it mod p.  With s = bit_length(B*p - 1) and m = ceil(2^s/p),
    floor((d+c)*m / 2^s) = floor((d+c)/p) exactly, because
    (d+c)*(m*p - 2^s) < B*p <= 2^s.  Since (d+c)*m < 2*B^2 + B < 2^64,
    masking the even slots, and separately the odd slots, into 64-bit
    windows keeps every product inside its own window; each quotient is
    below 2^(64-s) because B^2 < 2^63, so after the shift by s a mask of
    64-s bits per window removes what the next window shifted in.  The
    result x - p*q has every slot in 0..p-1.  The route condition in
    determinant keeps p <= 18919, for which all of this holds.
    """

    WIDTH = 32

    def __init__(self, p: int):
        self.p = p
        self.shift = (((1 << 31) + p) * p - 1).bit_length()
        self.multiplier = -(-(1 << self.shift) // p)
        self.masks: dict[int, tuple[int, int, int]] = {}

    def reduce(self, v: int) -> int:
        """The packed value of v's balanced slot digits mod p (see the
        class docstring)."""
        w, p, s = self.WIDTH, self.p, self.shift
        nslots = v.bit_length() // w + 2
        masks = self.masks.get(nslots)
        if masks is None:  # c in every slot, the even slots, the windows
            slots = ((1 << w * nslots) - 1) // ((1 << w) - 1)
            windows = ((1 << w * (nslots + nslots % 2)) - 1) \
                // ((1 << 2 * w) - 1)
            masks = self.masks[nslots] = (
                -(-(1 << 30) // p) * p * slots, windows * ((1 << w) - 1),
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
        Newton's iteration x <- x * (2 - g x), doubling its length."""
        w = self.WIDTH
        v = ((d & -d).bit_length() - 1) // w
        g = d >> (w * v)
        x = pow(g & ((1 << w) - 1), -1, self.p)
        klen = 1
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
        w = self.WIDTH
        if not f:
            return 0
        qlen = (f.bit_length() - 1) // w + 1 - v - g_deg
        if f & ((1 << w * v) - 1) or not 0 < qlen <= precision:
            raise ArithmeticError("inexact packed division")
        mask = (1 << w * qlen) - 1
        return self.reduce((f >> w * v & mask) * (inv & mask) & mask)


def _det_packed_modp(rows: list[list[list[int]]], n: int, p: int) -> list[int]:
    """Fraction-free Bareiss natively over F_p[t] on packed polynomials.

    Each value a row update forms is reduced mod p (_PackedFp.reduce) and
    divided by the previous pivot bottom up (_PackedFp.divexact).  The
    entries after step k are (k+2)-minors of at most (k+2)*(max_len-1)+1
    slots, so raw digits stay below n*max_len*(p-1)^2 and quotient digits
    below (n*max_len+2)*(p-1)^2: both under 2^30 by determinant's route
    condition.  The coefficients come back balanced, not yet reduced."""
    max_len = max((len(e) for row in rows for e in row), default=1)
    helper = _PackedFp(p)

    def divide(prev: int, k: int):
        if prev == 1:
            return helper.reduce
        divisor = helper.divisor(prev, (k + 2) * (max_len - 1) + 1)
        return lambda x: helper.divexact(helper.reduce(x), divisor)

    a = [[_pack(e, helper.WIDTH) for e in row] for row in rows]
    return _unpack_balanced(_bareiss(a, n, divide), helper.WIDTH)


def determinant(m: PolyMatrix) -> LaurentPolynomial:
    """Exact determinant by fraction-free elimination.

    Powers of t are factored out of each row first, so the elimination
    runs on genuine polynomials; the result is bit-identical regardless of
    internal representation choices.
    """
    if m.rows != m.cols:
        raise ValueError("determinant of a non-square matrix")
    n = m.rows
    dom = m.domain
    if n == 0:
        return LaurentPolynomial.one(dom)
    shift = 0
    rows: list[list[list[int]]] = []
    for i in range(n):
        entries = [m.entry(i, j) for j in range(n)]
        nonzero = [e for e in entries if not e.is_zero]
        if not nonzero:
            return LaurentPolynomial.zero(dom)
        r = min(e.min_exp for e in nonzero)
        shift += r
        row = []
        for e in entries:
            if e.is_zero:
                row.append([])
            else:
                row.append([0] * (e.min_exp - r) + list(e.coeffs))
        rows.append(row)
    max_len = max(max((len(e) for row in rows for e in row), default=1), 1)
    if dom.p is not None and 2 * (dom.p - 1) ** 2 * (n * max_len + 2) < 1 << 31:
        coeffs = _det_packed_modp(rows, n, dom.p)
    else:
        coeffs = _det_packed_integer(rows, n)
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
