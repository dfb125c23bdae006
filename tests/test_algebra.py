import random
import time

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from conftest import poly
from paper_lemmas import determinant_cofactor, substitute_scale
from talex import algebra
from talex.algebra import (
    INTEGERS,
    DomainMismatchError,
    LaurentPolynomial,
    NonInvertibleScalarError,
    PolyMatrix,
    RationalFunction,
    cycle_norm,
    determinant,
    divexact,
    equal_up_to_unit,
    poly_gcd,
    prime_field,
    product_over_roots_of_unity,
    rational_normalize,
    reduce_mod,
    to_text,
)

F3 = prime_field(3)
F5 = prime_field(5)
F7 = prime_field(7)


@st.composite
def laurent(draw, domain=INTEGERS):
    n = draw(st.integers(0, 6))
    coeffs = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    return LaurentPolynomial.make(domain, draw(st.integers(-4, 4)), coeffs)


class TestDomains:
    def test_prime_field_requires_prime(self):
        with pytest.raises(ValueError):
            prime_field(6)
        with pytest.raises(ValueError):
            prime_field(1)
        assert prime_field(2).p == 2

    def test_primality_matches_trial_division_below_10_5(self):
        def trial(n):
            return n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1))

        assert [n for n in range(-3, 10 ** 5) if algebra._is_prime(n)] \
            == [n for n in range(-3, 10 ** 5) if trial(n)]

    def test_pseudoprimes_rejected(self):
        # Carmichael numbers 561 and 41041, the base-2 strong pseudoprime
        # 2047, and the strong pseudoprime to every prime base up to 37
        for n in (561, 41041, 2047, 318665857834031151167461):
            assert not algebra._is_prime(n), n
            with pytest.raises(ValueError, match="not prime"):
                prime_field(n)

    def test_large_prime_accepted_quickly(self):
        start = time.perf_counter()
        assert prime_field(2 ** 61 - 1).p == 2 ** 61 - 1
        assert time.perf_counter() - start < 0.5

    def test_modulus_beyond_the_proven_range_rejected(self):
        # Miller-Rabin on the bases 2..41 is a proof only below 3.3e24
        limit = 3317044064679887385961981
        assert not algebra._is_prime(limit - 1)  # even, and below it
        for n in (limit, sympy.nextprime(4 * 10 ** 24)):
            with pytest.raises(ValueError, match="too large"):
                prime_field(n)

    def test_integer_units(self):
        assert INTEGERS.inv(-1) == -1
        with pytest.raises(NonInvertibleScalarError):
            INTEGERS.inv(2)

    def test_field_inverse(self):
        assert F7.inv(3) == 5
        with pytest.raises(NonInvertibleScalarError):
            F7.inv(0)


class TestArithmetic:
    def test_difference_of_squares(self):
        assert poly([-1, 1]) * poly([1, 1]) == poly([-1, 0, 1])

    def test_cyclotomic_product(self):
        # hand expansion: (t^2 - t + 1)(t^2 + t + 1) = t^4 + t^2 + 1
        assert poly([1, -1, 1]) * poly([1, 1, 1]) == poly([1, 0, 1, 0, 1])

    def test_zero_is_absorbing_and_canonical(self):
        f = poly([2, 0, -3], min_exp=-2)
        z = f * LaurentPolynomial.zero()
        assert z.is_zero and z.min_exp == 0 and z.coeffs == ()

    def test_domain_mismatch_raises(self):
        with pytest.raises(DomainMismatchError):
            poly([1]) + poly([1], domain=F3)

    def test_power(self):
        assert poly([1, 1]) ** 3 == poly([1, 3, 3, 1])
        assert poly([2]) ** 0 == LaurentPolynomial.one()

    def test_evaluate(self):
        assert poly([2, -5, 2]).evaluate(2) == 0
        assert poly([2, -5, 2], domain=F7).evaluate(2) == 0

    @given(laurent(), laurent(), laurent())
    @settings(max_examples=150, deadline=None)
    def test_ring_laws(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c

    @given(laurent())
    @settings(max_examples=100, deadline=None)
    def test_canonical_form_is_fixpoint(self, f):
        again = LaurentPolynomial.make(f.domain, f.min_exp, f.coeffs)
        assert again == f
        if not f.is_zero:
            assert f.coeffs[0] != 0 and f.coeffs[-1] != 0


class TestSubstituteScale:
    def test_sign_flip(self):
        assert substitute_scale(poly([1, -1, 1]), -1) == poly([1, 1, 1])

    def test_identity_scalar(self):
        f = poly([3, 0, -2], min_exp=-1)
        assert substitute_scale(f, 1) == f

    def test_field_scaling(self):
        f = poly([2, -5, 2], domain=F7)
        # coefficients 2, -10, 8 reduced mod 7
        assert substitute_scale(f, 2) == poly([2, 4, 1], domain=F7)
        assert substitute_scale(f, 2) == poly([2, -3, 1], domain=F7)

    def test_noninvertible_over_integers(self):
        with pytest.raises(NonInvertibleScalarError):
            substitute_scale(poly([1, 1]), 2)

    def test_laurent_tail(self):
        f = poly([1, 1], min_exp=-3, domain=F5)
        g = substitute_scale(f, 2)
        # coefficient of t^-3 times 2^-3, of t^-2 times 2^-2
        inv8 = pow(8, -1, 5)
        inv4 = pow(4, -1, 5)
        assert g.coefficient(-3) == inv8 % 5 and g.coefficient(-2) == inv4 % 5


class TestRootsOfUnityProduct:
    def test_order_two_of_linear(self):
        got = product_over_roots_of_unity(poly([-1, 1]), 2)
        assert got == poly([1, 0, -1])  # 1 - t^2, lowest coefficient positive

    def test_order_four_of_linear(self):
        got = product_over_roots_of_unity(poly([-1, 1]), 4)
        assert got == poly([1, 0, 0, 0, -1])

    @staticmethod
    def _numeric_orbit_product(f, n):
        """Oracle: evaluate prod_j f(a^j x) at rational sample points with
        high-precision complex arithmetic, then interpolate and round.
        Returns the result as a Laurent polynomial (t-shift included)."""
        import mpmath

        mpmath.mp.dps = 60
        genuine = f.shift(-f.min_exp)
        deg = n * (len(genuine.coeffs) - 1)
        xs = [mpmath.mpf(k) / 7 for k in range(2, 2 + deg + 1)]
        ys = []
        for x in xs:
            v = mpmath.mpc(1)
            for j in range(n):
                a = mpmath.exp(2j * mpmath.pi * j / n)
                v *= sum(c * (a * x) ** k
                         for k, c in enumerate(genuine.coeffs))
            ys.append(v)
        mat = mpmath.matrix([[x ** k for k in range(deg + 1)] for x in xs])
        sol = mpmath.lu_solve(mat, mpmath.matrix(ys))
        assert all(abs(mpmath.im(c)) < 1e-20 for c in sol)
        return poly([int(mpmath.nint(mpmath.re(c))) for c in sol],
                    min_exp=n * f.min_exp)

    def test_trefoil_cubed_orbit(self):
        f = poly([1, -1, 1])
        oracle = self._numeric_orbit_product(f, 3)
        assert oracle == poly([1, 0, 0, 2, 0, 0, 1])  # (t^3 + 1)^2, frozen
        assert product_over_roots_of_unity(f, 3) == oracle

    def test_numeric_oracle_on_samples(self):
        rng = random.Random(5)
        for _ in range(5):
            coeffs = [rng.randrange(-3, 4) for _ in range(rng.randrange(1, 4))]
            coeffs.append(rng.randrange(1, 4))
            f = poly(coeffs, min_exp=rng.randrange(-2, 3))
            n = rng.randrange(1, 5)
            got = product_over_roots_of_unity(f, n)
            oracle = self._numeric_orbit_product(f, n)
            assert got in (oracle, -oracle)

    def test_unit_order(self):
        f = poly([3, 1, -2])
        got = product_over_roots_of_unity(f, 1)
        assert equal_up_to_unit(RationalFunction.of(got),
                                RationalFunction.of(f))

    @given(laurent())
    @settings(max_examples=40, deadline=None)
    def test_order_two_is_f_t_times_f_minus_t(self, f):
        got = product_over_roots_of_unity(f, 2)
        direct = f * substitute_scale(f, -1)
        if f.is_zero:
            assert got.is_zero
        else:
            assert equal_up_to_unit(RationalFunction.of(got),
                                    RationalFunction.of(direct))

    def test_shift_restored(self):
        f = poly([-1, 1], min_exp=-2)
        got = product_over_roots_of_unity(f, 3)
        assert got.min_exp == -6

    def test_rejects_bad_order_and_domain(self):
        with pytest.raises(ValueError):
            product_over_roots_of_unity(poly([1, 1]), 0)
        with pytest.raises(DomainMismatchError):
            product_over_roots_of_unity(poly([1, 1], domain=F3), 2)


def shifted_circulant(a, length):
    """t^(-a.min_exp) * a(t*C) for the cyclic shift C of the given length
    (column j to row j + 1 mod length), as ascending coefficient lists of
    genuine polynomials."""
    rows = [[[0] * len(a.coeffs) for _ in range(length)]
            for _ in range(length)]
    for k, c in enumerate(a.coeffs):
        for j in range(length):
            rows[(j + a.min_exp + k) % length][j][k] += c
    return rows


class TestCycleNorm:
    def test_linear(self):
        # prod_z (z*t - 1) = (-1)^(len+1) * (t^len - 1)
        assert cycle_norm(poly([-1, 1]), 3) == poly([-1, 0, 0, 1])
        assert cycle_norm(poly([-1, 1]), 4) == poly([1, 0, 0, 0, -1])
        assert cycle_norm(poly([-1, 1], domain=F3), 2) == \
            poly([1, 0, 2], domain=F3)

    def test_zero_and_constant(self):
        assert cycle_norm(LaurentPolynomial.zero(), 5).is_zero
        # (c * t^s)(z*t) multiplied over z: c^len t^(len*s) times the
        # product of the roots of unity, -1, raised to s
        assert cycle_norm(poly([3], min_exp=1), 2) == poly([-9], min_exp=2)
        assert cycle_norm(poly([3], min_exp=-1), 3) == poly([27],
                                                            min_exp=-3)

    def test_matches_sympy_circulant_determinant(self):
        # the oracle: sympy's determinant over ZZ[t] of the circulant
        # a(t*C), shifted to genuine polynomials and lifted from F_p,
        # reduced mod p; t^(len*min_exp) restores the shift
        ring = sympy.ZZ[sympy.symbols("t")]
        rng = random.Random(4242)
        divided = 0
        for case in range(360):
            p = (None, 2, 3, 5, 7, 11)[case % 6]
            length = case % 20 + 1
            domain = algebra.CoefficientDomain(p)
            degree = rng.randrange(0, 9)
            lead = rng.choice((2, -2, 3, -3, 1, -1))
            if p is not None and lead % p == 0:
                lead = 1
            coeffs = [rng.randrange(-4, 5) for _ in range(degree)] + [lead]
            coeffs[0] = coeffs[0] or rng.choice((1, -1, 0))
            a = LaurentPolynomial.make(domain, rng.randrange(-5, 3), coeffs)
            rows = shifted_circulant(a, length)
            det = DomainMatrix(
                [[ring.ring.from_list(e[::-1]) for e in row] for row in rows],
                (length, length), ring).det()
            want = LaurentPolynomial.make(domain, length * a.min_exp,
                                          det.to_dense()[::-1])
            assert cycle_norm(a, length) == want, (case, p, length, a)
            if len(a.coeffs) > 2 and a.coeffs[-1] not in (1, -1) \
                    and length > 1:
                divided += 1
        assert divided >= 150

    def test_roots_of_unity_product_is_the_signed_norm(self):
        rng = random.Random(17)
        for _ in range(50):
            f = poly([rng.randrange(-3, 4) for _ in range(5)] + [2],
                     min_exp=rng.randrange(-3, 3))
            n = rng.randrange(1, 12)
            norm = cycle_norm(f, n)
            assert product_over_roots_of_unity(f, n) == (
                norm if norm.coeffs[0] > 0 else -norm)


def random_matrix(rng, n, domain):
    rows = []
    for _ in range(n):
        row = []
        for _ in range(n):
            deg = rng.randrange(0, 3)
            coeffs = [rng.randrange(-4, 5) for _ in range(deg + 1)]
            row.append(LaurentPolynomial.make(
                domain, rng.randrange(-2, 3), coeffs))
        rows.append(row)
    return PolyMatrix.from_rows(rows)


class TestDeterminant:
    def test_triangular(self):
        t = LaurentPolynomial.one().shift(1)
        m = PolyMatrix.from_rows(
            [[t, LaurentPolynomial.one()],
             [LaurentPolynomial.zero(), LaurentPolynomial.one().shift(-1)]])
        assert determinant(m) == LaurentPolynomial.one()

    def test_one_by_one(self):
        f = poly([4, 0, -1], min_exp=-1)
        assert determinant(PolyMatrix.from_rows([[f]])) == f

    def test_empty(self):
        assert determinant(PolyMatrix(INTEGERS, 0, 0, ())) == \
            LaurentPolynomial.one()

    def test_ragged_rows_rejected(self):
        one = LaurentPolynomial.one()
        with pytest.raises(ValueError, match="ragged"):
            PolyMatrix.from_rows([[one, one], [one]])

    def test_three_cycle(self):
        t = LaurentPolynomial.one().shift(1)
        one = LaurentPolynomial.one()
        zero = LaurentPolynomial.zero()
        perm = [1, 2, 0]
        rows = [[(t if perm[j] == i else zero) - (one if i == j else zero)
                 for j in range(3)] for i in range(3)]
        m = PolyMatrix.from_rows(rows)
        got = determinant(m)
        assert got == determinant_cofactor(m)
        assert got in (poly([-1, 0, 0, 1]), poly([1, 0, 0, -1]))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            determinant(PolyMatrix.from_rows([[poly([1]), poly([1])]]))

    @pytest.mark.parametrize("domain", [INTEGERS, F3, F5])
    def test_matches_cofactor_oracle(self, domain):
        rng = random.Random(20240 + (domain.p or 0))
        for _ in range(60):
            n = rng.randrange(1, 5)
            m = random_matrix(rng, n, domain)
            assert determinant(m) == determinant_cofactor(m)

    @pytest.mark.parametrize("domain", [INTEGERS, F3])
    def test_alternating_in_rows(self, domain):
        rng = random.Random(99)
        for _ in range(20):
            n = rng.randrange(2, 5)
            m = random_matrix(rng, n, domain)
            rows = [[m.entry(i, j) for j in range(n)] for i in range(n)]
            rows[0], rows[1] = rows[1], rows[0]
            swapped = PolyMatrix.from_rows(rows)
            assert determinant(swapped) == -determinant(m)

    def test_zero_row(self):
        z = LaurentPolynomial.zero()
        m = PolyMatrix.from_rows([[z, z], [poly([1]), poly([2])]])
        assert determinant(m).is_zero


def sparse_fp_matrix(rng, n, p, kind):
    """A sparse n x n matrix of genuine polynomials over F_p, of one of
    four kinds: generic; a zero at (0, 0), so elimination swaps rows at
    once; diagonal entries divisible by t next to a constant in every row,
    so the first pivot, and often later ones, is t^v * g with v > 0; and a
    last row that is a polynomial combination of two others (singular)."""
    def entry(density=0.3):
        if rng.random() >= density:
            return []
        return [rng.randrange(p) for _ in range(rng.randrange(1, 4))]

    rows = [[entry() for _ in range(n)] for _ in range(n)]
    for row in rows:  # no zero row, which determinant returns early on
        row[rng.randrange(n)] = [rng.randrange(1, p)]
    if kind == 1:
        rows[0][0] = []
        rows[0][rng.randrange(1, n)] = [rng.randrange(1, p)]
        rows[rng.randrange(1, n)][0] = [rng.randrange(1, p)]
    elif kind == 2:
        for i in range(n):
            rows[i][i] = [0] + [rng.randrange(1, p)
                                for _ in range(rng.randrange(1, 3))]
            rows[i][(i + 1) % n] = [rng.randrange(1, p)]
    elif kind == 3:
        a, b = rng.sample(range(n - 1), 2)
        f = [rng.randrange(p), rng.randrange(1, p)]
        g = [rng.randrange(1, p), rng.randrange(p)]
        rows[-1] = [[(x + y) % p for x, y in zip(
            _times(f, rows[a][j], p), _times(g, rows[b][j], p))]
            for j in range(n)]
    return rows


def _times(f, e, p):
    """Product of two ascending coefficient lists mod p, zero-padded to
    len(f) + 3 slots so that two products add slot by slot."""
    out = [0] * (len(f) + 3)
    for i, a in enumerate(f):
        for j, b in enumerate(e):
            out[i + j] = (out[i + j] + a * b) % p
    return out


# (p, W): the slot width the F_p kernel picks for n*max_len = 100
WIDE_SLOTS = [(65537, 41), (1000003, 49), (2 ** 31 - 1, 71)]


class TestPackedFpKernel:
    def test_matches_sympy_on_sparse_matrices(self, monkeypatch):
        # the oracle: sympy's determinant of the matrix lifted to ZZ[t],
        # reduced mod p
        ring = sympy.ZZ[sympy.symbols("t")]
        kernel, divisor = algebra._det_packed_modp, algebra._PackedFp.divisor
        kernel_calls, seen_v = [], []

        def kernel_spy(rows, n, p):
            kernel_calls.append(n)
            return kernel(rows, n, p)

        def divisor_spy(self, d, precision):
            out = divisor(self, d, precision)
            seen_v.append(out[0])
            return out

        monkeypatch.setattr(algebra, "_det_packed_modp", kernel_spy)
        monkeypatch.setattr(algebra._PackedFp, "divisor", divisor_spy)
        rng = random.Random(90210)
        singular = 0
        for case in range(300):
            p = (2, 3, 5, 7, 11)[case % 5]
            n = rng.randrange(5, 15)
            kind = case % 4
            rows = sparse_fp_matrix(rng, n, p, kind)
            field = prime_field(p)
            got = determinant(PolyMatrix.from_rows(
                [[LaurentPolynomial.make(field, 0, e) for e in row]
                 for row in rows]))
            lifted = DomainMatrix(
                [[ring.ring.from_list(e[::-1]) for e in row] for row in rows],
                (n, n), ring).det()
            want = LaurentPolynomial.make(field, 0, lifted.to_dense()[::-1])
            assert got == want, (case, p, n, kind)
            if kind == 3:
                assert got.is_zero
                singular += 1
        assert singular == 75
        assert len(kernel_calls) == 300  # no early return, no other route
        assert sum(v > 0 for v in seen_v) >= 75

    def test_newton_inverse_is_cut_to_the_longest_quotient(self,
                                                         monkeypatch):
        # each pivot's inverse is grown to exactly the longest quotient
        # its step divides out, not to the step's degree bound
        divisor, divexact = algebra._PackedFp.divisor, \
            algebra._PackedFp.divexact
        longest = {}  # id of a divisor -> [its precision, longest quotient]
        divisors = []  # kept alive, so that no id is reused

        def divisor_spy(self, d, precision):
            out = divisor(self, d, precision)
            divisors.append(out)
            longest[id(out)] = [precision, 0]
            return out

        def divexact_spy(self, f, div):
            if f:
                qlen = (f.bit_length() - 1) // self.width + 1 \
                    - div[0] - div[1]
                longest[id(div)][1] = max(longest[id(div)][1], qlen)
            return divexact(self, f, div)

        monkeypatch.setattr(algebra._PackedFp, "divisor", divisor_spy)
        monkeypatch.setattr(algebra._PackedFp, "divexact", divexact_spy)
        rng = random.Random(4242)
        for case in range(40):
            p = (2, 3, 7, 65537)[case % 4]
            rows = sparse_fp_matrix(rng, rng.randrange(5, 12), p, case % 3)
            field = prime_field(p)
            determinant(PolyMatrix.from_rows(
                [[LaurentPolynomial.make(field, 0, e) for e in row]
                 for row in rows]))
        assert len(longest) > 100
        assert all(precision == qlen for precision, qlen in longest.values())

    def test_bottom_up_division(self):
        helper = algebra._PackedFp(5, 32)
        w = helper.width
        pack = algebra._pack
        # prev = t * (1 + 2t), and (3 + t) * prev = t * (3 + 2t + 2t^2)
        divisor = helper.divisor(pack([0, 1, 2], w), 4)
        assert divisor[:2] == (1, 1)
        assert [helper.divexact(helper.reduce(f), divisor)
                for f in (pack([0, 3, 2, 2], w), 0)] == [pack([3, 1], w), 0]

    def test_inexact_division_raises(self):
        helper = algebra._PackedFp(5, 32)
        w = helper.width
        pack = algebra._pack
        divisor = helper.divisor(pack([0, 1, 2], w), 4)
        # a nonzero slot below t^v
        with pytest.raises(ArithmeticError):
            helper.divexact(helper.reduce(pack([1, 3, 2, 2], w)), divisor)
        # a quotient of length <= 0: a nonzero numerator of lower degree
        # than the divisor
        with pytest.raises(ArithmeticError):
            helper.divexact(helper.reduce(pack([0, 3], w)), divisor)

    @pytest.mark.parametrize("p, width", [
        *(pytest.param(p, 32, id=str(p)) for p in (2, 3, 5, 7, 11, 8191,
                                                   18919)),
        *(pytest.param(p, w, id=f"{p}-w{w}") for p, w in WIDE_SLOTS)])
    def test_slot_reduction_matches_digitwise_mod(self, p, width):
        # 18919 is the largest prime whose 32-bit slots hold the digits of
        # a matrix with n*max_len = 1; the oracle is d % p on every
        # balanced digit, up to the 2^(W-2) bound of the class docstring
        helper = algebra._PackedFp(p, width)
        w = helper.width
        top = (1 << w - 2) - 1
        edge = [top, -top, 0, p - 1, -(p - 1)]
        rng = random.Random(p)
        for _ in range(400):
            digits = [rng.choice(edge) if rng.random() < 0.5
                      else rng.randrange(-top, top + 1)
                      for _ in range(rng.randrange(1, 61))]
            packed = sum(d << (w * i) for i, d in enumerate(digits))
            want = sum((d % p) << (w * i) for i, d in enumerate(digits))
            assert helper.reduce(packed) == want, (p, digits)

    @pytest.mark.parametrize("p, width", [(2, 32), (7, 32)] + WIDE_SLOTS)
    def test_width_is_the_least_that_bounds_the_digits(self, monkeypatch,
                                                       p, width):
        # a 10 x 10 matrix with entries of 10 coefficients: n*max_len = 100
        widths, init = [], algebra._PackedFp.__init__

        def init_spy(self, p, width):
            widths.append(width)
            init(self, p, width)

        monkeypatch.setattr(algebra._PackedFp, "__init__", init_spy)
        rows = [[[1] * 10 if i == j else [] for j in range(10)]
                for i in range(10)]
        algebra._det_packed_modp(rows, 10, p)
        bound = 2 * (p - 1) ** 2 * (10 * 10 + 2)
        assert widths == [width]
        assert bound < 1 << width - 1
        assert width == 32 or bound >= 1 << width - 2

    def test_large_primes_stay_on_the_fp_kernel(self, monkeypatch):
        # every prime up to 2^31 - 1 runs the packed F_p kernel, whose
        # slots grow with p; the oracle is sympy's determinant of the
        # matrix lifted to ZZ[t], reduced mod p.  Each prime here is above
        # 18919, the largest that fits 32-bit slots.
        ring = sympy.ZZ[sympy.symbols("t")]
        kernels = {"_det_packed_modp": [], "_det_packed_integer": []}
        for name, calls in kernels.items():
            def spy(*args, _kernel=getattr(algebra, name), _calls=calls):
                _calls.append(args[1])
                return _kernel(*args)
            monkeypatch.setattr(algebra, name, spy)
        rng, nonzero = random.Random(31337), 0
        for case in range(48):
            p = (18947, 65537, 1000003, 2 ** 31 - 1)[case % 4]
            n = rng.randrange(3, 12)
            kind = case // 4 % 4
            rows = sparse_fp_matrix(rng, n, p, kind)
            field = prime_field(p)
            got = determinant(PolyMatrix.from_rows(
                [[LaurentPolynomial.make(field, 0, e) for e in row]
                 for row in rows]))
            lifted = DomainMatrix(
                [[ring.ring.from_list(e[::-1]) for e in row] for row in rows],
                (n, n), ring).det()
            want = LaurentPolynomial.make(field, 0, lifted.to_dense()[::-1])
            assert got == want, (case, p, n, kind)
            nonzero += not got.is_zero
        assert nonzero >= 30
        assert len(kernels["_det_packed_modp"]) == 48
        assert kernels["_det_packed_integer"] == []


class TestGcdAndDivision:
    def test_gcd_cancellation(self):
        f = poly([-1, 0, 1])
        g = poly([-1, 1])
        d = poly_gcd(f, g)
        assert divexact(f, d) * d == f

    def test_divexact_field(self):
        f = poly([1, 0, 1], domain=F5) * poly([2, 3], domain=F5)
        assert divexact(f, poly([2, 3], domain=F5)) == poly([1, 0, 1],
                                                            domain=F5)

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            divexact(poly([1, 0, 1]), poly([1, 1]))

    @given(laurent(), laurent())
    @settings(max_examples=60, deadline=None)
    def test_gcd_divides_both(self, a, b):
        if a.is_zero or b.is_zero:
            return
        g = poly_gcd(a, b)
        assert divexact(a, g) * g == a
        assert divexact(b, g) * g == b


class TestRationalNormalize:
    def test_common_factor(self):
        r = rational_normalize(RationalFunction(poly([-1, 0, 1]),
                                                poly([-1, 1])))
        assert r.numerator == poly([1, 1])
        assert r.denominator == LaurentPolynomial.one()

    def test_unit_and_power(self):
        r = rational_normalize(RationalFunction(
            poly([2], min_exp=2, domain=F3), poly([4], min_exp=1, domain=F3)))
        assert r.numerator == poly([1], domain=F3)
        assert r.denominator == LaurentPolynomial.one(F3)

    def test_worked_dihedral_quotient(self):
        # the order-18 quotient: sixth powers over cubes collapses to cubes
        tp1, tm1 = poly([1, 1]), poly([-1, 1])
        f6, f3 = poly([1, -1, 1]), poly([1, 1, 1])
        num = (tp1 ** 6) * (f6 ** 6) * (tm1 ** 6) * (f3 ** 6)
        den = (tp1 ** 3) * (f6 ** 3) * (tm1 ** 3) * (f3 ** 3)
        r = rational_normalize(RationalFunction(num, den))
        assert r.denominator == LaurentPolynomial.one()
        cubes = (tp1 ** 3) * (f6 ** 3) * (tm1 ** 3) * (f3 ** 3)
        assert equal_up_to_unit(r, RationalFunction.of(cubes))
        assert r.numerator == -cubes  # lowest coefficient made positive

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(poly([1]), LaurentPolynomial.zero())


class TestEqualUpToUnit:
    def test_unit_factor_over_field(self):
        a = RationalFunction.of(poly([-1, 0, 1], domain=F5))
        b = RationalFunction.of(poly([-3, 0, 3], min_exp=2, domain=F5))
        assert equal_up_to_unit(a, b)

    def test_distinct_irreducibles(self):
        assert not equal_up_to_unit(RationalFunction.of(poly([-1, 1])),
                                    RationalFunction.of(poly([1, 1])))

    def test_worked_congruence_mod_3(self):
        lhs = RationalFunction(
            reduce_mod(poly([1, 1]) ** 18 * poly([-1, 1]) ** 18, 3),
            reduce_mod(poly([1, 1]) ** 9 * poly([-1, 1]) ** 9, 3))
        inner = RationalFunction(
            reduce_mod(poly([1, 1]) ** 2 * poly([-1, 1]) ** 2, 3),
            reduce_mod(poly([1, 1]) * poly([-1, 1]), 3))
        assert equal_up_to_unit(lhs, inner ** 9)

    @given(laurent(), st.integers(-3, 3), st.sampled_from([1, -1]))
    @settings(max_examples=60, deadline=None)
    def test_invariant_under_units(self, f, k, c):
        if f.is_zero:
            return
        a = RationalFunction.of(f)
        b = RationalFunction.of(f.shift(k).scale(c))
        assert equal_up_to_unit(a, b)

    @given(laurent(), laurent())
    @settings(max_examples=60, deadline=None)
    def test_symmetric(self, f, g):
        a, b = RationalFunction.of(f), RationalFunction.of(g)
        assert equal_up_to_unit(a, b) == equal_up_to_unit(b, a)


class TestReduceMod:
    def test_coefficient_reduction(self):
        assert reduce_mod(poly([1, -1, 1]), 3) == poly([1, 2, 1], domain=F3)

    def test_degree_collapse(self):
        assert reduce_mod(poly([1, 0, 3]), 3) == poly([1], domain=F3)

    def test_worked_identity_mod_3(self):
        lhs = reduce_mod(poly([1, 1]) ** 2 * poly([-1, 1]) ** 2, 3)
        rhs = reduce_mod(poly([1, -1, 1]) * poly([1, 1, 1]), 3)
        assert lhs == rhs

    def test_requires_prime(self):
        with pytest.raises(ValueError):
            reduce_mod(poly([1, 1]), 4)

    def test_rational_function_with_vanishing_denominator(self):
        # 3t - 3 is a nonzero integer polynomial that is 0 over F_3
        f = RationalFunction(poly([1, 1]), poly([-3, 3]))
        assert f.reduce_mod(5).denominator == poly([2, 3], domain=F5)
        with pytest.raises(ZeroDivisionError, match="vanishes mod 3"):
            f.reduce_mod(3)

    @given(laurent(), laurent(), st.sampled_from([2, 3, 5, 7]))
    @settings(max_examples=80, deadline=None)
    def test_ring_homomorphism(self, a, b, p):
        assert reduce_mod(a * b, p) == reduce_mod(a, p) * reduce_mod(b, p)
        assert reduce_mod(a + b, p) == reduce_mod(a, p) + reduce_mod(b, p)


class TestSerialization:
    def test_text_form(self):
        assert to_text(poly([1, -1, 1])) == "t^2 - t + 1"
        assert to_text(poly([2, -5, 2])) == "2*t^2 - 5*t + 2"
        assert to_text(LaurentPolynomial.zero()) == "0"
        assert to_text(poly([1], min_exp=-2)) == "t^-2"

    def test_json_roundtrip(self):
        f = poly([3, 0, -1], min_exp=-2)
        assert LaurentPolynomial.from_json(f.to_json()) == f
        assert f.to_json() == {"minExponent": -2, "coefficients": [3, 0, -1]}

    def test_rational_json_roundtrip(self):
        r = RationalFunction(poly([1, 2]), poly([-1, 1]))
        assert RationalFunction.from_json(r.to_json()) == r
