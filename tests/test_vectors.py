"""Finitely supported vectors, the modular and the Luxemburg norm."""

import random
from fractions import Fraction

import pytest

from orliczlab import (
    FiniteVector,
    LogReal,
    ZERO,
    geometric_slopes,
    identity_slopes,
    luxemburg_norm,
    make_dyadic_plf,
    modular,
    rearrange,
    slopes_from_list,
    squares_slopes,
)
from orliczlab.vectors import _prefix_norms_log2


@pytest.fixture(scope="module")
def ident():
    return make_dyadic_plf(identity_slopes())


@pytest.fixture(scope="module")
def geom():
    return make_dyadic_plf(geometric_slopes())


@pytest.fixture(scope="module")
def squares():
    return make_dyadic_plf(squares_slopes())


def random_vector(rng, max_support=50, log2_lo=-30.0, log2_hi=4.0, packed=True):
    n = rng.randint(1, max_support)
    coords = {}
    indices = range(1, n + 1) if packed else rng.sample(range(1, 4 * n + 1), n)
    for i in indices:
        coords[i] = LogReal(rng.choice([-1, 1]), rng.uniform(log2_lo, log2_hi))
    return FiniteVector(coords)


class TestFiniteVector:
    def test_drops_zeros_and_validates_indices(self):
        v = FiniteVector({1: LogReal.from_float(2.0), 3: ZERO})
        assert v.support_size == 1
        assert v.max_index == 1
        with pytest.raises(ValueError):
            FiniteVector({0: LogReal.from_float(1.0)})

    def test_parse_and_render(self):
        v = FiniteVector.parse("3 0 -2^-1")
        assert v.get(1).to_float() == 3.0
        assert v.get(2) == ZERO
        assert v.get(3).to_float() == -0.5
        again = FiniteVector.parse(v.render())
        assert again == v

    def test_head(self):
        v = FiniteVector.from_floats([1.0, 2.0, 3.0])
        assert v.head(2) == FiniteVector.from_floats([1.0, 2.0])
        assert v.head(0).is_zero

    def test_add_and_scale(self):
        a = FiniteVector.from_floats([1.0, -2.0])
        b = FiniteVector.from_floats([0.0, 2.0, 5.0])
        s = a + b
        assert s.get(2) == ZERO
        assert s.get(3).to_float() == pytest.approx(5.0, rel=1e-14)
        doubled = a.scale(LogReal.from_float(2.0))
        assert doubled.get(2).to_float() == pytest.approx(-4.0, rel=1e-14)


class TestRearrange:
    def test_sorts_magnitudes(self):
        v = FiniteVector.from_floats([0.0, -3.0, 1.0])
        assert rearrange(v) == FiniteVector.from_floats([3.0, 1.0])

    def test_zero(self):
        assert rearrange(FiniteVector({})).is_zero

    def test_ties_preserved(self):
        v = FiniteVector.from_floats([1.0, 1.0])
        assert rearrange(v) == FiniteVector.from_floats([1.0, 1.0])


class TestModular:
    def test_identity_example(self, ident):
        x = FiniteVector.from_floats([3.0, 1.0])
        got = modular(ident, x, LogReal.from_float(4.0))
        assert got.to_float() == pytest.approx(1.0, rel=1e-13)

    def test_zero_vector(self, geom):
        assert modular(geom, FiniteVector({}), LogReal.from_float(1.0)) == ZERO

    def test_geometric_closed_form(self, geom):
        # M(1/2) + M(1/4) = 1/6 + 1/24 = 5/24
        x = FiniteVector.from_floats([0.5, 0.25])
        got = modular(geom, x, LogReal.from_float(1.0))
        assert got.to_float() == pytest.approx(5.0 / 24.0, rel=1e-13)

    def test_rho_validation(self, geom):
        with pytest.raises(ValueError):
            modular(geom, FiniteVector({}), ZERO)
        with pytest.raises(ValueError):
            modular(geom, FiniteVector({}), LogReal.from_float(-1.0))


class TestLuxemburgNorm:
    def test_identity_is_l1(self, ident):
        x = FiniteVector.from_floats([3.0, 1.0])
        assert luxemburg_norm(ident, x).to_float() == pytest.approx(4.0, rel=1e-12)

    def test_geometric_basis_vector(self, geom):
        e1 = FiniteVector.from_floats([1.0])
        assert luxemburg_norm(geom, e1).to_float() == pytest.approx(0.75, rel=1e-10)

    def test_zero_vector(self, geom):
        assert luxemburg_norm(geom, FiniteVector({})) == ZERO

    def test_normalization_identity(self, squares):
        rng = random.Random(101)
        for _ in range(60):
            x = random_vector(rng, max_support=20)
            nrm = luxemburg_norm(squares, x)
            assert modular(squares, x, nrm).to_float() == pytest.approx(1.0, rel=1e-9)

    def test_homogeneity(self, squares):
        rng = random.Random(42)
        for _ in range(50):
            x = random_vector(rng, max_support=15)
            lam = LogReal(rng.choice([-1, 1]), rng.uniform(-8, 8))
            left = luxemburg_norm(squares, x.scale(lam))
            right = luxemburg_norm(squares, x) * abs(lam)
            assert left.log2mag == pytest.approx(right.log2mag, abs=1e-10)

    def test_homogeneity_pow2_on_dyadic_vectors(self, squares):
        # power-of-two scalars shift stored exponents exactly; the solves
        # re-round at the working precision
        rng = random.Random(7)
        for _ in range(30):
            coords = {
                i: LogReal(1, float(rng.randint(-20, 3))) for i in range(1, 9)
            }
            x = FiniteVector(coords)
            lam = LogReal.two_pow(rng.randint(-6, 6))
            left = luxemburg_norm(squares, x.scale(lam))
            right = luxemburg_norm(squares, x) * lam
            assert left.log2mag == pytest.approx(right.log2mag, abs=1e-12)

    def test_triangle_inequality(self, squares):
        rng = random.Random(808)
        for _ in range(1000):
            x = random_vector(rng, max_support=10, log2_lo=-12, log2_hi=3)
            y = random_vector(rng, max_support=10, log2_lo=-12, log2_hi=3)
            lhs = luxemburg_norm(squares, x + y).to_float()
            rhs = luxemburg_norm(squares, x).to_float() + luxemburg_norm(squares, y).to_float()
            assert lhs <= rhs * (1 + 1e-10)

    def test_rearrangement_invariance_exact(self, squares):
        rng = random.Random(31)
        for _ in range(50):
            x = random_vector(rng, max_support=12, packed=False)
            assert luxemburg_norm(squares, x).log2mag == luxemburg_norm(
                squares, rearrange(x)
            ).log2mag

    def test_monotonicity_in_magnitudes(self, squares):
        rng = random.Random(55)
        for _ in range(100):
            big = random_vector(rng, max_support=12)
            shrunk = {
                i: LogReal(v.sign, v.log2mag - rng.uniform(0.0, 3.0))
                for i, v in big.coords.items()
            }
            small = FiniteVector(shrunk)
            assert (
                luxemburg_norm(squares, small).log2mag
                <= luxemburg_norm(squares, big).log2mag + 1e-10
            )

    def test_extreme_scales(self, squares):
        # coordinates far below native float range
        x = FiniteVector({1: LogReal.two_pow(-2000), 2: LogReal.two_pow(-2001)})
        nrm = luxemburg_norm(squares, x)
        assert nrm.sign == 1
        assert modular(squares, x, nrm).to_float() == pytest.approx(1.0, rel=1e-9)

    def test_very_deep_scales_resolution_floor(self, geom):
        # at exponents ~1e5 the float ulp of log2 rho is about 1.5e-11; the
        # root is good to that resolution
        x = FiniteVector({1: LogReal.two_pow(-100_000), 2: LogReal.two_pow(-100_003)})
        nrm = luxemburg_norm(geom, x)
        # exponent-shift invariance: the same shape at scale 1 solves the
        # same modular equation, so the norms differ by exactly the shift
        y = FiniteVector({1: LogReal.two_pow(0), 2: LogReal.two_pow(-3)})
        want = luxemburg_norm(geom, y).log2mag - 100_000
        assert nrm.log2mag == pytest.approx(want, abs=1e-4)
        got = modular(geom, x, nrm)
        assert got.to_float() == pytest.approx(1.0, rel=1e-6)

    def test_single_coordinate_closed_form(self, squares):
        # ||c e_1|| = c / M^(-1)(1)
        c = LogReal.from_float(0.37)
        want = c.log2mag - squares.inverse(LogReal.one()).log2mag
        got = luxemburg_norm(squares, FiniteVector({1: c}))
        assert got.log2mag == pytest.approx(want, abs=1e-11)

    def test_against_independent_mpmath_solver(self, squares, geom):
        # full independent route: 60-digit breakpoint sums, exact segment
        # evaluation and mpmath root finding on the modular
        import mpmath as mp

        def mp_M(log2b, t):
            if t <= 0:
                return mp.mpf(0)
            n = max(0, int(mp.floor(-mp.log(t, 2))))
            if t > mp.mpf(2) ** (-n):
                n = max(0, n - 1)
            left = mp.mpf(2) ** (-n - 1)
            tail = sum(mp.mpf(2) ** (log2b(j) - j - 1) for j in range(n + 1, n + 200))
            return tail + mp.mpf(2) ** log2b(n) * (mp.mpf(t) - left)

        cases = [
            (squares, squares_slopes().log2_slope, [0.9, 0.25, 0.03]),
            (geom, geometric_slopes().log2_slope, [0.6, 0.11]),
            (squares, squares_slopes().log2_slope, [1.7, 0.5, 0.5, 0.001]),
        ]
        for M, log2b, coords in cases:
            got = luxemburg_norm(M, FiniteVector.from_floats(coords)).to_float()
            modular_mp = lambda rho: sum(mp_M(log2b, abs(a) / rho) for a in coords) - 1
            with mp.workdps(60):
                want = mp.findroot(modular_mp, mp.mpf(got))
            assert got == pytest.approx(float(want), rel=1e-11)


def exact_newton_norm(exps, coords):
    """Exact Luxemburg norm for slopes b(n) = 2^-exps[min(n, L - 1)].

    Runs the same Newton iteration as the library on Fractions, from the
    right: on segment n, M(t) = M(2^(-n-1)) + b(n) (t - 2^(-n-1)), and the
    breakpoint values are finite sums plus the constant-tail term.
    """
    L = len(exps)

    def b(n):
        return Fraction(1, 2 ** exps[min(n, L - 1)])

    def m_left(n):
        # M(2^(-n-1)) = sum_{j > n} b(j) 2^(-j-1)
        m = n + 1
        return sum((b(j) / 2 ** (j + 1) for j in range(m, L - 1)), Fraction(0)) + b(
            L - 1
        ) / 2 ** max(m, L - 1)

    def segment(t):
        n = 0
        while t < Fraction(1, 2 ** (n + 1)):
            n += 1
        return n

    a = [abs(c) for c in coords]
    # the ray through M(1/2) with slope b(0) reaches 1 at t = (1 - c(0)) / b(0)
    s = (1 - m_left(0) + b(0) / 2) / (b(0) * max(a))
    while True:
        C = B = Fraction(0)
        for ai in a:
            n = segment(ai * s)
            C += m_left(n) - b(n) / 2 ** (n + 1)
            B += b(n) * ai
        nxt = (1 - C) / B
        assert nxt <= s
        if nxt == s:
            return 1 / s
        s = nxt


def dyadic_case(rng):
    exps = [0]
    for _ in range(rng.randint(1, 10)):
        exps.append(exps[-1] + rng.randint(0, 4))
    coords = [
        rng.choice((-1, 1)) * Fraction(rng.randint(1, 2 ** 20), 2 ** rng.randint(0, 40))
        for _ in range(rng.randint(1, 25))
    ]
    M = make_dyadic_plf(slopes_from_list([LogReal.two_pow(-e) for e in exps]))
    return exps, coords, M, FiniteVector.from_floats([float(c) for c in coords])


class TestNewtonExactness:
    def test_matches_exact_rational_newton(self):
        rng = random.Random(2024)
        for _ in range(50):
            exps, coords, M, x = dyadic_case(rng)
            want = float(exact_newton_norm(exps, coords))
            assert luxemburg_norm(M, x).to_float() == pytest.approx(want, rel=1e-14, abs=0)

    def test_warm_prefix_walk_matches_cold_solves(self):
        rng = random.Random(77)
        for _ in range(50):
            _, _, M, x = dyadic_case(rng)
            packed = rearrange(x)
            walk = _prefix_norms_log2(M, x.sorted_log2_magnitudes())
            for k, got in enumerate(walk, start=1):
                cold = luxemburg_norm(M, packed.head(k)).to_float()
                assert 2.0 ** got == pytest.approx(cold, rel=1e-14, abs=0)
