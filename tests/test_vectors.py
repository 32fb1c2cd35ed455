"""Finitely supported vectors, the modular and the Luxemburg norm."""

import math
import random
import time
import types
from fractions import Fraction
from itertools import accumulate
from operator import add

import pytest

from orliczlab import (
    DyadicOrliczFunction,
    EtaSequence,
    FiniteVector,
    LogReal,
    ZERO,
    gen_sequences,
    geometric_slopes,
    greedy_nk,
    growth_index,
    head_attainment_index,
    identity_slopes,
    luxemburg_norm,
    make_dyadic_plf,
    modular,
    rearrange,
    slopes_from_list,
    slopes_pow2_poly,
    squares_slopes,
    triple_norm,
)
from orliczlab import counterexample as counterexample_mod
from orliczlab import renorm as renorm_mod
from orliczlab import vectors as vectors_mod
from orliczlab.counterexample import default_probe_t


@pytest.fixture(scope="module")
def ident():
    return make_dyadic_plf(identity_slopes())


@pytest.fixture(scope="module")
def geom():
    return make_dyadic_plf(geometric_slopes())


@pytest.fixture(scope="module")
def squares():
    return make_dyadic_plf(squares_slopes())


def all_prefix_norms(M, sorted_log2):
    """log2 norms of every prefix, from the module's walk as it stands (so a
    patched walk serves too)."""
    return list(vectors_mod._prefix_norms(M, sorted_log2))


def record(x):
    """The stored lists of x, which is what two equal vectors share."""
    return x.indices, x.signs, x.log2mags, x.sorted_log2_magnitudes()


def scaled(x, lam):
    """lam x, by LogReal products of the coordinates."""
    return FiniteVector({i: v * lam for i, v in x.coords.items()})


def added(x, y):
    """x + y, by LogReal sums of the coordinates."""
    out = x.coords
    for i, v in y.coords.items():
        out[i] = out.get(i, ZERO) + v
    return FiniteVector(out)


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
        assert record(again) == record(v)

    def test_head(self):
        v = FiniteVector.from_floats([1.0, 2.0, 3.0])
        assert record(v.head(2)) == record(FiniteVector.from_floats([1.0, 2.0]))
        assert v.head(0).is_zero


class TestRearrange:
    def test_sorts_magnitudes(self):
        v = FiniteVector.from_floats([0.0, -3.0, 1.0])
        assert record(rearrange(v)) == record(FiniteVector.from_floats([3.0, 1.0]))

    def test_zero(self):
        assert rearrange(FiniteVector({})).is_zero

    def test_ties_preserved(self):
        v = FiniteVector.from_floats([1.0, 1.0])
        assert record(rearrange(v)) == record(FiniteVector.from_floats([1.0, 1.0]))


class TestRecordMatchesLogRealRoute:
    """from_floats, head and rearrange write the lists directly; the mapping
    constructor builds them from LogReal values.  Both must agree."""

    @staticmethod
    def float_lists():
        rng = random.Random(15)
        pool = [0.0, -0.0, 5e-324, -5e-324, 2.0 ** -1022, 1.5 * 2.0 ** -1060,
                2.0 ** -1000, -(2.0 ** 1000), 1.75 * 2.0 ** 1001, 1.0, -1.0]
        for _ in range(200):
            xs = []
            for _ in range(rng.randint(0, 20)):
                pick = rng.random()
                if pick < 0.3:
                    xs.append(rng.choice(pool))
                elif pick < 0.5 and xs:
                    xs.append(rng.choice((-1.0, 1.0)) * abs(rng.choice(xs)))  # a repeated magnitude
                else:
                    xs.append(rng.choice((-1.0, 1.0)) * 2.0 ** rng.uniform(-1070.0, 1020.0))
            yield xs

    @staticmethod
    def views(x):
        return record(x), x.coords, x.render(), x.max_index, x.support_size

    def test_from_floats_head_and_rearrange(self):
        cases = 0
        for xs in self.float_lists():
            got = FiniteVector.from_floats(xs)
            want = FiniteVector({i: LogReal.from_float(v) for i, v in enumerate(xs, start=1)})
            assert self.views(got) == self.views(want)
            for m in range(len(xs) + 2):
                assert self.views(got.head(m)) == self.views(
                    FiniteVector({i: v for i, v in want.coords.items() if i <= m})
                )
            packed = FiniteVector(
                {i: LogReal(1, v) for i, v in enumerate(want.sorted_log2_magnitudes(), start=1)}
            )
            assert self.views(rearrange(got)) == self.views(packed)
            cases += len(xs)
        assert cases > 1000

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nan_and_inf_raise_on_both_routes(self, bad):
        with pytest.raises(ValueError, match="cannot represent"):
            FiniteVector.from_floats([1.0, bad])
        with pytest.raises(ValueError, match="cannot represent"):
            FiniteVector({1: LogReal.from_float(1.0), 2: LogReal.from_float(bad)})


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

    @pytest.mark.parametrize("offset", [0.0, 3000.0, -3000.0])
    def test_matches_logreal_sum(self, geom, offset):
        """The float sum in a frame against the LogReal log-sum-exp it replaced."""
        rng = random.Random(f"modular-{offset}")
        squares = make_dyadic_plf(squares_slopes())
        for M in (geom, squares):
            for _ in range(100):
                x = FiniteVector({i: LogReal(rng.choice([-1, 1]), offset + rng.uniform(-30.0, 5.0))
                                  for i in range(1, rng.randint(1, 30) + 1)})
                rho = LogReal(1, offset + rng.uniform(-10.0, 10.0))
                want = ZERO
                for v in x.coords.values():
                    want = want + LogReal.from_log2(M.eval_log2((abs(v) / rho).log2mag))
                got = modular(M, x, rho)
                assert abs(got.log2mag - want.log2mag) <= 4e-15 * max(1.0, abs(want.log2mag))

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
            left = luxemburg_norm(squares, scaled(x, lam))
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
            left = luxemburg_norm(squares, scaled(x, lam))
            right = luxemburg_norm(squares, x) * lam
            assert left.log2mag == pytest.approx(right.log2mag, abs=1e-12)

    def test_triangle_inequality(self, squares):
        rng = random.Random(808)
        for _ in range(1000):
            x = random_vector(rng, max_support=10, log2_lo=-12, log2_hi=3)
            y = random_vector(rng, max_support=10, log2_lo=-12, log2_hi=3)
            lhs = luxemburg_norm(squares, added(x, y)).to_float()
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
        want = c.log2mag - squares.inverse_log2(0.0)
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
            walk = all_prefix_norms(M, x.sorted_log2_magnitudes())
            for k, got in enumerate(walk, start=1):
                cold = luxemburg_norm(M, packed.head(k)).to_float()
                assert 2.0 ** got == pytest.approx(cold, rel=1e-14, abs=0)


# -- the walk against a full re-solve of every prefix ------------------------
#
# The reference below re-solves each prefix from the previous root and
# recomputes every term at every step.  The walk must give the same bits and
# leave the same tables, so the two run on twin gauges and every result, and
# finally the tables themselves, compare with ==.


def _resolve_last_steps(M, rel, s_log2):
    """The last two steps of the re-solve from s_log2: the s at which the
    final segments are taken, and the step from them, the first that does
    not fall."""
    nxt = _resolve_step_log2(M, rel, s_log2)
    while True:
        s_log2, nxt = nxt, _resolve_step_log2(M, rel, nxt)
        if not nxt < s_log2:
            return s_log2, nxt


def _resolve_root_log2(M, rel, s_log2):
    return _resolve_last_steps(M, rel, s_log2)[1]


def _resolve_step_log2(M, rel, s_log2):
    logb, logM = M.segment_tables(max(0, math.floor(-s_log2 - rel[-1])) + 1)
    n1 = max(0, math.floor(-s_log2))
    top = logb[n1]
    scale = max(0.0, top - n1 - 1)
    neg_c = []
    b_terms = []
    for r in rel:
        n = math.floor(-s_log2 - r)
        if n < 0:
            n = 0
        lb = logb[n]
        neg_c.append(2.0 ** (lb - n - 1 - scale) - 2.0 ** (logM[n + 1] - scale))
        b_terms.append(2.0 ** (lb - top + r))
    return (scale + math.log2(2.0 ** -scale + math.fsum(neg_c))
            - math.log2(math.fsum(b_terms)) - top)


def _resolve_norm_log2(M, sorted_log2):
    top = sorted_log2[0]
    return top - _resolve_root_log2(M, [v - top for v in sorted_log2], M.inverse_log2(0.0))


def _resolve_prefix_norms_log2(M, sorted_log2):
    if not sorted_log2:
        return []
    top = sorted_log2[0]
    rel = [v - top for v in sorted_log2]
    s_log2 = M.inverse_log2(0.0)
    out = []
    for k in range(1, len(rel) + 1):
        s_log2 = _resolve_root_log2(M, rel[:k], s_log2)
        out.append(top - s_log2)
    return out


def _resolve_prefix_norms(M, sorted_log2):
    return iter(_resolve_prefix_norms_log2(M, sorted_log2))


GOLDEN_GAUGES = {
    "squares": squares_slopes,
    "geometric": geometric_slopes,
    "identity": identity_slopes,
    "counterexample45": lambda: gen_sequences(45).slopes(),
    "pow2_list": lambda: slopes_from_list(
        [LogReal.two_pow(-e) for e in (0, 1, 3, 6, 10, 15, 21, 28)]
    ),
    # log2 slopes off the integers, so the frame's scaling is not exact
    "pow2_poly_fractional": lambda: slopes_pow2_poly(0.37, 0.61, 0.13),
}


class TestWalkMatchesPerPrefixResolve:
    @pytest.fixture
    def resolve(self, monkeypatch):
        """Run a callable with every solver entry point on the reference."""

        def run(fn, *args):
            with monkeypatch.context() as patch:
                for module, name, ref in (
                    (vectors_mod, "_norm_log2", _resolve_norm_log2),
                    (vectors_mod, "_prefix_norms", _resolve_prefix_norms),
                    (renorm_mod, "_norm_log2", _resolve_norm_log2),
                    (renorm_mod, "_prefix_norms", _resolve_prefix_norms),
                    (counterexample_mod, "_norm_log2", _resolve_norm_log2),
                ):
                    patch.setattr(module, name, ref)
                return fn(*args)

        return run

    @staticmethod
    def observe(M, eta, x):
        sl = x.sorted_log2_magnitudes()
        value, attaining = triple_norm(M, eta, x)
        m = head_attainment_index(M, eta, x)
        truncated = [triple_norm(M, eta, x.head(j))[0].log2mag for j in (m - 1, m, x.max_index)]
        return (
            all_prefix_norms(M, sl),
            vectors_mod._norm_log2(M, sl),
            luxemburg_norm(M, x).log2mag,
            value.log2mag,
            attaining,
            m,
            truncated,
            growth_index(M, eta, rearrange(x)),
        )

    @staticmethod
    def vectors(rng, count, sizes):
        for _ in range(count):
            n = rng.choice(sizes)
            lo = rng.choice((-60.0, -30.0, -8.0, 3.0))
            indices = sorted(rng.sample(range(1, 3 * n + 1), n))
            yield FiniteVector(
                {i: LogReal(rng.choice((-1, 1)), rng.uniform(lo, 4.0)) for i in indices}
            )

    @pytest.mark.parametrize("gauge", sorted(GOLDEN_GAUGES))
    def test_shared_and_fresh_tables(self, gauge, resolve):
        rng = random.Random(f"walk-{gauge}")
        eta = EtaSequence.one_plus_pow2()
        make = GOLDEN_GAUGES[gauge]
        # twin gauges that see the same requests in the same order
        walk_M, ref_M = make_dyadic_plf(make()), make_dyadic_plf(make())
        for x in self.vectors(rng, 30, range(1, 61)):
            got = self.observe(walk_M, eta, x)
            assert got == resolve(self.observe, ref_M, eta, x)
            # the truncation at m holds head `attaining` with its bits, and
            # the one before m falls short
            before, at_m, full = got[6]
            assert at_m >= full == got[3] and before < full
        # a fresh gauge per vector: the walk extends the tables while it runs
        for x in self.vectors(rng, 6, range(1, 61)):
            walk_fresh, ref_fresh = make_dyadic_plf(make()), make_dyadic_plf(make())
            assert self.observe(walk_fresh, eta, x) == resolve(self.observe, ref_fresh, eta, x)
            assert walk_fresh.segment_tables(0) == ref_fresh.segment_tables(0)
        assert walk_M.segment_tables(0) == ref_M.segment_tables(0)

    def test_wide_supports(self, resolve):
        rng = random.Random(800)
        ref_M = make_dyadic_plf(squares_slopes())
        walk_M = make_dyadic_plf(squares_slopes())
        for n in (200, 800):
            sl = sorted((rng.uniform(-60.0, 4.0) for _ in range(n)), reverse=True)
            got = (all_prefix_norms(walk_M, sl), vectors_mod._norm_log2(walk_M, sl))
            assert got == resolve(
                lambda: (all_prefix_norms(ref_M, sl), vectors_mod._norm_log2(ref_M, sl))
            )
        assert walk_M.segment_tables(0) == ref_M.segment_tables(0)

    def test_greedy_trace(self, resolve):
        eta = EtaSequence.one_plus_pow2()
        for make, alpha, depth in (
            (lambda: gen_sequences(45).make_function(), LogReal.one(), 30),
            (lambda: make_dyadic_plf(identity_slopes()), LogReal.from_float(1.5), 6),
        ):
            got = greedy_nk(make(), eta, alpha, default_probe_t, depth)
            assert got == resolve(greedy_nk, make(), eta, alpha, default_probe_t, depth)

    @staticmethod
    def threshold_vectors(M, rng):
        """Integer and all-equal log2 magnitudes, each also with a tail at -s - m.

        s is the head's root, and M at the tail points is too small to move
        it, so -s - rel[i] is an integer for every tail point.
        """
        heads = [[0.0] + [float(rng.randint(-12, 0)) for _ in range(n - 1)] for n in range(1, 41)]
        heads += [[0.0] * n for n in (1, 2, 3, 4, 7, 8, 16, 31, 32, 64, 70)]
        for head in heads:
            rel = sorted(head, reverse=True)
            s = M.inverse_log2(0.0)
            for k in range(1, len(rel) + 1):
                s = _resolve_root_log2(M, rel[:k], s)
            for mags in (head, head + [-s - m for m in range(60, 64)]):
                indices = sorted(rng.sample(range(1, 2 * len(mags) + 1), len(mags)))
                yield FiniteVector(
                    {i: LogReal(rng.choice((-1, 1)), e) for i, e in zip(indices, mags)}
                )

    @pytest.mark.parametrize("gauge", ["identity", "pow2_list"])
    def test_roots_on_exact_thresholds(self, gauge, resolve):
        eta = EtaSequence.one_plus_pow2()
        make = GOLDEN_GAUGES[gauge]
        walk_M, ref_M = make_dyadic_plf(make()), make_dyadic_plf(make())
        on_threshold = 0
        for x in self.threshold_vectors(ref_M, random.Random(f"thresholds-{gauge}")):
            assert self.observe(walk_M, eta, x) == resolve(self.observe, ref_M, eta, x)
            sl = x.sorted_log2_magnitudes()
            rel = [v - sl[0] for v in sl]
            walk = vectors_mod._NewtonWalk(walk_M, walk_M.inverse_log2(0.0))
            for k, r in enumerate(rel, start=1):
                s = walk.root((r,))
                # a prefix root where some point sits exactly on a segment threshold
                on_threshold += any(-s - q >= 1 and (-s - q).is_integer() for q in rel[:k])
        assert walk_M.segment_tables(0) == ref_M.segment_tables(0)
        assert on_threshold >= 200

    @pytest.mark.parametrize("gauge", ["counterexample45", "pow2_poly_fractional"])
    def test_cold_start_step_that_rises(self, gauge, resolve):
        eta = EtaSequence.one_plus_pow2()
        make = GOLDEN_GAUGES[gauge]
        walk_M, ref_M = make_dyadic_plf(make()), make_dyadic_plf(make())
        s0 = walk_M.inverse_log2(0.0)
        # the first step from the rounded M^(-1)(1) raises s by a few ulps
        assert _resolve_step_log2(ref_M, [0.0], s0) > s0
        assert _resolve_step_log2(ref_M, [0.0, -s0 - 60.0], s0) > s0
        rng = random.Random(f"rise-{gauge}")
        cases = [FiniteVector({1: LogReal(1, 3.0), 2: LogReal(-1, 3.0 - s0 - m)}) for m in range(1, 70)]
        cases += list(self.vectors(rng, 20, range(1, 41)))
        cases += list(self.threshold_vectors(ref_M, rng))
        for x in cases:
            sl = x.sorted_log2_magnitudes()
            assert vectors_mod._norm_log2(walk_M, sl) == resolve(vectors_mod._norm_log2, ref_M, sl)
            assert self.observe(walk_M, eta, x) == resolve(self.observe, ref_M, eta, x)
        assert walk_M.segment_tables(0) == ref_M.segment_tables(0)

    def test_no_pass_without_a_move(self, monkeypatch):
        """All prefix norms at N = 3 200 take O(N) floor calls, not O(N^2).

        Each prefix root makes 1 (the new point's segment); only a step that
        moves a segment, or that rises, pays the O(k) re-segmentation pass.
        Measured: 3 317 calls on this input; a pass after every step makes
        5 128 117.
        """
        rng = random.Random(3200)
        sl = sorted((rng.uniform(-60.0, 4.0) for _ in range(3200)), reverse=True)
        calls = 0

        def counting_floor(v):
            nonlocal calls
            calls += 1
            return math.floor(v)

        fake = types.SimpleNamespace(**vars(math))
        fake.floor = counting_floor
        M = make_dyadic_plf(squares_slopes())
        want = _resolve_prefix_norms_log2(M, sl[:200])
        monkeypatch.setattr(vectors_mod, "math", fake)
        got = all_prefix_norms(M, sl)
        assert calls <= 3 * len(sl)
        assert got[:200] == want


def _fraction_log2(q):
    """log2 of a positive Fraction, with one rounding of a value in (1/2, 2)."""
    e = q.numerator.bit_length() - q.denominator.bit_length()
    return e + math.log2(q / Fraction(2) ** e)


class TestOneNormOnEveryRoute:
    """The cold root of a list and the last root of its prefix walk are one
    value: every walk returns the step from its final segments."""

    @staticmethod
    def routes(gauge):
        """3 000 lists of 2..80 log2 magnitudes, uniform on [-40, 3]."""
        rng = random.Random("routes-" + gauge)
        for _ in range(3000):
            n = rng.randint(2, 80)
            yield sorted((rng.uniform(-40.0, 3.0) for _ in range(n)), reverse=True)

    @pytest.mark.parametrize("gauge", sorted(GOLDEN_GAUGES))
    def test_cold_root_is_the_last_prefix_root(self, gauge):
        # before the walk returned its final step, 20 of these differed:
        # 12 on `geometric`, 5 on `squares` and 3 on `pow2_poly_fractional`
        M = make_dyadic_plf(GOLDEN_GAUGES[gauge]())
        for sl in self.routes(gauge):
            assert vectors_mod._norm_log2(M, sl) == all_prefix_norms(M, sl)[-1], sl

    @pytest.mark.parametrize("gauge", ["geometric", "identity", "pow2_list", "squares"])
    def test_a_final_step_that_rises_is_the_exact_segment_root(self, gauge):
        """Where the last step does not fall from the s before it, the root is
        that step, and it is rho = B / (1 - C) of its final segments.

        On these gauges every b(n) is a power of two, so the segment lines
        are exact in Fractions, with a_i = 2.0 ** rel_i and M(2^-n) summed
        to slope 127 (the rest is below 2^-63 of it for n < 64).  Each point's
        |a_i| / rho lies in its segment, so rho is the exact root of the
        modular, and the walk's value is within the rounding of its terms:
        their exponents are below 2^12 in magnitude here, so each term is
        within 2^-41 of exact, B within 2^-41 and 1 - C within 2^-40 (each
        -c(n) is at most b(n) t_i), which is 2^-37 in log2 with room.
        Measured: 34 such roots on `geometric` and 6 on `squares`, all within
        2^-51 of exact.
        """
        slopes = GOLDEN_GAUGES[gauge]()
        M = make_dyadic_plf(slopes)
        b = [Fraction(2) ** round(slopes.log2_slope(n)) for n in range(128)]
        # bp[n] = M(2^-n) for n < 64
        bp = list(accumulate((b[j] / 2 ** (j + 1) for j in reversed(range(128))), add))
        bp.reverse()
        rises = 0
        for sl in self.routes(gauge):
            rel = [v - sl[0] for v in sl]
            before, root = _resolve_last_steps(M, rel, M.inverse_log2(0.0))
            assert vectors_mod._norm_log2(M, sl) == sl[0] - root
            if before == root:
                continue
            rises += 1
            assert root > before
            seg = [max(0, math.floor(-before - r)) for r in rel]
            assert seg[-1] < 63
            a = [Fraction(2.0 ** r) for r in rel]
            C = sum((bp[n + 1] - b[n] / 2 ** (n + 1) for n in seg), Fraction(0))
            B = sum((b[n] * ai for ai, n in zip(a, seg)), Fraction(0))
            s_exact = (1 - C) / B
            assert abs(root - _fraction_log2(s_exact)) < 2.0 ** -37
            for ai, n in zip(a, seg):
                t = ai * s_exact
                assert Fraction(1, 2 ** (n + 1)) <= t and (n == 0 or t <= Fraction(1, 2 ** n))
        assert rises == {"geometric": 34, "squares": 6}.get(gauge, 0)


class TestPrefixRoots:
    @staticmethod
    def rel_lists(M, gauge):
        """Random, threshold and rising cold-start inputs, as log2 magnitudes relative to the top."""
        rng = random.Random(f"prefix-roots-{gauge}")
        s0 = M.inverse_log2(0.0)
        cases = [FiniteVector({1: LogReal(1, 3.0), 2: LogReal(-1, 3.0 - s0 - m)}) for m in range(1, 70)]
        cases += list(TestWalkMatchesPerPrefixResolve.vectors(rng, 30, range(1, 61)))
        cases += list(TestWalkMatchesPerPrefixResolve.threshold_vectors(M, rng))
        for x in cases:
            sl = x.sorted_log2_magnitudes()
            yield [v - sl[0] for v in sl]

    @staticmethod
    def state(walk):
        return (walk.s, walk.seg, walk.reach, walk.n1, walk.neg_c, walk.b_terms)

    @pytest.mark.parametrize("gauge", sorted(GOLDEN_GAUGES))
    def test_matches_one_root_per_prefix(self, gauge):
        make = GOLDEN_GAUGES[gauge]
        walk_M, root_M = make_dyadic_plf(make()), make_dyadic_plf(make())
        for rel in self.rel_lists(make_dyadic_plf(make()), gauge):
            walk = vectors_mod._NewtonWalk(walk_M, walk_M.inverse_log2(0.0))
            other = vectors_mod._NewtonWalk(root_M, root_M.inverse_log2(0.0))
            assert list(walk.prefix_roots(rel)) == [other.root((r,)) for r in rel]
            assert self.state(walk) == self.state(other)
        assert walk_M.segment_tables(0) == root_M.segment_tables(0)

    @pytest.mark.parametrize("make", [squares_slopes, geometric_slopes])
    def test_few_table_requests(self, make, monkeypatch):
        """All prefix norms at N = 3 200 ask for the tables only when they must deepen.

        Measured: 11 requests on `squares` and 46 on `geometric` for this
        input; one request per prefix root makes 3 206 and 3 241.
        """
        rng = random.Random(3200)
        sl = sorted((rng.uniform(-60.0, 4.0) for _ in range(3200)), reverse=True)
        M = make_dyadic_plf(make())
        want = _resolve_prefix_norms_log2(make_dyadic_plf(make()), sl[:200])
        calls = 0
        tables = DyadicOrliczFunction.segment_tables

        def counting(self, depth):
            nonlocal calls
            calls += 1
            return tables(self, depth)

        monkeypatch.setattr(DyadicOrliczFunction, "segment_tables", counting)
        got = all_prefix_norms(M, sl)
        assert calls <= 100
        assert got[:200] == want


class TestUnderflowHorizon:
    @staticmethod
    def straddling(M, rng):
        """Relative log2 magnitudes whose tails lie from 1 070 to 1 090 binades down.

        Some tails are uniform, and some sit on the segment thresholds -s - m
        of the head's root s.
        """
        for _ in range(40):
            head = [0.0] + sorted((rng.uniform(-30.0, 0.0) for _ in range(rng.randint(0, 12))),
                                  reverse=True)
            tail = sorted((rng.uniform(-1090.0, -1070.0) for _ in range(rng.randint(1, 12))),
                          reverse=True)
            yield head + tail
        for n in (1, 2, 3, 5, 8):
            head = [0.0] + [float(rng.randint(-8, 0)) for _ in range(n - 1)]
            head.sort(reverse=True)
            s = M.inverse_log2(0.0)
            for k in range(1, len(head) + 1):
                s = _resolve_root_log2(M, head[:k], s)
            yield head + [-s - m for m in range(1070, 1091)]

    @pytest.mark.parametrize("gauge", sorted(GOLDEN_GAUGES))
    def test_straddling_tails_match_per_prefix_resolve(self, gauge):
        make = GOLDEN_GAUGES[gauge]
        walk_M, ref_M = make_dyadic_plf(make()), make_dyadic_plf(make())
        rng = random.Random(f"horizon-{gauge}")
        for rel in self.straddling(make_dyadic_plf(make()), rng):
            sl = [v + 5.0 for v in rel]
            want = _resolve_prefix_norms_log2(ref_M, sl)
            assert all_prefix_norms(walk_M, sl) == want
            assert vectors_mod._norm_log2(walk_M, sl) == _resolve_norm_log2(ref_M, sl)

    @pytest.mark.parametrize("e", [3_000_000, 5_000_000])
    def test_tiny_coordinate_builds_no_deep_table(self, e):
        # no table down to the point's segment: 3 000 000 entries take
        # 381 MB, and 5 000 000 lie past the table cap
        M = make_dyadic_plf(squares_slopes())
        eta = EtaSequence.one_plus_pow2()
        one = FiniteVector({1: LogReal.one()})
        x = FiniteVector({1: LogReal.one(), 2: LogReal.two_pow(-e)})
        assert luxemburg_norm(M, x) == luxemburg_norm(M, one)
        assert triple_norm(M, eta, x)[0] == triple_norm(M, eta, one)[0]
        assert all_prefix_norms(M, [0.0, -e]) == 2 * all_prefix_norms(M, [0.0])
        # the tables are still those of a fresh function
        assert M.segment_tables(0) == make_dyadic_plf(squares_slopes()).segment_tables(0)

    @staticmethod
    def modular_of_every_term(M, x, rho):
        """`modular` with M evaluated at every coordinate, however far down."""
        logs = [M.eval_log2(v - rho.log2mag) for v in x.sorted_log2_magnitudes()]
        top = max(logs)
        return LogReal.from_log2(top + math.log2(math.fsum(2.0 ** (v - top) for v in logs)))

    @pytest.mark.parametrize("gauge", sorted(GOLDEN_GAUGES))
    def test_straddling_tails_keep_the_modular(self, gauge):
        M = make_dyadic_plf(GOLDEN_GAUGES[gauge]())
        rng = random.Random(f"modular-horizon-{gauge}")
        cut = 0
        for rel in self.straddling(M, rng):
            x = FiniteVector._from_lists(range(1, len(rel) + 1), [1] * len(rel),
                                         [v + 5.0 for v in rel])
            cut += rel[-1] < vectors_mod._HORIZON
            for rho in (luxemburg_norm(M, x), LogReal.two_pow(rng.uniform(-20.0, 8.0))):
                assert modular(M, x, rho) == self.modular_of_every_term(M, x, rho)
        assert cut > 0

    @pytest.mark.parametrize("e", [3_000_000, 5_000_000])
    def test_modular_builds_no_deep_table(self, e):
        M = make_dyadic_plf(squares_slopes())
        one = FiniteVector({1: LogReal.one()})
        x = FiniteVector({1: LogReal.one(), 2: LogReal.two_pow(-e)})
        rho = luxemburg_norm(M, x)
        start = time.perf_counter()
        got = modular(M, x, rho)
        assert time.perf_counter() - start < 0.1
        assert got == modular(M, one, rho)
        assert M.segment_tables(0) == make_dyadic_plf(squares_slopes()).segment_tables(0)

    @pytest.mark.parametrize("gauge", sorted(GOLDEN_GAUGES))
    def test_settle_matches_appended_far_points(self, gauge):
        """Settling from the held terms gives the roots `prefix_roots` gives for
        points past the horizon, also from a held s that the step moves off."""
        make = GOLDEN_GAUGES[gauge]
        M = make_dyadic_plf(make())
        rng = random.Random(f"far-points-{gauge}")
        moved = 0
        for _ in range(30):
            rel = [0.0] + sorted((rng.uniform(-30.0, 0.0) for _ in range(rng.randint(0, 12))),
                                 reverse=True)
            for ulps in (-2, -1, 0, 1, 2):
                far, zero = (vectors_mod._NewtonWalk(M, M.inverse_log2(0.0)) for _ in range(2))
                for walk in (far, zero):
                    list(walk.prefix_roots(rel))
                    for _ in range(abs(ulps)):
                        walk.s = math.nextafter(walk.s, math.copysign(math.inf, ulps))
                moved += zero._step() != zero.s
                want = list(far.prefix_roots([-2000.0, -2001.0, -3000.0]))
                assert want == [zero._settle(zero.s, zero._step()) for _ in range(3)]
        assert moved > 0
