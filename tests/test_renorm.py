"""Renorm scheme construction: b_k, eta feasibility, weighted-head norm."""

import math
import random

import pytest

from orliczlab import (
    EtaInfeasibleError,
    EtaSequence,
    FiniteVector,
    LogReal,
    ZERO,
    build_eta,
    build_renorm_scheme,
    compute_bk,
    compute_bk_at_scale,
    gen_sequences,
    geometric_slopes,
    growth_index,
    head_attainment_index,
    identity_slopes,
    luxemburg_norm,
    make_dyadic_plf,
    rearrange,
    slopes_pow2_poly,
    triple_norm,
)
from orliczlab import renorm as renorm_mod
from orliczlab import squares_slopes
from orliczlab.vectors import _prefix_norms


def scaled(x, lam):
    """lam x, by LogReal products of the coordinates."""
    return FiniteVector({i: v * lam for i, v in x.coords.items()})


def added(x, y):
    """x + y, by LogReal sums of the coordinates."""
    out = x.coords
    for i, v in y.coords.items():
        out[i] = out.get(i, ZERO) + v
    return FiniteVector(out)


class _UncheckedEta(EtaSequence):
    """An eta rule tabulated without the check that it decreases above 1."""

    def ensure_valid(self, upto):
        table = self._table
        if upto >= len(table):
            self._table = table = table + [self._log2_fn(k) for k in range(len(table), upto + 1)]
        return table


@pytest.fixture(scope="module")
def ident():
    return make_dyadic_plf(identity_slopes())


@pytest.fixture(scope="module")
def geom():
    return make_dyadic_plf(geometric_slopes())


@pytest.fixture(scope="module")
def squares():
    return make_dyadic_plf(squares_slopes())


@pytest.fixture(scope="module")
def eta_pow2():
    return EtaSequence.one_plus_pow2()


class TestComputeBk:
    def test_identity_k4(self, ident):
        # M^(-1)(1/4) = 1/4 sits in the region where the doubling ratio is 2
        bv = compute_bk(ident, 1, 4)
        assert bv.infimum.to_float() == pytest.approx(2.0, rel=1e-12)
        assert bv.trend != "inconclusive"

    def test_geometric_large_k(self, geom):
        bv = compute_bk(geom, 1, 1000)
        assert bv.infimum.to_float() == pytest.approx(4.0, rel=1e-12)

    def test_nondecreasing_in_k(self, squares):
        prev = -math.inf
        for k in (1, 2, 4, 8, 16, 64, 256, 4096, 10**6):
            bv = compute_bk(squares, 1, k)
            assert bv.infimum.log2mag >= prev - 1e-12
            prev = bv.infimum.log2mag

    def test_scale_indexed_matches_dyadic_ratios(self, squares):
        # for this fixture the k-th dyadic-scale infimum is the breakpoint
        # ratio at depth k; oracle via 60-digit tail sums
        import mpmath as mp

        def bp(n):
            return sum(mp.mpf(2) ** (-(j * j) - j - 1) for j in range(n, n + 80))

        for k in (2, 5, 11, 41):
            bv = compute_bk_at_scale(squares, 1, k)
            with mp.workdps(60):
                want = float(mp.log(bp(k - 1) / bp(k), 2))
            assert bv.infimum.log2mag == pytest.approx(want, abs=1e-10)

    def test_validation(self, squares):
        with pytest.raises(ValueError):
            compute_bk(squares, 1, 0)


class TestBuildEta:
    def test_constant_two_infeasible(self):
        with pytest.raises(EtaInfeasibleError) as err:
            build_eta(lambda k: LogReal.from_float(2.0), 10)
        assert "(1 - 1/b_11)^(-1)" in str(err.value)

    def test_b_at_most_one_infeasible(self):
        with pytest.raises(EtaInfeasibleError):
            build_eta(lambda k: LogReal.from_float(0.5), 5)

    def test_four_power_family(self):
        # b_{k+1} = 4^(k+1) gives eta_k - 1 <= 2^(-k+1) for k >= 2
        eta = build_eta(lambda k: LogReal.two_pow(2 * k), 40)
        prev = math.inf
        for k in range(1, 41):
            v = eta(k)
            assert v < prev
            assert v > 1.0
            floor = 1.0 / (1.0 - 4.0 ** -(k + 1))
            assert v > floor
            if k >= 2:
                assert v - 1.0 <= 2.0 ** (-k + 1)
            prev = v

    def test_analytic_tail_beyond_kmax(self):
        eta = build_eta(lambda k: LogReal.two_pow(2 * k), 20)
        assert eta(25) < eta(21) < eta(20)
        assert eta(25) > 1.0

    def test_wobbly_bk_still_strictly_decreasing(self):
        # a dip in b_k must not produce a flat or rising eta stretch
        vals = {k: 4.0 ** k for k in range(1, 30)}
        vals[7] = 4.0 ** 9  # out-of-order spike
        eta = build_eta(lambda k: LogReal.from_float(vals[k]), 25)
        prev = math.inf
        for k in range(1, 26):
            assert eta.log2(k) < prev
            prev = eta.log2(k)


class TestEtaTable:
    def test_rule_runs_once_per_index(self, squares):
        from collections import Counter

        calls = Counter()

        def rule(k):
            calls[k] += 1
            return math.log2(1.0 + 2.0 ** -k)

        eta = EtaSequence(rule, "counted 1+2^-k")
        x = FiniteVector.from_floats([0.5, -0.3, 0.2, 0.1, 0.05])
        for _ in range(3):
            triple_norm(squares, eta, x)
        growth_index(squares, eta, FiniteVector.from_floats([0.5, 0.3, 0.2, 0.1, 0.05]))
        assert dict(calls) == {k: 1 for k in range(1, 7)}

    def test_reading_eta_k_checks_the_next_index(self, squares):
        logs = {1: 1.0, 2: 0.5, 3: 0.75}   # eta_3 > eta_2
        eta = EtaSequence(logs.__getitem__, "rises at 3")
        assert eta.log2(1) == 1.0
        with pytest.raises(EtaInfeasibleError) as err:
            eta.log2(2)
        assert err.value.k == 3
        eta = EtaSequence(logs.__getitem__, "rises at 3")
        with pytest.raises(EtaInfeasibleError):
            # a support of 2 reads eta through index 3 before it scans
            growth_index(squares, eta, FiniteVector.from_floats([0.5, 0.5]))


class TestRenormScheme:
    def test_squares_scheme(self, squares):
        scheme = build_renorm_scheme(squares, 1, 41)
        ks = sorted(scheme.bk_table)
        for a, b in zip(ks, ks[1:]):
            assert scheme.bk_table[a].log2mag <= scheme.bk_table[b].log2mag + 1e-12
        assert scheme.eta(40) - 1.0 < 1e-6
        assert not scheme.inconclusive_k

    def test_identity_scheme_infeasible(self, ident):
        with pytest.raises(EtaInfeasibleError):
            build_renorm_scheme(ident, 1, 20)


class TestTripleNorm:
    def test_single_support(self, squares, eta_pow2):
        x = FiniteVector.from_floats([0.7])
        value, k = triple_norm(squares, eta_pow2, x)
        want = luxemburg_norm(squares, x).log2mag + eta_pow2.log2(1)
        assert value.log2mag == pytest.approx(want, abs=1e-11)
        assert k == 1

    def test_identity_two_ones(self, ident, eta_pow2):
        value, k = triple_norm(ident, eta_pow2, FiniteVector.from_floats([1.0, 1.0]))
        assert value.to_float() == pytest.approx(2.5, rel=1e-11)
        assert k == 2

    def test_zero_vector(self, squares, eta_pow2):
        value, k = triple_norm(squares, eta_pow2, FiniteVector({}))
        assert value == ZERO
        assert k == 0

    def test_rearrangement_invariance_exact(self, squares, eta_pow2):
        rng = random.Random(19)
        for _ in range(40):
            coords = {
                rng.randint(1, 40): LogReal(rng.choice([-1, 1]), rng.uniform(-20, 3))
                for _ in range(rng.randint(1, 12))
            }
            x = FiniteVector(coords)
            v1, _ = triple_norm(squares, eta_pow2, x)
            v2, _ = triple_norm(squares, eta_pow2, rearrange(x))
            assert v1.log2mag == v2.log2mag

    def test_equivalence_bounds(self, squares, eta_pow2):
        rng = random.Random(23)
        for _ in range(60):
            n = rng.randint(1, 20)
            x = FiniteVector(
                {i: LogReal(rng.choice([-1, 1]), rng.uniform(-25, 3)) for i in range(1, n + 1)}
            )
            base = luxemburg_norm(squares, x).log2mag
            t, _ = triple_norm(squares, eta_pow2, x)
            # ||x|| <= |||x||| <= eta_1 ||x||, with |||x||| >= eta_N ||x|| strictly
            assert t.log2mag >= base - 1e-10
            assert t.log2mag <= base + eta_pow2.log2(1) + 1e-10
            assert t.log2mag >= base + eta_pow2.log2(n) - 1e-10

    def test_homogeneity(self, squares, eta_pow2):
        rng = random.Random(4)
        for _ in range(30):
            x = FiniteVector(
                {i: LogReal(1, rng.uniform(-14, 2)) for i in range(1, rng.randint(2, 9))}
            )
            lam = LogReal(rng.choice([-1, 1]), rng.uniform(-6, 6))
            v1, _ = triple_norm(squares, eta_pow2, scaled(x, lam))
            v2, _ = triple_norm(squares, eta_pow2, x)
            assert v1.log2mag == pytest.approx(v2.log2mag + lam.log2mag, abs=1e-10)

    def test_against_independent_mpmath_route(self, squares, eta_pow2):
        # brute-force definition: max_k eta_k * (Luxemburg norm of the top-k
        # magnitudes), every norm solved independently at 50 digits
        import mpmath as mp

        log2b = squares_slopes().log2_slope

        def mp_M(t):
            if t <= 0:
                return mp.mpf(0)
            n = max(0, int(mp.floor(-mp.log(t, 2))))
            if t > mp.mpf(2) ** (-n):
                n = max(0, n - 1)
            tail = sum(mp.mpf(2) ** (log2b(j) - j - 1) for j in range(n + 1, n + 120))
            return tail + mp.mpf(2) ** log2b(n) * (mp.mpf(t) - mp.mpf(2) ** (-n - 1))

        def mp_norm(mags):
            f = lambda rho: sum(mp_M(a / rho) for a in mags) - 1
            minv1 = mp.findroot(lambda t: mp_M(t) - 1, (mp.mpf("0.5"), mp.mpf(4)), solver="bisect")
            lo, hi = mags[0] / minv1 / 2, mp.mpf(4) * sum(mags) / minv1 + 1
            return mp.findroot(f, (lo, hi), solver="bisect", tol=mp.mpf(10) ** -30)

        coords = [0.8, 0.05, 0.3]
        mags = sorted((abs(c) for c in coords), reverse=True)
        with mp.workdps(50):
            want = max(
                (1 + mp.mpf(2) ** -k) * mp_norm(mags[:k]) for k in range(1, len(mags) + 1)
            )
        got, _ = triple_norm(squares, eta_pow2, FiniteVector.from_floats(coords))
        assert got.to_float() == pytest.approx(float(want), rel=1e-11)

    def test_triangle_inequality(self, squares, eta_pow2):
        rng = random.Random(321)
        for _ in range(200):
            a = FiniteVector(
                {i: LogReal(rng.choice([-1, 1]), rng.uniform(-10, 2)) for i in range(1, 8)}
            )
            b = FiniteVector(
                {i: LogReal(rng.choice([-1, 1]), rng.uniform(-10, 2)) for i in range(1, 8)}
            )
            va, _ = triple_norm(squares, eta_pow2, a)
            vb, _ = triple_norm(squares, eta_pow2, b)
            vab, _ = triple_norm(squares, eta_pow2, added(a, b))
            assert vab.to_float() <= (va.to_float() + vb.to_float()) * (1 + 1e-10)


class TestHeadAttainment:
    def test_zero_vector(self, ident, eta_pow2):
        assert head_attainment_index(ident, eta_pow2, FiniteVector({})) == 0

    def test_identity_pair(self, ident, eta_pow2):
        assert head_attainment_index(ident, eta_pow2, FiniteVector.from_floats([1.0, 1.0])) == 2

    def test_identity_dominant_first(self, ident, eta_pow2):
        assert head_attainment_index(ident, eta_pow2, FiniteVector.from_floats([1.0, 0.1])) == 1

    def test_within_support(self, squares, eta_pow2):
        rng = random.Random(99)
        for _ in range(40):
            n = rng.randint(1, 25)
            x = FiniteVector(
                {i: LogReal(rng.choice([-1, 1]), rng.uniform(-18, 2)) for i in range(1, n + 1)}
            )
            m = head_attainment_index(squares, eta_pow2, x)
            assert 1 <= m <= n
            vm, _ = triple_norm(squares, eta_pow2, x.head(m))
            vx, _ = triple_norm(squares, eta_pow2, x)
            assert vm.log2mag == pytest.approx(vx.log2mag, abs=1e-9)
            if m > 1:
                vprev, _ = triple_norm(squares, eta_pow2, x.head(m - 1))
                assert vprev.log2mag < vx.log2mag - 1e-12

    def test_gapped_support_bounded_by_max_index(self, squares, eta_pow2):
        x = FiniteVector({3: LogReal.from_float(1.0), 17: LogReal.from_float(0.9)})
        m = head_attainment_index(squares, eta_pow2, x)
        assert m in (3, 17)

    def test_basis_monotonicity(self, squares, eta_pow2):
        rng = random.Random(12)
        for _ in range(25):
            n = rng.randint(2, 15)
            x = FiniteVector(
                {i: LogReal(rng.choice([-1, 1]), rng.uniform(-15, 2)) for i in range(1, n + 1)}
            )
            prev = -math.inf
            for k in range(1, n + 1):
                v, _ = triple_norm(squares, eta_pow2, x.head(k))
                assert v.log2mag >= prev - 1e-10
                prev = v.log2mag


# -- the separate-walk functions, kept as the record's oracle -----------------
#
# Each walks the sorted magnitudes on its own, as the library did before the
# renormed record was kept on the vector.


def ref_triple_norm_log2(M, eta, sorted_log2):
    """max over k of log2 eta_k + log2 ||(x*_1..x*_k)||, and the smallest k
    within the tie slack of it."""
    eta_log2 = eta.ensure_valid(len(sorted_log2) + 1)
    vals = [eta_log2[k] + h for k, h in enumerate(_prefix_norms(M, sorted_log2), start=1)]
    best = max(vals)
    slack = renorm_mod._TIE_SLACK_LOG2
    return best, next(k for k, v in enumerate(vals, start=1) if v >= best - slack)


def ref_head_attainment_index(M, eta, x):
    mags = x.log2mags
    order = sorted(range(len(mags)), key=mags.__getitem__, reverse=True)
    _, k0 = ref_triple_norm_log2(M, eta, [mags[p] for p in order])
    return x.indices[max(order[:k0])]


def ref_growth_index(M, eta, x):
    sorted_log2 = x.sorted_log2_magnitudes()
    eta_log2 = eta.ensure_valid(len(sorted_log2) + 1)
    head_norms = list(_prefix_norms(M, sorted_log2))
    slack = renorm_mod._TIE_SLACK_LOG2
    return next(k for k, h in enumerate(head_norms, start=1)
                if eta_log2[k] + h >= head_norms[-1] - slack)


def ref_head_attainment_search(M, eta, x):
    """Reference attainment index: bisection over the support indices, with
    every probe a fresh triple norm of the truncation."""
    target, _ = ref_triple_norm_log2(M, eta, x.sorted_log2_magnitudes())
    slack = renorm_mod._TIE_SLACK_LOG2 + abs(target) * 1e-12
    support = list(x.coords)
    log2_mags = [v.log2mag for v in x.coords.values()]

    def reaches(pos):
        v, _ = ref_triple_norm_log2(M, eta, sorted(log2_mags[: pos + 1], reverse=True))
        return v >= target - slack

    lo, hi = 0, len(support) - 1
    if reaches(lo):
        return support[0]
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if reaches(mid):
            hi = mid
        else:
            lo = mid
    return support[hi]


def attainment_vectors(rng, count):
    """Supports of 1..50 coordinates, contiguous or gapped, with uniform,
    integer (tied) or all-equal log2 magnitudes."""
    for _ in range(count):
        n = rng.choice((1, 1, 2, 3)) if rng.random() < 0.15 else rng.randint(1, 50)
        if rng.random() < 0.5:
            indices = range(1, n + 1)
        else:
            indices = sorted(rng.sample(range(1, 3 * n + 1), n))
        kind = rng.randrange(3)
        if kind == 0:
            mags = [rng.uniform(-40.0, 3.0) for _ in indices]
        elif kind == 1:
            mags = [float(rng.randint(-12, 2)) for _ in indices]
        else:
            mags = [float(rng.randint(-20, 2))] * n
        yield FiniteVector(
            {i: LogReal(rng.choice((-1, 1)), e) for i, e in zip(indices, mags)}
        )


def counted_walks(patch):
    """Log the walks the renorm views make from now on: ["record", roots
    computed] for each record walk, and ["cold", N] for each cold root of N
    points (growth_index's, when the record stopped short of N)."""
    log = []
    record_walk, cold_root = renorm_mod._prefix_norms, renorm_mod._norm_log2

    def record(M, sorted_log2):
        entry = ["record", 0]
        log.append(entry)
        for h in record_walk(M, sorted_log2):
            entry[1] += 1
            yield h

    def cold(M, sorted_log2):
        log.append(["cold", len(sorted_log2)])
        return cold_root(M, sorted_log2)

    patch.setattr(renorm_mod, "_prefix_norms", record)
    patch.setattr(renorm_mod, "_norm_log2", cold)
    return log


class TestAttainmentAgainstBisection:
    @pytest.mark.parametrize("gauge", ["squares", "geometric"])
    def test_same_index_in_one_walk(self, gauge, monkeypatch):
        if gauge == "squares":
            M = make_dyadic_plf(squares_slopes())
            eta = build_renorm_scheme(M, 1, 52).eta
        else:
            M = make_dyadic_plf(geometric_slopes())
            eta = EtaSequence.one_plus_pow2()
        rng = random.Random(f"attain-{gauge}")
        for x in attainment_vectors(rng, 2000):
            want = ref_head_attainment_search(M, eta, x)
            with monkeypatch.context() as patch:
                walks = counted_walks(patch)
                got = head_attainment_index(M, eta, x)
            assert got == want, x
            # one record walk, of at most N prefix roots
            assert len(walks) == 1 and walks[0][0] == "record"
            assert 1 <= walks[0][1] <= x.support_size

    def test_flat_eta_index_holds_the_attaining_head(self, ident):
        # with a flat eta on l1 every coordinate adds to the value, so the
        # exact index is 3; triple_norm's attaining head 2 (2^-38 lies within
        # the tie slack) holds x_1 and x_3, the largest two magnitudes
        flat = _UncheckedEta(lambda k: 0.0, "flat")
        x = FiniteVector({1: LogReal(1, 0.0), 2: LogReal(1, -38.0), 3: LogReal(1, -37.5)})
        assert triple_norm(ident, flat, x)[1] == 2
        assert head_attainment_index(ident, flat, x) == 3


class TestAttainmentOnPackedVectors:
    # on packed nonincreasing a_i the truncation at m is head m, so the index
    # is triple_norm's attaining head; the deep cases sit where the head
    # values tie within the slack
    @pytest.mark.parametrize(
        "gauge, s, n",
        [
            ("squares", 4, 40),
            ("squares", 16, 90),
            ("squares", 16, 160),
            ("squares", 16, 300),
            ("squares", 32, 160),
            ("squares", 32, 300),
            ("geometric", 4, 40),
            ("geometric", 8, 160),
            ("geometric", 16, 300),
        ],
    )
    def test_index_is_the_attaining_head(self, gauge, s, n, eta_pow2):
        M = make_dyadic_plf(squares_slopes() if gauge == "squares" else geometric_slopes())
        x = FiniteVector({i: LogReal(1, -i / s) for i in range(1, n + 1)})
        _, attaining = triple_norm(M, eta_pow2, x)
        assert head_attainment_index(M, eta_pow2, x) == attaining


class TestGrowthIndex:
    def test_single_support(self, squares, eta_pow2):
        assert growth_index(squares, eta_pow2, FiniteVector.from_floats([0.4])) == 1

    def test_identity_pair(self, ident, eta_pow2):
        # ||x|| = 2; 2 <= 1.5 fails at k=1, 2 <= 1.25*2 holds at k=2
        assert growth_index(ident, eta_pow2, FiniteVector.from_floats([1.0, 1.0])) == 2

    def test_rejects_bad_input(self, squares, eta_pow2):
        with pytest.raises(ValueError):
            growth_index(squares, eta_pow2, FiniteVector.from_floats([0.5, 0.7]))
        with pytest.raises(ValueError):
            growth_index(squares, eta_pow2, FiniteVector.from_floats([0.5, -0.2]))
        with pytest.raises(ValueError):
            growth_index(squares, eta_pow2, FiniteVector({2: LogReal.from_float(0.5)}))
        with pytest.raises(ValueError):
            growth_index(squares, eta_pow2, FiniteVector({}))

    def test_stabilizes_with_support_growth(self, squares, eta_pow2):
        # geometric coordinate tails: the index settles as the support grows
        got = []
        for n in (10, 20, 40):
            x = FiniteVector({i: LogReal.two_pow(-0.8 * i) for i in range(1, n + 1)})
            got.append(growth_index(squares, eta_pow2, x))
        assert got[1] == got[2]


class TestRenormedRecord:
    """One prefix walk per vector, M and eta serves every renormed view."""

    @pytest.fixture
    def walks(self, monkeypatch):
        return counted_walks(monkeypatch)

    @staticmethod
    def c05_vectors(rng, count):
        """Random signs and log2 magnitudes in [-40, 3] on supports of 1..50."""
        for _ in range(count):
            n = rng.randint(1, 50)
            yield FiniteVector({i: LogReal(rng.choice((-1, 1)), rng.uniform(-40.0, 3.0))
                                for i in range(1, n + 1)})

    def test_one_walk_serves_every_view(self, squares, eta_pow2, walks):
        # one record walk serves triple_norm and head_attainment_index, also
        # on the rearrangement, and growth_index too when it reached N; on a
        # record that stopped short each growth_index adds one cold root, and
        # no view walks every prefix outside the record
        stopped = 0
        for x in self.c05_vectors(random.Random("one-walk"), 200):
            n = x.support_size
            walks.clear()
            triple_norm(squares, eta_pow2, x)
            packed = rearrange(x)
            triple_norm(squares, eta_pow2, packed)
            head_attainment_index(squares, eta_pow2, x)
            assert [w[0] for w in walks] == ["record"] and 1 <= walks[0][1] <= n
            roots = walks[0][1]
            stopped += roots < n
            growth_index(squares, eta_pow2, packed)
            growth_index(squares, eta_pow2, packed)
            head_attainment_index(squares, eta_pow2, packed)
            assert walks == [["record", roots]] + ([["cold", n]] * 2 if roots < n else [])
        assert 100 < stopped < 200
        # a packed vector, starting from growth_index
        x = FiniteVector({i: LogReal(1, -i / 4) for i in range(1, 41)})
        walks.clear()
        assert growth_index(squares, eta_pow2, x) <= triple_norm(squares, eta_pow2, x)[1]
        head_attainment_index(squares, eta_pow2, x)
        roots = walks[0][1]
        assert walks == [["record", roots]] + ([["cold", 40]] if roots < 40 else [])

    def test_other_function_or_eta_walks_again(self, squares, geom, eta_pow2, walks):
        # a twin gauge is a different object, so it gets a walk of its own
        twin = make_dyadic_plf(squares_slopes())
        scheme_eta = build_renorm_scheme(squares, 1, 52).eta
        for x in self.c05_vectors(random.Random("other-walk"), 40):
            walks.clear()
            for M, eta in ((squares, eta_pow2), (squares, scheme_eta), (twin, scheme_eta),
                           (geom, scheme_eta), (squares, eta_pow2), (squares, eta_pow2)):
                sl = x.sorted_log2_magnitudes()
                value, k = triple_norm(M, eta, x)
                assert (value.log2mag, k) == ref_triple_norm_log2(M, eta, sl)
                assert head_attainment_index(M, eta, x) == ref_head_attainment_index(M, eta, x)
            # the slot holds one record: the return to (squares, eta_pow2)
            # walks again, and its repeat does not
            assert [w[0] for w in walks] == ["record"] * 5

    def test_truncation_does_not_inherit(self, squares, eta_pow2, walks):
        for x in self.c05_vectors(random.Random("head-walk"), 40):
            triple_norm(squares, eta_pow2, x)
            m = head_attainment_index(squares, eta_pow2, x)
            head = x.head(m)
            assert head._renorm is None
            walks.clear()
            value, k = triple_norm(squares, eta_pow2, head)
            assert [w[0] for w in walks] == ["record"]
            assert (value.log2mag, k) == ref_triple_norm_log2(
                squares, eta_pow2, head.sorted_log2_magnitudes())

    def test_growth_index_validates_with_a_record(self, squares, eta_pow2):
        x = FiniteVector.from_floats([0.5, 0.7])
        triple_norm(squares, eta_pow2, x)
        with pytest.raises(ValueError, match="nonincreasing"):
            growth_index(squares, eta_pow2, x)

    @staticmethod
    def deep_packed():
        """Packed a_i = 2^(-i/s); the attaining k is 79 at (16, 90) and 148 at
        (32, 160), where the tie slack decides it, and N = 1 073 is the
        largest support that eta = 1 + 2^-k tabulates."""
        for s, n in ((16, 90), (32, 160), (16, 300), (4, 1073), (32, 1073)):
            yield FiniteVector({i: LogReal(1, -i / s) for i in range(1, n + 1)})

    def test_bits_equal_separate_walks(self, squares, geom, eta_pow2):
        scheme_eta = build_renorm_scheme(squares, 1, 52).eta
        rng = random.Random("record-bits")
        cases = [(squares, scheme_eta, x) for x in self.c05_vectors(rng, 300)]
        cases += [(M, eta_pow2, x) for x in attainment_vectors(rng, 300) for M in (squares, geom)]
        cases += [(M, eta_pow2, x) for x in self.deep_packed() for M in (squares, geom)]
        attaining = []
        for M, eta, x in cases:
            sl = x.sorted_log2_magnitudes()
            value, k = triple_norm(M, eta, x)
            assert (value.log2mag, k) == ref_triple_norm_log2(M, eta, sl)
            packed = rearrange(x)
            assert triple_norm(M, eta, packed)[0] == value
            assert head_attainment_index(M, eta, x) == ref_head_attainment_index(M, eta, x)
            assert growth_index(M, eta, packed) == ref_growth_index(M, eta, packed)
            attaining.append(k)
        assert {79, 148} <= set(attaining[-10:])


class TestEarlyStop:
    """The record walk stops once no later head can reach the best value so
    far; every view keeps the bits of the full walk."""

    GAUGES = {
        "l1": identity_slopes,
        "geometric": geometric_slopes,
        "pow2_poly(0.25,0,0)": lambda: slopes_pow2_poly(0.25, 0.0, 0.0),
        "counterexample45": lambda: gen_sequences(45).slopes(),
        "squares": squares_slopes,
    }

    @staticmethod
    def second_point_past_one(M, rng, count):
        """The second point has t > 1 at head 1's root: head 1 is
        a_1 / M^(-1)(1), so a_2 > 2^(-u) a_1 with u = log2 M^(-1)(1)."""
        u = M.inverse_log2(0.0)
        for _ in range(count):
            top = rng.uniform(-8.0, 8.0)
            mags = [top, top - rng.uniform(0.0, 0.99 * u)]
            mags += [rng.uniform(top - 40.0, mags[1]) for _ in range(rng.randint(0, 20))]
            rng.shuffle(mags)
            yield FiniteVector({i: LogReal(rng.choice((-1, 1)), e) for i, e in enumerate(mags, 1)})

    @staticmethod
    def straddling(rng, count):
        """Heads within 30 binades of the largest and tails 1 070 to 1 090 down."""
        for _ in range(count):
            mags = [0.0] + [rng.uniform(-30.0, 0.0) for _ in range(rng.randint(0, 8))]
            mags += [rng.uniform(-1090.0, -1070.0) for _ in range(rng.randint(1, 8))]
            yield FiniteVector({i: LogReal(1, e + 3.0) for i, e in enumerate(mags, 1)})

    @pytest.mark.parametrize("gauge", sorted(GAUGES))
    def test_views_match_the_full_walk(self, gauge, monkeypatch):
        M = make_dyadic_plf(self.GAUGES[gauge]())
        etas = [EtaSequence.one_plus_pow2()]
        if gauge == "squares":
            etas.append(build_renorm_scheme(M, 1, 52).eta)
        rng = random.Random(f"early-stop-{gauge}")
        vectors = list(TestRenormedRecord.c05_vectors(rng, 150))
        vectors += list(attainment_vectors(rng, 150))
        crossing = list(self.second_point_past_one(M, rng, 60))
        vectors += crossing + list(self.straddling(rng, 40))
        early = 0
        for eta in etas:
            for x in vectors:
                sl = x.sorted_log2_magnitudes()
                with monkeypatch.context() as patch:
                    walks = counted_walks(patch)
                    value, k = triple_norm(M, eta, x)
                    m = head_attainment_index(M, eta, x)
                    roots = walks[0][1]
                    # the rearrangement holds x's record, so growth_index
                    # adds one cold root, and only when that record stopped
                    # short
                    packed = rearrange(x)
                    g = growth_index(M, eta, packed)
                n = x.support_size
                assert walks == [["record", roots]] + ([["cold", n]] if roots < n else [])
                assert (value.log2mag, k) == ref_triple_norm_log2(M, eta, sl), x
                assert m == ref_head_attainment_index(M, eta, x), x
                assert g == ref_growth_index(M, eta, packed), x
                early += roots < x.support_size
                if x in crossing and M.inverse_log2(0.0) > 0.0:
                    # t_2 > 1: T_1 has no bound from the table, so head 1 never stops
                    assert roots >= 2
        assert early > len(vectors) // 4

    def test_roots_per_record_on_c05(self, squares, monkeypatch):
        """200 seeded c05 vectors on `squares` with the scheme eta.

        Measured: 419 prefix roots, 2.1 per vector, where the attaining head
        is 1.4 on average; walking every prefix computes the sum of the
        supports, 5 083.
        """
        eta = build_renorm_scheme(squares, 1, 52).eta
        walks = counted_walks(monkeypatch)
        total = 0
        for x in TestRenormedRecord.c05_vectors(random.Random("work-contract"), 200):
            triple_norm(squares, eta, x)
            total += x.support_size
        roots = sum(w[1] for w in walks)
        assert len(walks) == 200
        assert roots <= 500 < total

    def test_no_stop_walks_every_prefix(self, ident, eta_pow2, monkeypatch):
        # on l1 equal coordinates give ||h_k|| = k a, and every head's value
        # beats the one before, so no head can be ruled out
        x = FiniteVector({i: LogReal(1, -3.0) for i in range(1, 41)})
        walks = counted_walks(monkeypatch)
        value, k = triple_norm(ident, eta_pow2, x)
        assert k == 40 and walks == [["record", 40]]
        # the walk reached log2 ||x||, so growth_index reads it from the
        # record's last head and takes no cold root
        assert growth_index(ident, eta_pow2, x) == ref_growth_index(ident, eta_pow2, x)
        assert walks == [["record", 40]]
