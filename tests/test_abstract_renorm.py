"""Section functionals, finite norming sets and the leveled seminorm."""

import math
import random
import time

import pytest

from orliczlab import (
    EtaSequence,
    FiniteVector,
    LogReal,
    NormingFamily,
    NormingLevel,
    ProjectionSeminormSpec,
    SectionFunctional,
    Tolerance,
    ZERO,
    assemble_norming_family,
    build_norming_family,
    check_precisely_norming,
    luxemburg_norm,
    make_dyadic_plf,
    projection_seminorm,
    rho_eval,
    squares_slopes,
    triple_norm,
)
from orliczlab.abstract_renorm import (
    _directions,
    _framed,
    _norm_float,
    _sample_points,
    _subgradient,
    _unframed,
)


def l1_oracle(v: FiniteVector) -> LogReal:
    total = ZERO
    for c in v.coords.values():
        total = total + abs(c)
    return total


def l2_oracle(v: FiniteVector) -> LogReal:
    s = sum(c.to_float() ** 2 for c in v.coords.values())
    return LogReal.from_float(math.sqrt(s))


def l3_oracle(v: FiniteVector) -> LogReal:
    s = sum(abs(c.to_float()) ** 3 for c in v.coords.values())
    return LogReal.from_float(s ** (1.0 / 3.0))


@pytest.fixture(scope="module")
def lux_squares_oracle():
    squares = make_dyadic_plf(squares_slopes())
    return lambda v: luxemburg_norm(squares, v)


@pytest.fixture(scope="module")
def triple_oracle():
    squares = make_dyadic_plf(squares_slopes())
    eta = EtaSequence.one_plus_pow2()

    def oracle(v: FiniteVector) -> LogReal:
        value, _ = triple_norm(squares, eta, v)
        return value

    return oracle


def scaled(x, lam):
    """lam x, by LogReal products of the coordinates."""
    return FiniteVector({i: v * lam for i, v in x.coords.items()})


def added(x, y):
    """x + y, by LogReal sums of the coordinates."""
    out = x.coords
    for i, v in y.coords.items():
        out[i] = out.get(i, ZERO) + v
    return FiniteVector(out)


def pair(w: SectionFunctional, x: FiniteVector, upto=None) -> LogReal:
    """<P_j x, w> with j = min(upto, level): the float pairing on x's frame."""
    top, coords = _framed(x, w.level if upto is None else min(upto, w.level))
    return _unframed(w.pair_floats(coords), top)


# -- reference pairing: per-element LogReal arithmetic --------------------------


def larger(a: LogReal, b: LogReal) -> LogReal:
    """The larger of two values >= 0."""
    return a if (a.sign, a.log2mag) > (b.sign, b.log2mag) else b


def ref_pair(w: SectionFunctional, x: FiniteVector, upto=None) -> LogReal:
    j = w.level if upto is None else min(upto, w.level)
    acc = ZERO
    for i in range(1, j + 1):
        coef = w.coefficients[i - 1] * w.scale
        if coef == 0.0:
            continue
        xi = x.get(i)
        if xi.sign != 0:
            acc = acc + xi * LogReal.from_float(coef)
    return acc


def ref_projection_seminorm(spec: ProjectionSeminormSpec, x: FiniteVector) -> LogReal:
    best = ZERO
    for w, n_k, e in zip(spec.functionals, spec.cutoffs, spec.eps):
        weight = LogReal.from_float(1.0 + e)
        for n in range(1, n_k + 1):
            best = larger(abs(ref_pair(w, x, upto=n)) * weight, best)
    return best


def ref_rho_eval(family: NormingFamily, x: FiniteVector) -> LogReal:
    best = inner = ZERO
    for lvl in sorted(family.levels, key=lambda l: l.level):
        for w in lvl.functionals:
            inner = larger(abs(ref_pair(w, x, upto=lvl.level)), inner)
        best = larger(inner * LogReal.from_float(1.0 + lvl.eta), best)
    return best


def _random_functional(rng: random.Random, level: int) -> SectionFunctional:
    coeffs = tuple(0.0 if rng.random() < 0.25 else rng.uniform(-2.0, 2.0) for _ in range(level))
    return SectionFunctional(level, coeffs, 2.0 ** rng.uniform(-3.0, 3.0))


def _random_vector(rng: random.Random, dim: int, offset: float) -> FiniteVector:
    """Coordinates 1..dim of magnitude 2^(offset +- 20), some of them zero."""
    coords = {}
    for i in range(1, dim + 1):
        if rng.random() < 0.8:
            coords[i] = LogReal(rng.choice([-1, 1]), offset + rng.uniform(-20.0, 20.0))
    return FiniteVector(coords)


def _assert_close(got: LogReal, want: LogReal, mass_log2: float) -> None:
    """got == want up to 4e-15 of the pairing's mass sum |w_i x_i|, plus the
    resolution of log2 magnitudes near mass_log2."""
    if want.sign == 0:
        assert got == ZERO
        return

    def rel(v: LogReal) -> float:
        return v.sign * 2.0 ** (v.log2mag - mass_log2) if v.sign else 0.0

    assert abs(rel(got) - rel(want)) <= 4e-15 + 4.0 * math.ulp(mass_log2), (got, want)


def _mass_log2(ws, x: FiniteVector, upto: int) -> float:
    """log2 of the largest sum |w_i x_i| over the functionals ws, i <= upto."""
    masses = []
    for w in ws:
        terms = [abs(x.get(i)) * LogReal.from_float(abs(c * w.scale))
                 for i, c in enumerate(w.coefficients[:upto], start=1)]
        total = ZERO
        for t in terms:
            total = total + t
        masses.append(total.log2mag if total.sign else -math.inf)
    return max(masses)


OFFSETS = (0.0, 3000.0, -3000.0, 900.0, -1000.0)


class TestFloatPairingMatchesLogReal:
    """pair, projection_seminorm and rho_eval pair in floats on one frame; the
    per-element LogReal loop they replaced is kept above as the reference."""

    def test_pair(self):
        rng = random.Random("pair-reference")
        for offset in OFFSETS:
            for _ in range(300):
                level = rng.randint(1, 4)
                w = _random_functional(rng, level)
                x = _random_vector(rng, rng.randint(0, 5), offset)
                upto = rng.choice([None, 1, 2, 3, 4, 6])
                j = level if upto is None else min(upto, level)
                _assert_close(pair(w, x, upto), ref_pair(w, x, upto), _mass_log2([w], x, j))

    def test_projection_seminorm(self):
        rng = random.Random("projection-reference")
        for offset in OFFSETS:
            for _ in range(100):
                n = rng.randint(1, 4)
                funcs = [_random_functional(rng, rng.randint(1, 4)) for _ in range(n)]
                cutoffs = [rng.randint(1, 5) for _ in range(n)]
                spec = ProjectionSeminormSpec(funcs, cutoffs, [rng.uniform(0.1, 0.9) for _ in range(n)],
                                              [0.0] * n)
                x = _random_vector(rng, rng.randint(0, 5), offset)
                _assert_close(projection_seminorm(spec, x), ref_projection_seminorm(spec, x),
                              1.0 + _mass_log2(funcs, x, 5))

    def test_rho_eval(self):
        rng = random.Random("rho-reference")
        for offset in OFFSETS:
            for _ in range(100):
                levels = []
                for j in range(1, rng.randint(1, 3) + 1):
                    eps = rng.uniform(0.05, 0.4)
                    funcs = [_random_functional(rng, j) for _ in range(rng.randint(1, 4))]
                    levels.append(NormingLevel(j, funcs, eps=eps, eta=rng.uniform(eps + 0.01, 0.95)))
                fam = NormingFamily(levels)
                x = _random_vector(rng, rng.randint(0, fam.top_level), offset)
                mass = _mass_log2([w for lvl in levels for w in lvl.functionals], x, 3)
                _assert_close(rho_eval(fam, x), ref_rho_eval(fam, x), 1.0 + mass)

    @pytest.mark.parametrize("offset", OFFSETS)
    def test_exact_cancellation_is_zero(self, offset):
        t = LogReal(1, offset + 0.3)
        x = FiniteVector({1: t, 2: t, 3: -t})
        w = SectionFunctional(2, (1.0, -1.0), scale=3.0)
        assert ref_pair(w, x) == ZERO
        assert pair(w, x) == ZERO
        assert pair(SectionFunctional(3, (1.0, 1.0, 2.0)), x) == ZERO
        spec = ProjectionSeminormSpec([w], [2], [0.5], [0.1])
        # n = 1 pairs t alone; n = 2 cancels
        assert projection_seminorm(spec, x.head(2)).log2mag == pytest.approx(
            ref_projection_seminorm(spec, x.head(2)).log2mag, rel=1e-15)
        fam = NormingFamily([NormingLevel(2, [w], eps=0.2, eta=0.5)])
        assert rho_eval(fam, x.head(2)) == ZERO
        assert ref_rho_eval(fam, x.head(2)) == ZERO


# -- reference builder: a subgradient at every net direction --------------------


def ref_pair_floats(w: SectionFunctional, coords) -> float:
    j = min(len(coords), w.level)
    return w.scale * sum(w.coefficients[i] * coords[i] for i in range(j))


def ref_build_norming_family(norm_oracle, dim, eps, seed=0, validation_samples=256):
    """build_norming_family's net loop for dims 2 and 3 without the skip of
    attained directions, with generator pairing and max-based validation."""
    rng = random.Random(seed)
    samples = _sample_points(dim, validation_samples, rng)
    sample_norms = [_norm_float(norm_oracle, p) for p in samples]
    theta = 2.0 * math.acos(1.0 / (1.0 + min(eps, 1.0) / 2.0))
    count = max(6, int(math.ceil(2.0 * math.pi / theta)))
    lower = 1.0 / (1.0 + eps)
    for _ in range(6):
        net = _directions(dim, count)
        net_norms = [_norm_float(norm_oracle, d) for d in net]
        probe = samples + net
        probe_norms = sample_norms + net_norms
        funcs = []
        seen = set()
        for d, nd in zip(net, net_norms):
            g = _subgradient(norm_oracle, [c / nd for c in d])
            scale = None
            for vec in (tuple(g), tuple(-c for c in g)):
                key = tuple(round(c, 6) for c in vec)
                if key in seen:
                    continue
                seen.add(key)
                if scale is None:
                    w = SectionFunctional(dim, vec)
                    c_w = max(abs(ref_pair_floats(w, p)) / n for p, n in zip(probe, probe_norms))
                    scale = 1.0 / c_w if c_w > 1.0 else 1.0
                funcs.append(SectionFunctional(dim, vec, scale))
        if not any(max(abs(ref_pair_floats(w, p)) for w in funcs) < lower * n * (1.0 - 1e-9)
                   for p, n in zip(samples, sample_norms)):
            return funcs
        count *= 2
    raise ValueError("reference builder could not reach the sandwich")


class TestBuildMatchesReference:
    """Skipping directions that a kept functional attains changes no family
    of the triple norm, the Luxemburg norm, l2 or l3, and on l1 drops only
    kink averages of kept facet normals, such as (-1, 0) and (1, 0, 1)."""

    @pytest.mark.parametrize("oracle_name, dim, eps, seed", [
        ("triple", 2, 0.25, 92), ("triple", 2, 0.2, 3), ("triple", 2, 0.35, 7),
        ("triple", 3, 0.3, 93), ("triple", 3, 0.2, 5), ("triple", 3, 0.35, 2),
        ("triple", 2, 0.02, 4), ("l2", 2, 0.01, 4),
        ("l2", 2, 0.2, 9), ("l2", 2, 0.3, 5), ("l2", 2, 0.1, 4),
        ("l2", 3, 0.2, 1), ("l2", 3, 0.3, 5), ("l2", 3, 0.35, 8),
        ("l3", 2, 0.3, 2), ("l3", 3, 0.3, 3),
        ("lux-squares", 2, 0.2, 1), ("lux-squares", 3, 0.25, 4),
    ])
    def test_same_family(self, oracle_name, dim, eps, seed, triple_oracle, lux_squares_oracle):
        oracle = {"l2": l2_oracle, "l3": l3_oracle, "triple": triple_oracle,
                  "lux-squares": lux_squares_oracle}[oracle_name]
        W = build_norming_family(oracle, dim, eps=eps, seed=seed)
        ref = ref_build_norming_family(oracle, dim, eps=eps, seed=seed)
        assert W == ref

    @pytest.mark.parametrize("dim, eps, seed", [(2, 0.3, 5), (2, 0.2, 91), (3, 0.3, 5), (3, 0.2, 6)])
    def test_l1_keeps_an_ordered_subfamily(self, dim, eps, seed):
        W = build_norming_family(l1_oracle, dim, eps=eps, seed=seed)
        ref = ref_build_norming_family(l1_oracle, dim, eps=eps, seed=seed)
        rest = iter(ref)
        assert all(any(w == r for r in rest) for w in W)
        rng = random.Random(seed)
        for _ in range(200):
            p = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
            assert max(abs(w.pair_floats(p)) for w in W) == max(abs(w.pair_floats(p)) for w in ref)


class TestSectionFunctional:
    def test_level_length_mismatch(self):
        with pytest.raises(ValueError):
            SectionFunctional(2, (1.0,))

    def test_pairing_respects_cutoff(self):
        w = SectionFunctional(3, (1.0, -2.0, 0.5))
        x = FiniteVector.from_floats([1.0, 1.0, 1.0, 100.0])
        assert pair(w, x).to_float() == pytest.approx(-0.5, rel=1e-12)
        assert pair(w, x, upto=1).to_float() == pytest.approx(1.0, rel=1e-12)
        assert pair(w, x, upto=2).to_float() == pytest.approx(-1.0, rel=1e-12)
        # coordinates past the level are not read
        assert w.pair_floats([1.0, 1.0, 1.0, 100.0]) == -0.5


class TestProjectionSeminorm:
    def test_single_functional_example(self):
        w = SectionFunctional(1, (1.0,))
        spec = ProjectionSeminormSpec([w], [1], [0.5], [0.1])
        x = FiniteVector.from_floats([2.0, 7.0])
        assert projection_seminorm(spec, x).to_float() == pytest.approx(3.0, rel=1e-12)

    def test_zero_vector(self):
        w = SectionFunctional(1, (1.0,))
        spec = ProjectionSeminormSpec([w], [2], [0.3], [0.1])
        assert projection_seminorm(spec, FiniteVector({})) == ZERO

    def test_enumeration_oracle(self):
        # two functionals, two cutoffs: brute force over all (k, n) pairs
        w1 = SectionFunctional(2, (1.0, 1.0))
        w2 = SectionFunctional(3, (0.5, -1.0, 2.0))
        spec = ProjectionSeminormSpec([w1, w2], [2, 3], [0.4, 0.2], [0.05, 0.05])
        rng = random.Random(6)
        for _ in range(50):
            x = FiniteVector.from_floats([rng.uniform(-2, 2) for _ in range(4)])
            got = projection_seminorm(spec, x).to_float()
            coords = [x.get(i).to_float() for i in range(1, 5)]
            cands = []
            for w, n_k, e in ((w1, 2, 0.4), (w2, 3, 0.2)):
                for n in range(1, n_k + 1):
                    cands.append((1 + e) * abs(w.pair_floats(coords[:n])))
            assert got == pytest.approx(max(cands), rel=1e-10)

    def test_spec_validation(self):
        w = SectionFunctional(1, (1.0,))
        with pytest.raises(ValueError):
            ProjectionSeminormSpec([], [], [], [])
        with pytest.raises(ValueError):
            ProjectionSeminormSpec([w], [1], [0.5], [0.4])  # (1+e)(1-2d) <= 1
        with pytest.raises(ValueError):
            ProjectionSeminormSpec([w], [1, 2], [0.5], [0.1])

    def test_seminorm_axioms(self):
        w1 = SectionFunctional(2, (1.0, -0.5))
        w2 = SectionFunctional(2, (0.25, 1.0))
        spec = ProjectionSeminormSpec([w1, w2], [2, 2], [0.3, 0.2], [0.1, 0.05])
        rng = random.Random(60)
        for _ in range(100):
            a = FiniteVector.from_floats([rng.uniform(-3, 3), rng.uniform(-3, 3)])
            b = FiniteVector.from_floats([rng.uniform(-3, 3), rng.uniform(-3, 3)])
            lam = LogReal.from_float(rng.uniform(-4, 4) or 1.0)
            va = projection_seminorm(spec, a).to_float()
            vb = projection_seminorm(spec, b).to_float()
            vab = projection_seminorm(spec, added(a, b)).to_float()
            vsc = projection_seminorm(spec, scaled(a, lam)).to_float()
            assert vab <= (va + vb) * (1 + 1e-10)
            assert vsc == pytest.approx(abs(lam.to_float()) * va, rel=1e-10, abs=1e-300)


class TestBuildNormingFamily:
    def test_dimension_one_exact(self, triple_oracle):
        W = build_norming_family(triple_oracle, 1, eps=0.5)
        assert len(W) == 2
        x = FiniteVector.from_floats([0.8])
        best = max(abs(w.pair_floats([0.8])) for w in W)
        assert best == pytest.approx(triple_oracle(x).to_float(), rel=1e-9)

    def test_l1_gives_sign_functionals(self):
        # the cross-polytope extreme points all appear; directions landing on
        # kinks may contribute extra (still feasible) supporting functionals
        W = build_norming_family(l1_oracle, 2, eps=0.3, seed=5)
        actions = {tuple(round(w.scale * c) for c in w.coefficients) for w in W}
        assert {(1, 1), (1, -1), (-1, 1), (-1, -1)} <= actions
        best = max(abs(w.pair_floats([0.3, -0.9])) for w in W)
        assert best == pytest.approx(1.2, rel=1e-8)

    def test_euclidean_sandwich(self):
        eps = 0.2
        W = build_norming_family(l2_oracle, 2, eps=eps, seed=9)
        rng = random.Random(14)
        for _ in range(300):
            p = [rng.uniform(-1, 1), rng.uniform(-1, 1)]
            x = FiniteVector.from_floats(p)
            if x.is_zero:
                continue
            nx = l2_oracle(x).to_float()
            best = max(abs(w.pair_floats(p)) for w in W)
            assert best <= nx * (1 + 1e-9)
            assert best >= nx / (1 + eps) * (1 - 1e-9)

    def test_three_dimensional_family(self, triple_oracle):
        # the dual-ball rescale is certified on the construction grid; fresh
        # points can exceed it by the finite-difference noise floor
        eps = 0.35
        W = build_norming_family(triple_oracle, 3, eps=eps, seed=2)
        rng = random.Random(15)
        for _ in range(150):
            p = [rng.uniform(-1, 1) for _ in range(3)]
            x = FiniteVector.from_floats(p)
            if x.is_zero:
                continue
            nx = triple_oracle(x).to_float()
            best = max(abs(w.pair_floats(p)) for w in W)
            assert best <= nx * (1 + 1e-5)
            assert best >= nx / (1 + eps) * (1 - 1e-5)

    def test_dimension_cap(self, triple_oracle):
        with pytest.raises(ValueError):
            build_norming_family(triple_oracle, 4, eps=0.2)

    @pytest.mark.parametrize("oracle_name, dim, eps, net, want", [
        ("l1", 1, 0.3, 2, 1),
        ("l1", 2, 0.3, 7, 49), ("l1", 2, 0.2, 8, 50), ("l1", 3, 0.3, 16, 81),
        ("l2", 2, 0.3, 7, 2 + 32 + 7 * (1 + 2 * 2)), ("l2", 2, 0.2, 8, 2 + 32 + 8 + 4 * 4),
    ], ids=["1-0.3-2", "2-0.3-7", "2-0.2-8", "3-0.3-16", "l2-2-0.3-7", "l2-2-0.2-8"])
    def test_oracle_calls(self, oracle_name, dim, eps, net, want):
        """dim unit checks; in dim 1 nothing more, as the family is +-||e_1||
        read off the unit check.  From dim 2 on, one call per validation
        sample, one norm per net direction, and 2 dim finite differences per
        direction that no kept functional attains; every family here passes
        on the first net.  The strictly convex l2 attains nowhere but at the
        normal's own direction: on the odd 7-direction net no direction is
        skipped, on the even 8-direction net every antipode is."""
        oracle = {"l1": l1_oracle, "l2": l2_oracle}[oracle_name]
        calls = []

        def counted(v: FiniteVector) -> LogReal:
            calls.append(v)
            return oracle(v)

        build_norming_family(counted, dim, eps=eps, seed=5, validation_samples=32)
        assert len(_directions(dim, 7 if eps == 0.3 else 8)) == net
        assert len(calls) == want

    @pytest.mark.parametrize("dim, eps, seed", [(2, 0.02, 4), (2, 0.1, 2), (3, 0.35, 2)])
    def test_one_pair_per_finite_difference(self, dim, eps, seed, triple_oracle, monkeypatch):
        """The family is +-W: each finite difference on the last net gives one
        functional and its negation, and no functional is taken twice."""
        taken = []

        def counted_net(dim, count):
            taken.clear()
            return _directions(dim, count)

        def counted_subgradient(oracle, point):
            taken.append(point)
            return _subgradient(oracle, point)

        monkeypatch.setattr("orliczlab.abstract_renorm._directions", counted_net)
        monkeypatch.setattr("orliczlab.abstract_renorm._subgradient", counted_subgradient)
        W = build_norming_family(triple_oracle, dim, eps=eps, seed=seed)
        assert len(W) == 2 * len(taken)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_tiny_eps_rejected_before_any_net(self, dim):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"eps = 1e-12 needs a first net of \d+ directions"):
            build_norming_family(l1_oracle, dim, eps=1e-12)
        with pytest.raises(ValueError, match="inf directions"):
            build_norming_family(l1_oracle, dim, eps=1e-30)  # 1 + eps/2 rounds to 1
        assert time.perf_counter() - start < 1.0

    def test_refinement_stops_at_the_net_cap(self, monkeypatch):
        # the l_1/2 quasi-norm is no norm: the hull of its ball is the l1
        # ball, whose gauge is a third of it at (1, 1, 1), so no net reaches
        # the sandwich; the first net of 546 directions would refine to 2246
        def quasi(v: FiniteVector) -> LogReal:
            return LogReal.from_float(
                sum(math.sqrt(abs(c.to_float())) for c in v.coords.values()) ** 2)

        sizes = []

        def counted(dim, count):
            net = _directions(dim, count)
            sizes.append(len(net))
            return net

        monkeypatch.setattr("orliczlab.abstract_renorm._directions", counted)
        with pytest.raises(ValueError, match="could not reach .* up to 546 directions"):
            build_norming_family(quasi, 3, eps=0.009, validation_samples=16)
        assert sizes == [546]

    def test_negative_validation_samples_rejected(self):
        # 0 too: it used to return the first net's family unchecked
        for samples in (-3, 0):
            with pytest.raises(ValueError, match="validation_samples"):
                build_norming_family(l1_oracle, 2, eps=0.3, validation_samples=samples)
        with pytest.raises(ValueError, match="validation_samples"):
            assemble_norming_family(l1_oracle, eps=[0.3, 0.3], eta=[0.5, 0.5],
                                    validation_samples=-1)

    @pytest.mark.parametrize("oracle_name, dim, eps, seed", [
        ("l2", 2, 0.2, 9), ("l1", 2, 0.3, 5), ("l1", 3, 0.2, 5), ("triple", 3, 0.35, 2),
    ])
    def test_opposite_functionals_share_scale(self, oracle_name, dim, eps, seed, triple_oracle):
        oracle = {"l1": l1_oracle, "l2": l2_oracle, "triple": triple_oracle}[oracle_name]
        W = build_norming_family(oracle, dim, eps=eps, seed=seed)
        scales = {w.coefficients: w.scale for w in W}
        pairs = 0
        for w in W:
            neg = tuple(-c for c in w.coefficients)
            if neg in scales:
                assert scales[neg] == w.scale
                pairs += 1
        assert pairs >= len(W) // 2

    def test_degenerate_oracle_rejected(self):
        def broken(v: FiniteVector) -> LogReal:
            return abs(v.get(1))  # vanishes on e_2

        with pytest.raises(ValueError):
            build_norming_family(broken, 2, eps=0.2)


class TestRhoEval:
    def test_single_level_collapse(self, triple_oracle):
        W = build_norming_family(triple_oracle, 1, eps=0.4)
        fam = NormingFamily([NormingLevel(1, W, eps=0.4, eta=0.6)])
        x = FiniteVector.from_floats([0.7])
        want = 1.6 * max(abs(w.pair_floats([0.7])) for w in W)
        assert rho_eval(fam, x).to_float() == pytest.approx(want, rel=1e-10)

    def test_zero_vector(self, triple_oracle):
        W = build_norming_family(triple_oracle, 1, eps=0.4)
        fam = NormingFamily([NormingLevel(1, W, eps=0.4, eta=0.6)])
        assert rho_eval(fam, FiniteVector({})) == ZERO

    def test_support_beyond_levels_rejected(self, triple_oracle):
        W = build_norming_family(triple_oracle, 1, eps=0.4)
        fam = NormingFamily([NormingLevel(1, W, eps=0.4, eta=0.6)])
        with pytest.raises(ValueError):
            rho_eval(fam, FiniteVector.from_floats([1.0, 1.0]))

    def test_three_level_sandwich(self, triple_oracle):
        fam = assemble_norming_family(
            triple_oracle, eps=[0.2, 0.25, 0.3], eta=[0.5, 0.45, 0.4], seed=11
        )
        rng = random.Random(77)
        for _ in range(200):
            dim = rng.randint(1, 3)
            x = FiniteVector.from_floats([rng.uniform(-1, 1) for _ in range(dim)])
            if x.is_zero:
                continue
            t = triple_oracle(x).to_float()
            r = rho_eval(fam, x).to_float()
            assert t * (1 - 1e-9) <= r <= 2 * t * (1 + 1e-9)

    def test_seminorm_axioms(self, triple_oracle):
        fam = assemble_norming_family(
            triple_oracle, eps=[0.2, 0.25], eta=[0.5, 0.45], seed=3
        )
        rng = random.Random(8)
        for _ in range(100):
            a = FiniteVector.from_floats([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            b = FiniteVector.from_floats([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            lam = LogReal.from_float(rng.choice([-1, 1]) * 2.0 ** rng.uniform(-3, 3))
            va, vb = rho_eval(fam, a).to_float(), rho_eval(fam, b).to_float()
            assert rho_eval(fam, added(a, b)).to_float() <= (va + vb) * (1 + 1e-10)
            assert rho_eval(fam, scaled(a, lam)).to_float() == pytest.approx(
                abs(lam.to_float()) * va, rel=1e-10, abs=1e-300
            )

    def test_level_validation(self):
        w = SectionFunctional(1, (1.0,))
        with pytest.raises(ValueError):
            NormingLevel(1, [w], eps=0.5, eta=0.4)  # needs eta > eps

    def test_family_render(self, triple_oracle):
        """Each `w` line lists repr(c * scale) of one functional, under the
        header of its level, in the family's order."""
        fam = assemble_norming_family(
            triple_oracle, eps=[0.3, 0.35], eta=[0.6, 0.5], seed=21
        )
        assert [lvl.level for lvl in fam.levels] == [1, 2]
        lines = iter(fam.render().splitlines())
        for lvl in fam.levels:
            assert next(lines) == f"level {lvl.level} eps = {lvl.eps!r} eta = {lvl.eta!r}"
            for w in lvl.functionals:
                head, coeffs = next(lines).split(" = ")
                assert head == f"w {lvl.level}"
                assert coeffs.split() == [repr(c * w.scale) for c in w.coefficients]
        assert next(lines, None) is None


class TestPreciselyNorming:
    def test_l1_attains_exactly(self):
        W = build_norming_family(l1_oracle, 2, eps=0.3, seed=5)
        rng = random.Random(44)
        pts = [
            FiniteVector.from_floats([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            for _ in range(100)
        ]
        rep = check_precisely_norming(W, l1_oracle, pts, Tolerance(rel=1e-8))
        assert rep.summary["attained"] == rep.summary["samples"]
        assert rep.summary["worst_gap_rel"] <= 1e-8

    def test_euclidean_generic_gap_flagged(self):
        W = build_norming_family(l2_oracle, 2, eps=0.2, seed=9)
        rng = random.Random(45)
        pts = [
            FiniteVector.from_floats([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            for _ in range(50)
        ]
        rep = check_precisely_norming(W, l2_oracle, pts, Tolerance(rel=1e-8))
        assert rep.summary["attained"] < rep.summary["samples"]
        assert rep.summary["worst_gap_rel"] > 1e-4

    def test_exact_functionals_attain_by_construction(self):
        rng = random.Random(46)
        pts = [
            FiniteVector.from_floats([rng.uniform(-1, 1), rng.uniform(-1, 1)])
            for _ in range(20)
        ]
        # one exact norming functional per sample point (euclidean duality)
        W = []
        for p in pts:
            c = [p.get(1).to_float(), p.get(2).to_float()]
            n = math.hypot(*c)
            W.append(SectionFunctional(2, (c[0] / n, c[1] / n)))
        rep = check_precisely_norming(W, l2_oracle, pts, Tolerance(rel=1e-10))
        assert rep.summary["attained"] == rep.summary["samples"]

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            check_precisely_norming([], l2_oracle, [], Tolerance(rel=1e-8))
