"""Finite norming machinery on low-dimensional basis sections.

Two seminorm shapes are implemented.  The projection seminorm takes a list of
functionals w_k with cutoffs n_k and weights (1 + eps_k) and evaluates

    sup_k (1 + eps_k) max_{1 <= n <= n_k} |<P_n x, w_k>| .

The leveled seminorm takes, for each section dimension j <= J, a finite set
W_j that (1 + eps_j)-norms the section, and evaluates

    sup_{n <= J} (1 + eta_n) max_{j <= n} max_{w in W_j} |<P_j x, w>| .

Every pairing <P_j x, w> goes through SectionFunctional.pair_floats: the
coordinates 1..j of x are framed once per call as floats relative to 2^top,
top their largest log2 magnitude, and one LogReal is built from the result.

Norming sets are ±W by construction: each direction u of an angular net is
normed once and, unless a g in W already attains the norm at u, adds to W a
finite-difference supporting functional g of the section norm, rescaled into
the dual ball as witnessed on the net and the validation samples.  The set
returned is g, -g for each g of W, -g by exact negation with g's scale, so
nothing needs deduplicating.  The two-sided sandwich is validated on the
seeded sample grid (a finite certificate, not a proof).  The dimension cap of
3 and a cap on the net size keep every net small enough to check in seconds.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from operator import mul
from typing import Callable, Sequence

from .logreal import LogReal, Tolerance, ZERO
from .reports import CheckRow, Report
from .vectors import FiniteVector

NormOracle = Callable[[FiniteVector], LogReal]

_MAX_SECTION_DIM = 3
# net doublings before build_norming_family gives up, and the relative
# central-difference step of its supporting functionals
_MAX_REFINEMENTS = 6
_FD_STEP_REL = 1e-7
# relative slack of the sandwich's lower side in the validation
_ATTAIN_SLACK = 1e-9
# "a kept g attains the norm at the unit point u" is |g(u)| >= 1 - _FD_SLACK.
# On a facet the section norm f is linear, so the central difference
# g_i = (f(u + h e_i) - f(u - h e_i)) / 2h, h = _FD_STEP_REL, errs by
# rounding only: two values near 1, each off by 2^-52 (the oracle's rounding
# and that of u_i +- h), put g_i within 2^-52 / h, and g(u) within
# 2^-52 / h * sum |u_i| of 1.  The dual-ball rescale, set at another point of
# the facet, errs as much again, so 2^-50 / h ~ 8.9e-9 covers both where
# sum |u_i| <= 2.  The largest rescale measured on l1, l2, l3, Luxemburg and
# triple-norm sections is 1 + 2.6e-9.
_FD_SLACK = 2.0**-50 / _FD_STEP_REL
# largest direction net build_norming_family builds; c09's dim-3 nets have
# 86-114 directions
_MAX_NET_DIRECTIONS = 2048


@dataclass(frozen=True)
class SectionFunctional:
    """Linear action on span{e_1..e_level} by coordinate pairing."""

    level: int
    coefficients: tuple[float, ...]
    scale: float = 1.0

    def __post_init__(self) -> None:
        if len(self.coefficients) != self.level:
            raise ValueError(
                f"coefficient list has length {len(self.coefficients)}, "
                f"expected level {self.level}"
            )

    def pair_floats(self, coords: Sequence[float]) -> float:
        # map stops at the shorter of coefficients and coords
        return self.scale * sum(map(mul, self.coefficients, coords))


def _framed(x: FiniteVector, j: int) -> tuple[float, list[float]]:
    """Coordinates 1..j of x as floats relative to 2^top, top their largest
    log2 magnitude; those ~1074 binades below it become 0."""
    k = bisect_right(x.indices, j)
    top = max(x.log2mags[:k], default=0.0)
    coords = [0.0] * j
    for i, s, v in zip(x.indices[:k], x.signs, x.log2mags):
        coords[i - 1] = s * 2.0 ** (v - top)
    return top, coords


def _unframed(v: float, top: float) -> LogReal:
    """The LogReal v 2^top."""
    if v == 0.0:
        return ZERO
    return LogReal(1 if v > 0.0 else -1, math.log2(abs(v)) + top)


@dataclass
class ProjectionSeminormSpec:
    """Functionals, cutoffs and weight/defect sequences for the projection
    seminorm; (1 + eps_k)(1 - 2 delta_k) must exceed 1 for every k."""

    functionals: list[SectionFunctional]
    cutoffs: list[int]
    eps: list[float]
    delta: list[float]

    def __post_init__(self) -> None:
        n = len(self.functionals)
        if n == 0:
            raise ValueError("projection seminorm needs at least one functional")
        if not (len(self.cutoffs) == len(self.eps) == len(self.delta) == n):
            raise ValueError("functionals, cutoffs, eps and delta must have equal length")
        for k, (e, d) in enumerate(zip(self.eps, self.delta), start=1):
            if not (0.0 < e < 1.0 and 0.0 <= d < 0.5):
                raise ValueError(f"eps_{k} = {e}, delta_{k} = {d} out of range")
            if not (1.0 + e) * (1.0 - 2.0 * d) > 1.0:
                raise ValueError(
                    f"(1 + eps_{k})(1 - 2 delta_{k}) = {(1 + e) * (1 - 2 * d)} is not > 1"
                )


def projection_seminorm(spec: ProjectionSeminormSpec, x: FiniteVector) -> LogReal:
    """sup over k of (1 + eps_k) max_{n <= n_k} |<P_n x, w_k>|."""
    limits = [min(n_k, w.level) for w, n_k in zip(spec.functionals, spec.cutoffs)]
    top, coords = _framed(x, max(limits))
    best = 0.0
    for w, j, e in zip(spec.functionals, limits, spec.eps):
        # cutoffs beyond the level repeat the pairing at the level
        for n in range(1, j + 1):
            best = max(best, abs(w.pair_floats(coords[:n])) * (1.0 + e))
    return _unframed(best, top)


@dataclass
class NormingLevel:
    level: int
    functionals: list[SectionFunctional]
    eps: float
    eta: float

    def __post_init__(self) -> None:
        if not (1.0 > self.eta > self.eps > 0.0):
            raise ValueError(
                f"need 1 > eta > eps > 0 at level {self.level}, "
                f"got eta={self.eta} eps={self.eps}"
            )


@dataclass
class NormingFamily:
    levels: list[NormingLevel] = field(default_factory=list)

    @property
    def top_level(self) -> int:
        return max(l.level for l in self.levels) if self.levels else 0

    def render(self) -> str:
        """Plain-text block: one `level` header plus one line per functional."""
        lines = []
        for lvl in sorted(self.levels, key=lambda l: l.level):
            lines.append(f"level {lvl.level} eps = {lvl.eps!r} eta = {lvl.eta!r}")
            for w in lvl.functionals:
                coeffs = " ".join(repr(c * w.scale) for c in w.coefficients)
                lines.append(f"w {lvl.level} = {coeffs}")
        return "\n".join(lines) + "\n"


def _directions(dim: int, count: int) -> list[tuple[float, ...]]:
    """Roughly uniform unit directions; count is a per-circle resolution."""
    if dim == 1:
        return [(1.0,), (-1.0,)]
    if dim == 2:
        out = []
        for i in range(count):
            a = 2.0 * math.pi * (i + 0.5) / count
            out.append((math.cos(a), math.sin(a)))
        return out
    out = [(0.0, 0.0, 1.0), (0.0, 0.0, -1.0)]
    rings = max(3, count // 2)
    for r in range(1, rings):
        incl = math.pi * r / rings
        for i in range(count):
            a = 2.0 * math.pi * (i + 0.5) / count
            out.append(
                (math.sin(incl) * math.cos(a), math.sin(incl) * math.sin(a), math.cos(incl))
            )
    return out


def _net_size(dim: int, count: int) -> int:
    """len(_directions(dim, count)) for dim 2 and 3, without building the net."""
    if dim == 2:
        return count
    return 2 + (max(3, count // 2) - 1) * count


def _norm_float(oracle: NormOracle, coords: Sequence[float]) -> float:
    return oracle(FiniteVector.from_floats(coords)).to_float()


def _subgradient(oracle: NormOracle, point: Sequence[float]) -> list[float]:
    """Central finite differences of the section norm at a generic point."""

    def norm_at(i: int, h: float) -> float:
        return _norm_float(oracle, [c + h if k == i else c for k, c in enumerate(point)])

    h = _FD_STEP_REL
    return [(norm_at(i, h) - norm_at(i, -h)) / (2.0 * h) for i in range(len(point))]


def _sample_points(dim: int, count: int, rng: random.Random) -> list[list[float]]:
    pts = []
    while len(pts) < count:
        p = [rng.uniform(-1.0, 1.0) for _ in range(dim)]
        if max(abs(c) for c in p) > 1e-3:
            pts.append(p)
    return pts


def build_norming_family(
    norm_oracle: NormOracle,
    dim: int,
    eps: float,
    seed: int = 0,
    validation_samples: int = 256,
) -> list[SectionFunctional]:
    """Finite W with (1+eps)^(-1) ||x|| <= max_W |w(x)| <= ||x|| on the section.

    W is ±kept, returned as g, -g for each kept g in turn.  Directions u on an
    angular net, in net order, each add to `kept` a finite-difference
    supporting functional g, rescaled into the dual ball as witnessed on the
    net and the validation samples, unless a kept g already has
    |g(u)| >= 1 - _FD_SLACK at the normalised u.  A skipped u is one of those
    witnesses, so the kept g already supports the section there, and the skip
    keeps both sides of the sandwich: the upper side holds for every g, and
    the lower side is decided by the validation, for which `kept` suffices as
    |-g(p)| is |g(p)|.  The net is refined until the sandwich holds on a
    seeded sample of `validation_samples` points, which must be at least 1:
    with none, nothing would check the lower side.

    No net above 2048 directions is built: an eps whose first net exceeds it
    (below about 2.35e-6 in dim 2 and 2.34e-3 in dim 3) raises ValueError, and
    refinement stops before the cap with the "could not reach" ValueError.
    """
    if dim < 1 or dim > _MAX_SECTION_DIM:
        raise ValueError(f"section dimension must be 1..{_MAX_SECTION_DIM}, got {dim}")
    if not eps > 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    if validation_samples < 1:
        raise ValueError(f"validation_samples must be >= 1, got {validation_samples}")

    for i in range(dim):
        unit = [0.0] * dim
        unit[i] = 1.0
        n_unit = _norm_float(norm_oracle, unit)
        if n_unit <= 0.0:
            raise ValueError(f"norm oracle vanishes on e_{i + 1}; not a norm")

    if dim == 1:
        # the two dual-ball extreme points: w(c e_1) = c ||e_1|| = ||c e_1||
        return [SectionFunctional(1, (n_unit,)), SectionFunctional(1, (-n_unit,))]

    # initial angular resolution from the euclidean support-function bound
    # 1/cos(theta/2) - 1 <= eps/2, then refine on validation failure
    theta = 2.0 * math.acos(1.0 / (1.0 + min(eps, 1.0) / 2.0))
    if theta > 0.0:
        count = max(6, int(math.ceil(2.0 * math.pi / theta)))
        size = _net_size(dim, count)
    else:  # 1 + eps/2 rounds to 1
        size = math.inf
    if size > _MAX_NET_DIRECTIONS:
        raise ValueError(
            f"eps = {eps} needs a first net of {size} directions in dimension {dim}, "
            f"beyond the cap of {_MAX_NET_DIRECTIONS}"
        )

    rng = random.Random(seed)
    samples = _sample_points(dim, validation_samples, rng)
    sample_norms = [_norm_float(norm_oracle, p) for p in samples]
    lower = 1.0 / (1.0 + eps)
    bounds = [lower * n * (1.0 - _ATTAIN_SLACK) for n in sample_norms]

    for _ in range(_MAX_REFINEMENTS):
        net = _directions(dim, count)
        net_norms = [_norm_float(norm_oracle, d) for d in net]
        if min(net_norms) <= 0.0:
            d = net[net_norms.index(min(net_norms))]
            raise ValueError(f"norm oracle vanishes at direction {d}; not a norm")
        # the dual ball as witnessed on samples + net
        probe = samples + net
        probe_norms = sample_norms + net_norms
        kept: list[SectionFunctional] = []
        for d, nd in zip(net, net_norms):
            # a point on the unit sphere of the section norm
            u = [c / nd for c in d]
            if any(abs(w.pair_floats(u)) >= 1.0 - _FD_SLACK for w in kept):
                continue
            g = SectionFunctional(dim, tuple(_subgradient(norm_oracle, u)))
            c_g = max(abs(g.pair_floats(p)) / n for p, n in zip(probe, probe_norms))
            kept.append(SectionFunctional(dim, g.coefficients, 1.0 / c_g if c_g > 1.0 else 1.0))
        if all(any(abs(w.pair_floats(p)) >= b for w in kept)
               for p, b in zip(samples, bounds)):
            # negation is exact, so -g keeps g's scale bit for bit
            return [v for w in kept for v in
                    (w, SectionFunctional(dim, tuple(-c for c in w.coefficients), w.scale))]
        count *= 2
        if _net_size(dim, count) > _MAX_NET_DIRECTIONS:
            break
    raise ValueError(
        f"could not reach the (1+{eps})-sandwich on nets of up to {len(net)} directions"
    )


def assemble_norming_family(
    norm_oracle: NormOracle,
    eps: Sequence[float],
    eta: Sequence[float],
    seed: int = 0,
    validation_samples: int = 256,
) -> NormingFamily:
    """Per-level norming sets over sections of dimension 1..len(eps)."""
    if len(eps) != len(eta):
        raise ValueError("eps and eta must have equal length")
    levels = []
    for j, (e, h) in enumerate(zip(eps, eta), start=1):
        funcs = build_norming_family(
            norm_oracle, j, e, seed=seed + j, validation_samples=validation_samples
        )
        levels.append(NormingLevel(level=j, functionals=funcs, eps=e, eta=h))
    return NormingFamily(levels=levels)


def rho_eval(family: NormingFamily, x: FiniteVector) -> LogReal:
    """sup over n <= J of (1 + eta_n) max_{j <= n} max_{W_j} |<P_j x, w>|."""
    J = family.top_level
    if x.max_index > J:
        raise ValueError(
            f"support reaches index {x.max_index}, beyond the family's top level {J}"
        )
    top, coords = _framed(x, J)
    best = inner = 0.0
    for lvl in sorted(family.levels, key=lambda l: l.level):
        section = coords[: lvl.level]
        for w in lvl.functionals:
            inner = max(inner, abs(w.pair_floats(section)))
        best = max(best, inner * (1.0 + lvl.eta))
    return _unframed(best, top)


def check_precisely_norming(
    W: Sequence[SectionFunctional],
    norm_oracle: NormOracle,
    samples: Sequence[FiniteVector],
    tol: Tolerance,
) -> Report:
    """Per-sample attainment certificate: does max_W |w(x)| reach ||x||?

    This is a finite-sample check; it can refute but never prove the
    precise-norming property.
    """
    if not W:
        raise ValueError("empty functional set")
    level = max(w.level for w in W)
    rows = []
    worst_gap = 0.0
    for i, x in enumerate(samples):
        nx = norm_oracle(x).to_float()
        top, coords = _framed(x, level)
        best = _unframed(max(abs(w.pair_floats(coords)) for w in W), top).to_float()
        gap = (nx - best) / nx if nx > 0 else 0.0
        worst_gap = max(worst_gap, gap)
        rows.append(
            CheckRow(
                check="attainment",
                indices=(i,),
                lhs_log2=math.log2(best) if best > 0 else -math.inf,
                rhs_log2=math.log2(nx) if nx > 0 else -math.inf,
                margin_log2=gap,
                passed=gap <= tol.rel,
                note="attained" if gap <= tol.rel else f"gap={gap:.3e}",
            )
        )
    attained = sum(1 for r in rows if r.passed)
    return Report(
        name="precisely-norming",
        rows=rows,
        summary={
            "samples": len(rows),
            "attained": attained,
            "worst_gap_rel": worst_gap,
        },
    )
