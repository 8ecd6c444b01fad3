"""The model apartment: pairing, metric, isometries, sectors, germs, galleries.

Points are tuples of :class:`~lbk.lexq.LambdaScalar` holding the coefficients
of a vector in the simple-root base.  All set-valued reasoning happens through
:class:`ConvexRegion` (finite intersections of half-apartments).  A point's
membership is one integer pass over the positive roots, read against a region's
halves as int rows (:meth:`Apartment.holds`).  Every side-of-a-wall test is one primitive: the sign of a pass
against a wall, cross-multiplied as ints (:meth:`Apartment.sign`), read by one half rule that also decides germs
(:meth:`Apartment.admits`); region, cell-table, sector and pass-to-pass tests all read these two
(:meth:`Apartment.pass_signs`, :meth:`Apartment.sector_through`).  An isometry moves a point in one ``M x + s``
pass (:meth:`AffineIsometry.apply`), and distances and moved points' passes are read off passes by
cross-multiplying their ints (:meth:`Apartment.pass_metric`, :meth:`Apartment.move_pass`).  Sector, panel and germ
fits are cone-sign tests (:meth:`Apartment.caps`), and
half-apartment shapes are read from one shared root (:meth:`Apartment.region_half`).  Emptiness, containment,
equality and the cocycle's row checks read one normal form, the region's tight root bounds (:meth:`Apartment.bounds`),
from its basic dual solutions (:meth:`Apartment.floor`); Fourier-Motzkin runs only where a witness point is used
(:meth:`Apartment.region_feasible`, :meth:`Apartment.open_cells`).  A "no" carries no certificate yet (ROADMAP item 6).

Index conventions: simple roots, reflection generators, coordinates v^i and
sector-panel types are 1-based, matching the a1/a2 syntax of model files.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import lcm
from operator import mul
from typing import Iterable, Optional, Sequence
from weakref import proxy

from .lexq import LambdaScalar
from .linarith import (
    GE,
    GT,
    ConstraintSystem,
    Feasibility,
    LinearConstraint,
    feasible,
)
from .records import Value, set_field
from .rootsystem import Root, RootSystem, WeylElement

Point = tuple[LambdaScalar, ...]
Pass = tuple[int, list[list[int]]]  # (d, dots) of :meth:`Apartment.root_dots`
Rows = tuple[tuple[int, int, tuple[int, ...], int], ...]  # (k, sense, nums, den) per half, :meth:`Apartment.rows`
MAX_LEX_RANK = 16  # scalars are tuples of this many rationals at most


def format_point(p: Sequence[LambdaScalar]) -> str:
    return "(" + ",".join(str(c) for c in p) + ")"


def memoize(obj: object, *names: str) -> None:
    """Cache each named method of obj per instance, in obj's own dict.  The cache calls the method through a
    weak proxy of obj, so no table holds obj: obj is freed by reference count, and its tables with it."""
    me = proxy(obj)
    for name in names:
        setattr(obj, name, cache(getattr(type(obj), name).__get__(me)))


class _KeptHash(Value):
    """A value whose hash, its fields' tuple's, is kept in its instance dict once computed, as LambdaScalar keeps
    its own: memo and table keys would hash every field again on each lookup.  Copies and pickles go through
    ``__init__``, so they carry the fields, not the kept hash."""

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(self._values(self))
            return value


class AffineIsometry(_KeptHash):
    """v -> linear(v) + shift, with the linear part in the reflection group.  Memos key moves by the isometry."""

    __slots__ = ("linear", "shift")

    def __init__(self, linear: WeylElement, shift: Point):
        set_field(self, "linear", linear)
        set_field(self, "shift", shift)

    def apply(self, point: Point) -> Point:
        return LambdaScalar.affine(self.linear.matrix, point, self.shift)

    def compose(self, other: "AffineIsometry") -> "AffineIsometry":
        """self after other: its shift is self applied to other's, in one ``M x + s`` pass."""
        return AffineIsometry(self.linear * other.linear, LambdaScalar.affine(self.linear.matrix, other.shift, self.shift))

    def inverse(self) -> "AffineIsometry":
        """v -> w^-1 v - w^-1 s: the shift is (-w^-1) s + 0, one ``M x + s`` pass."""
        inv, zero = self.linear.inverse(), LambdaScalar.zero(self.shift[0].rank)
        negated = [[-a for a in row] for row in inv.matrix]
        return AffineIsometry(inv, LambdaScalar.affine(negated, self.shift, [zero] * len(self.shift)))

    def is_identity(self) -> bool:
        return self.linear.is_identity() and all(c.is_zero() for c in self.shift)


class HalfApartment(Value):
    """{v : (root, v) >= bound} when sense=+1, <= when sense=-1.

    The stored root is always the positive representative; flipping the sign
    of a root flips the sense and negates the bound instead.
    """

    __slots__ = ("root", "sense", "bound")

    def __init__(self, root: Root, sense: int, bound: LambdaScalar):
        set_field(self, "root", root)
        set_field(self, "sense", sense)
        set_field(self, "bound", bound)


class ConvexRegion(_KeptHash):
    """Finite intersection of half-apartments (closed by construction)."""

    __slots__ = ("halves",)

    def __init__(self, halves: tuple[HalfApartment, ...]):
        set_field(self, "halves", halves)


class Sector(Value):
    """base + direction(fundamental cone)."""

    __slots__ = ("base", "direction")

    def __init__(self, base: Point, direction: WeylElement):
        set_field(self, "base", base)
        set_field(self, "direction", direction)

    def germ(self) -> "SectorGerm":
        return SectorGerm(self)


class SectorGerm(Value):
    """A sector taken only near its base point."""

    __slots__ = ("sector",)

    def __init__(self, sector: Sector):
        set_field(self, "sector", sector)

    @property
    def base(self) -> Point:
        return self.sector.base

    @property
    def direction(self) -> WeylElement:
        return self.sector.direction


class RegionShape(Value):
    """Classification of a convex region.

    kind is one of "empty", "half-apartment", "wall", "other"; a half fills
    root, sense and bound, a wall root and bound.
    """

    __slots__ = ("kind", "root", "sense", "bound")

    def __init__(self, kind: str, root: Optional[Root] = None, sense: int = 0, bound: Optional[LambdaScalar] = None):
        set_field(self, "kind", kind)
        set_field(self, "root", root)
        set_field(self, "sense", sense)
        set_field(self, "bound", bound)


class Apartment:
    """Geometry of one model apartment over lex rationals of a fixed rank.

    Values are immutable and operations pure; the internal caches are
    idempotent (same key always recomputes the same entry), so instances can
    be shared between threads without coordination.
    """

    def __init__(self, roots: RootSystem, lex_rank: int = 1):
        if not 1 <= lex_rank <= MAX_LEX_RANK:
            raise ValueError(f"lex rank must be in 1..{MAX_LEX_RANK}, got {lex_rank}")
        self.roots = roots
        self.rank = roots.rank
        self.lex_rank = lex_rank
        d = roots.sym
        a = roots.cartan
        self.pairing_matrix: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(d[i] * a[i][j] for j in range(self.rank)) for i in range(self.rank)
        )
        self._pairing_rows: dict[Root, tuple[Fraction, ...]] = {}
        # The positive roots' pairing rows as ints over one common denominator, for metric.
        rows = [self.pairing_row(r) for r in roots.positive_roots]
        self._metric_den = lcm(*(c.denominator for row in rows for c in row))
        self._metric_rows = tuple(
            tuple(c.numerator * (self._metric_den // c.denominator) for c in row) for row in rows
        )
        self._positive_index = {r: k for k, r in enumerate(roots.positive_roots)}
        self._inverse = _invert(self.pairing_matrix)
        # Dual basis: (alpha_j, u_i) = delta_ij; these span the fundamental cone.
        self.cone_basis: tuple[tuple[Fraction, ...], ...] = tuple(
            tuple(self._inverse[j][i] for j in range(self.rank)) for i in range(self.rank)
        )
        memoize(self, "bases", "block", "bounds", "region_satisfies", "rows", "cone_slopes", "sector_walls", "pass_moves",
                "sector_through", "sector_fits")

    # -- scalars and points ---------------------------------------------

    def scalar(self, value) -> LambdaScalar:
        if isinstance(value, LambdaScalar):
            if value.rank != self.lex_rank:
                raise ValueError("scalar has the wrong lex rank")
            return value
        return LambdaScalar.rational(value, self.lex_rank)

    def zero(self) -> LambdaScalar:
        return LambdaScalar.zero(self.lex_rank)

    def origin(self) -> Point:
        return tuple(self.zero() for _ in range(self.rank))

    def point(self, coords: Iterable) -> Point:
        out = tuple(self.scalar(c) for c in coords)
        if len(out) != self.rank:
            raise ValueError(f"expected {self.rank} coordinates, got {len(out)}")
        return out

    def simple_point(self, *rationals) -> Point:
        """Convenience: a point with purely rational coordinates."""
        return self.point([Fraction(q) for q in rationals])

    # -- pairing, metric, coordinates ------------------------------------

    def check_root(self, root: Sequence[int]) -> Root:
        r = tuple(int(c) for c in root)
        if not self.roots.is_root(r):
            raise ValueError(f"{r} is not a root of the system")
        return r

    def pairing_row(self, root: Sequence[int]) -> tuple[Fraction, ...]:
        """Coefficients of (root, .) in the simple-root base.

        The cache holds roots only, so a hit needs no validation; a miss
        validates the root and raises ValueError for a non-root.  It is a
        dict, not a ``functools.cache``: a root may come as any sequence,
        a list included, and only a miss converts and checks it.
        """
        row = self._pairing_rows.get(root) if type(root) is tuple else None
        if row is None:
            r = self.check_root(root)
            row = tuple(
                sum(Fraction(r[i]) * self.pairing_matrix[i][j] for i in range(self.rank))
                for j in range(self.rank)
            )
            self._pairing_rows[r] = row
        return row

    def pairing(self, root: Sequence[int], v: Point) -> LambdaScalar:
        """(alpha, v) = sum_j d_i a_ij lambda_j, extended linearly over Phi."""
        return LambdaScalar.lincomb(self.pairing_row(root), v)

    def metric(self, v1: Point, v2: Point) -> LambdaScalar:
        """d(v1,v2): sum over positive roots of |(alpha, v1 - v2)|, from the two points' passes (:meth:`pass_metric`)."""
        return self.pass_metric(self.root_dots(v1), self.root_dots(v2))

    def coordinate(self, v: Point, i: int, w: Optional[WeylElement] = None) -> LambdaScalar:
        """v^{w(alpha_i)} = (alpha_i, w^-1(v)) / 2 (1-based i)."""
        u = v if w is None else w.inverse().act_point(v)
        return self.pairing(self.roots.simple_root(i), u) / 2

    def coordinates(self, v: Point, w: Optional[WeylElement] = None) -> tuple[LambdaScalar, ...]:
        return tuple(self.coordinate(v, i, w) for i in range(1, self.rank + 1))

    def point_from_coordinates(self, values: Sequence[LambdaScalar]) -> Point:
        """Invert v -> (v^1..v^n); points are determined by their coordinates."""
        return tuple(LambdaScalar.lincomb([2 * c for c in row], values) for row in self._inverse)

    def isometry(self, w: WeylElement, shift: Optional[Point] = None) -> AffineIsometry:
        return AffineIsometry(w, tuple(shift) if shift is not None else self.origin())

    # -- half-apartments and regions --------------------------------------

    def half(self, root: Sequence[int], sense: int, bound: LambdaScalar) -> HalfApartment:
        r = self.check_root(root)
        b = self.scalar(bound)
        if sense not in (1, -1):
            raise ValueError("sense must be +1 (>=) or -1 (<=)")
        if not self.roots.is_positive_root(r):
            r = tuple(-c for c in r)
            sense = -sense
            b = -b
        return HalfApartment(r, sense, b)

    def half_region(self, root: Sequence[int], sense: int, bound) -> ConvexRegion:
        return ConvexRegion((self.half(root, sense, self.scalar(bound)),))

    def wall_region(self, root: Sequence[int], bound) -> ConvexRegion:
        b = self.scalar(bound)
        return ConvexRegion((self.half(root, 1, b), self.half(root, -1, b)))

    def whole_region(self) -> ConvexRegion:
        return ConvexRegion(())

    def region(self, halves: Iterable[HalfApartment]) -> ConvexRegion:
        return ConvexRegion(tuple(dict.fromkeys(halves)))

    def intersect(self, *regions: ConvexRegion) -> ConvexRegion:
        halves: list[HalfApartment] = []
        for r in regions:
            halves.extend(r.halves)
        return self.region(halves)

    def half_constraint(self, h: HalfApartment) -> LinearConstraint:
        row = self.pairing_row(h.root)
        if h.sense == 1:
            return LinearConstraint(row, GE, h.bound)
        return LinearConstraint(tuple(-c for c in row), GE, -h.bound)

    def region_system(self, region: ConvexRegion) -> ConstraintSystem:
        return ConstraintSystem(self.rank, tuple(self.half_constraint(h) for h in region.halves))

    def root_dots(self, p: Point) -> Pass:
        """(d, dots): per positive root beta_k, the lex components of d * (beta_k, p) as ints
        over one d > 0, from one integer pass over the metric rows; no scalar is built."""
        if len(p) != self.rank:  # the rows pair with the coordinates as zip pairs them
            raise ValueError("point has the wrong number of coordinates")
        d, dots = LambdaScalar.dots(self._metric_rows, p)
        if len(dots[0]) != self.lex_rank:  # a pass is compared with bounds and passes of this rank
            raise ValueError("point has the wrong lex rank")
        return d * self._metric_den, dots

    def pass_metric(self, pp: Pass, pq: Pass) -> LambdaScalar:
        """d(p, q) from the passes of p and q (:meth:`root_dots`): the sum over positive roots of
        |dots_p[k] * d_q - dots_q[k] * d_p| / (d_p * d_q), cross-multiplied and summed as ints."""
        (dp, p), (dq, q) = pp, pq
        diffs = ([a * dq - b * dp for a, b in zip(x, y)] for x, y in zip(p, q))
        return LambdaScalar.sum_abs(diffs, self.lex_rank, dp * dq)

    def pass_signs(self, pt: Pass, pb: Pass) -> tuple[int, ...]:
        """Per positive root beta_k, the sign of (beta_k, t - b): the :meth:`sign` of t's pass against b's dots over b's d."""
        sign, (db, b) = self.sign, pb
        return tuple([sign(pt, k, nums, db) for k, nums in enumerate(b)])

    def move_pass(self, iso: AffineIsometry, pp: Pass) -> Pass:
        """The pass of iso(p) from p's pass, with no point moved: (beta_k, w p + s) = e * (beta_j, p) + (beta_k, s)
        where w^-1 beta_k = e * beta_j (:meth:`pass_moves`), over d_p * d_s."""
        (dp, p), (perm, (ds, s)) = pp, self.pass_moves(iso)
        return dp * ds, [[e * a * ds + b * dp for a, b in zip(p[j], t)] for (j, e), t in zip(perm, s)]

    def pass_moves(self, iso: AffineIsometry) -> tuple[tuple[tuple[int, int], ...], Pass]:
        """What :meth:`move_pass` reads of an isometry, cached per isometry: per positive root beta_k the pair (j, e)
        with w^-1 beta_k = e * beta_j (:meth:`cone_slopes`; a root's coefficients share one sign), and the shift's pass."""
        index, slopes = self._positive_index, [self.cone_slopes(iso.linear, r) for r in self.roots.positive_roots]
        return tuple((index[tuple(map(abs, r))], 1 if max(r) > 0 else -1) for r in slopes), self.root_dots(iso.shift)

    def rows(self, region: ConvexRegion) -> Rows:
        """The region's halves as int rows (k, sense, nums, den): the root is the k-th positive root, which
        :meth:`half` stores, and the bound is nums/den, for :meth:`holds`.  Cached per region."""
        return tuple((self._positive_index[h.root], h.sense, *h.bound.ints) for h in region.halves)

    def sign(self, pass_: Pass, k: int, nums: Sequence[int], den: int) -> int:
        """The one side test: the sign of (beta_k, p) - nums/den for the point p of this pass (:meth:`root_dots`), for
        den > 0.  It is the sign of the first nonzero lex component of dots[k] * den - nums * d, cross-multiplied as ints."""
        d, dots = pass_
        for x, n in zip(dots[k], nums):
            if c := x * den - n * d:
                return 1 if c > 0 else -1
        return 0

    def admits(self, k: int, sense: int, side: int, direction: Optional[WeylElement] = None) -> bool:
        """The one half rule: does the half sense * (beta_k, v) >= sense * bound hold a point on this side of its wall
        (:meth:`sign`), or, given a direction, a chunk of the direction's germ there?  A point off the wall on the half's
        side keeps a positive gap, so a small enough step along every generator of the cone stays inside; a point on the
        wall holds the germ only when the half caps no generator (:meth:`caps`): its :meth:`cone_slopes` w^-1 beta_k are
        a root's coefficients, which share one sign, so it caps none exactly when sense times their sum is positive."""
        return side * sense > 0 or not side and (direction is None or sense * sum(self.cone_slopes(direction, self.roots.positive_roots[k])) > 0)

    def holds(self, rows: Rows, pass_: Pass, direction: Optional[WeylElement] = None) -> bool:
        """Do the halves of these :meth:`rows` hold the point of this pass (:meth:`root_dots`), or, given a direction,
        a chunk of its germ?  The one membership rule: each half :meth:`admits` the point's :meth:`sign` at its wall."""
        sign, admits = self.sign, self.admits
        for k, sense, nums, den in rows:
            if not admits(k, sense, sign(pass_, k, nums, den), direction):
                return False
        return True

    def region_contains_point(self, region: ConvexRegion, p: Point) -> bool:
        return self.holds(self.rows(region), self.root_dots(p))

    def region_feasible(self, region: ConvexRegion) -> Feasibility:
        """Is the region nonempty?  One FM answer, witness included, for callers that use the witness."""
        return feasible(self.region_system(region), self.lex_rank)

    def open_cells(self, halves: Iterable[HalfApartment], budget: int) -> Optional[list[Point]]:
        """One witness point per open cell of the arrangement of the halves' distinct walls, or None when the descent
        would need one FM solve more than budget: it never makes more.  A wall is keyed by (root, bound), unique since
        :meth:`half` stores the positive root.  The descent takes the walls in first-seen order and adds each one's
        strict > or < side as a row; a branch stops at its first infeasible system, and each leaf's witness lies in one cell."""
        walls = list(dict.fromkeys((h.root, h.bound) for h in halves))
        cells: list[Point] = []
        branches: list[tuple[LinearConstraint, ...]] = [()]
        while branches:
            sides = branches.pop()
            budget -= 1
            if budget < 0:
                return None
            probe = feasible(ConstraintSystem(self.rank, sides), self.lex_rank)
            if not probe.sat:
                continue
            if len(sides) == len(walls):
                cells.append(probe.witness)
                continue
            root, bound = walls[len(sides)]
            row = self.pairing_row(root)
            branches.append(sides + (LinearConstraint(tuple(-c for c in row), GT, -bound),))
            branches.append(sides + (LinearConstraint(row, GT, bound),))  # the > side is taken first
        return cells

    def bases(self, region: ConvexRegion) -> tuple:
        """The region's basic sets, for :meth:`floor`.  Its halves read as rows sense * beta >= sense * bound, the
        tightest bound per row; per linearly independent set of k <= rank rows: the rows, their bounds, the bounds' lex
        components as int columns over the region's one denominator, k columns on which the rows are independent, and
        the inverse of that block as int columns over one denominator.  Cached per region."""
        tightest = dict(sorted(((tuple(h.sense * c for c in h.root), h.bound * h.sense) for h in region.halves), key=lambda rc: rc[1]))
        d = lcm(*(b.ints[1] for b in tightest.values()))
        ints = {r: [n * (d // b.ints[1]) for n in b.ints[0]] for r, b in tightest.items()}
        out = []
        for subset in (s for k in range(1, self.rank + 1) for s in combinations(tightest.items(), k)):
            if (block := self.block(rows := tuple(r for r, _ in subset))) is not None:
                out.append((rows, [b for _, b in subset], list(zip(*(ints[r] for r in rows))), *block))
        return tuple(out)

    def block(self, rows: tuple[Root, ...]) -> Optional[tuple]:
        """For :meth:`bases`, cached per tuple of signed rows: the first k columns on which k rows are independent and the
        inverse of that block as int columns over one denominator, (cols, columns, den); None for dependent rows."""
        for cols in combinations(range(self.rank), len(rows)):
            try:
                inverse = _invert([[r[c] for c in cols] for r in rows])
            except ValueError:
                continue
            den = lcm(*(x.denominator for row in inverse for x in row))
            return cols, tuple(tuple(int(x * den) for x in col) for col in zip(*inverse)), den
        return None

    def floor(self, region: ConvexRegion, target: Sequence[Fraction]) -> Optional[LambdaScalar]:
        """inf (target, x) over a nonempty region, for a rational target in simple-root coordinates, or None when it is
        unbounded below: the greatest sum mu_i c_i over the basic dual solutions, mu >= 0 on one of the region's :meth:`bases`
        with sum mu_i a_i = target for its rows a_i >= c_i (LP duality; README "Conventions"), mu read as ints over a denominator.
        The sums are compared as int vectors over one scale, and only the greatest is built as a scalar."""
        scale = lcm(*(x.denominator for x in target))
        t = [int(x * scale) for x in target]
        if not any(t):
            return self.zero()
        best = None  # the greatest sum so far: its lex components over the region's denominator times den, den, mu, bounds
        for rows, bounds, comps, cols, columns, den in self.bases(region):
            tc = [t[c] for c in cols]
            mu = [sum(map(mul, tc, col)) for col in columns]
            if min(mu) < 0 or len(rows) < self.rank and any(sum(m * r[c] for m, r in zip(mu, rows)) != den * t[c] for c in range(self.rank)):
                continue
            value = [sum(map(mul, mu, comp)) for comp in comps]
            if best is None or [v * best[1] for v in value] > [v * den for v in best[0]]:
                best = value, den, mu, bounds
        return None if best is None else LambdaScalar.lincomb(best[2], best[3]) / (best[1] * scale)

    def bounds(self, region: ConvexRegion) -> Optional[tuple[tuple[Optional[LambdaScalar], Optional[LambdaScalar]], ...]]:
        """The region's normal form, cached per region: per positive root beta_k the :meth:`floor` of beta_k and of
        -beta_k, its tight bounds inf (beta_k, x) and -sup (beta_k, x), or None when the region is empty, which is when
        some root's inf exceeds its sup.  Equal regions have equal normal forms."""
        floors = tuple((self.floor(region, r), self.floor(region, tuple(-c for c in r))) for r in self.roots.positive_roots)
        return None if any(lo is not None and up is not None and lo > -up for lo, up in floors) else floors

    def region_satisfies(self, region: ConvexRegion, c: LinearConstraint) -> bool:
        """Does every point of the region satisfy c?  c's row, taken to simple-root coordinates, has a :meth:`floor`
        that reaches c's bound, or the region is empty: the normal form is built only when the floor falls short."""
        low = self.floor(region, [sum(a * row[i] for a, row in zip(c.coeffs, self._inverse)) for i in range(self.rank)])
        return low is not None and (low > c.bound if c.relation == GT else low >= c.bound) or self.bounds(region) is None

    def region_contains(self, outer: ConvexRegion, inner: ConvexRegion) -> bool:
        """inner is a subset of outer: inner is empty, or inner's floor of each half's row sense * beta reaches its bound."""
        tight = self.bounds(inner)
        return tight is None or all((v := tight[self._positive_index[h.root]][h.sense < 0]) is not None and v >= h.bound * h.sense for h in outer.halves)

    def region_equal(self, a: ConvexRegion, b: ConvexRegion) -> bool:
        """Equal regions have equal normal forms (:meth:`bounds`), the empty ones included."""
        return self.bounds(a) == self.bounds(b)

    def transform_half(self, h: HalfApartment, g: AffineIsometry) -> HalfApartment:
        image_root = g.linear.act_root(h.root)
        offset = self.pairing(image_root, g.shift)
        return self.half(image_root, h.sense, h.bound + offset)

    def transform_region(self, region: ConvexRegion, g: AffineIsometry) -> ConvexRegion:
        return self.region(self.transform_half(h, g) for h in region.halves)

    # -- sectors -----------------------------------------------------------

    def sector(self, base: Point, direction: WeylElement) -> Sector:
        return Sector(tuple(base), direction)

    def fundamental_sector(self, base: Optional[Point] = None) -> Sector:
        return self.sector(base if base is not None else self.origin(), self.roots.identity())

    def sector_roots(self, direction: WeylElement) -> list[Root]:
        return [direction.act_root(self.roots.simple_root(i)) for i in range(1, self.rank + 1)]

    def sector_region(self, s: Sector) -> ConvexRegion:
        halves = []
        for r in self.sector_roots(s.direction):
            halves.append(self.half(r, 1, self.pairing(r, s.base)))
        return self.region(halves)

    def sector_cone(self, direction: WeylElement) -> tuple[tuple[Fraction, ...], ...]:
        """Generators of the direction cone: the images w.u_k of the dual basis."""
        return tuple(
            tuple(sum(a * x for a, x in zip(row, u)) for row in direction.matrix)
            for u in self.cone_basis
        )

    def cone_slopes(self, direction: WeylElement, root: Root) -> Root:
        """w^-1(root) for a positive root: its k-th coefficient is the slope
        (root, w.u_k) of the pairing along generator k of the direction cone,
        since the pairing is W-invariant and (alpha_j, u_k) = delta_jk.
        Cached per (direction, root)."""
        return direction.inverse().act_root(root)

    def sector_fits(self, direction: WeylElement, region: ConvexRegion, panel_type: int = 0) -> bool:
        """Does some direction-w sector (panel_type 0), or its type-i panel, lie in the region?

        Every root but a panel's own wall root is strictly signed on the
        (relative) interior of the cone.  So once the region caps no
        generator of the face (:meth:`capped`), each half not constant along
        it holds far enough in: a sector always fits, a panel exactly when
        the region is nonempty (Rockafellar, Convex Analysis, section 8).  Cached per (direction, region, panel_type).
        """
        return self.capped(direction, region) <= {panel_type} and (not panel_type or self.bounds(region) is not None)

    def sector_walls(self, direction: WeylElement) -> tuple[tuple[int, int], ...]:
        """(k, s) per simple root alpha_i, with w(alpha_i) = s * beta_k for the k-th positive root beta_k (a root's
        coefficients share one sign): the sector is {v : s * (beta_k, v - base) >= 0 for each}.  Cached per direction."""
        index = self._positive_index
        return tuple((index[tuple(map(abs, r))], 1 if max(r) > 0 else -1) for r in self.sector_roots(direction))

    def sector_contains_point(self, s: Sector, signs: tuple[int, ...]) -> bool:
        """Is p in the sector, given the signs of (beta, p - base) (:meth:`pass_signs`)?  Each wall :meth:`admits` it."""
        return all(self.admits(k, c, signs[k]) for k, c in self.sector_walls(s.direction))

    def sectors_parallel(self, s: Sector, t: Sector) -> bool:
        """Parallel means bounded distance; inside one apartment, same direction."""
        return s.direction is t.direction

    def germ_equal(self, g1: SectorGerm, g2: SectorGerm) -> bool:
        return g1.base == g2.base and g1.direction is g2.direction

    # -- hulls and germ containment ----------------------------------------

    def convex_hull(self, points: Iterable[Point], sectors: Iterable[Sector] = ()) -> ConvexRegion:
        """Smallest intersection of half-apartments containing the input."""
        pts = [tuple(p) for p in points]
        secs = list(sectors)
        if not pts and not secs:
            raise ValueError("hull of nothing")
        halves = []
        for root in self.roots.positive_roots:
            values = [self.pairing(root, p) for p in pts]
            values += [self.pairing(root, s.base) for s in secs]
            for sense, bound in ((1, min), (-1, max)):
                if not any(self.caps(s.direction, root, sense) for s in secs):
                    halves.append(self.half(root, sense, bound(values)))
        return self.region(halves)

    def region_contains_germ(self, region: ConvexRegion, germ: SectorGerm) -> bool:
        """Does the region contain an initial chunk of the sector at its base?  The germ rule of :meth:`holds`."""
        return self.holds(self.rows(region), self.root_dots(germ.base), germ.direction)

    def capped(self, direction: WeylElement, region: ConvexRegion) -> frozenset[int]:
        """The 1-based generators of the direction cone that some half of the region caps: the union of
        its halves' :meth:`caps`.  A sector fits when it is empty, its type-k panel when it is at most {k}."""
        return frozenset().union(*(self.caps(direction, h.root, h.sense) for h in region.halves))

    def caps(self, direction: WeylElement, root: Root, sense: int) -> frozenset[int]:
        """The 1-based generators k of the direction cone that the half
        (root, sense) caps: its pairing falls along w.u_k, so sense times the
        k-th of its :meth:`cone_slopes` is negative."""
        return frozenset(k for k, c in enumerate(self.cone_slopes(direction, root), start=1) if c * sense < 0)

    # -- germ galleries ------------------------------------------------------

    def germ_distance(self, g1: SectorGerm, g2: SectorGerm) -> WeylElement:
        """Gallery distance between two germs at a common base.

        Adjacent sector cones share a panel, which exchanges directions w and
        w*r_i; a gallery of types j_1..j_k from S to T therefore has
        dir(T) = dir(S)*r_{j_1}*...*r_{j_k}, and the distance is the product
        r_{j_k}*...*r_{j_1} = dir(T)^-1 * dir(S).  Its length is the minimal
        gallery length, and opposite germs sit at the longest element.
        """
        if g1.base != g2.base:
            raise ValueError("germ distance needs germs at a common base point")
        return g2.direction.inverse() * g1.direction

    def gallery(self, g1: SectorGerm, g2: SectorGerm) -> tuple[int, ...]:
        """Type sequence of a minimal sector gallery from g1 to g2."""
        delta = self.germ_distance(g1, g2)
        return delta.inverse().word

    # -- scans ---------------------------------------------------------------

    def directions(self) -> list[WeylElement]:
        return self.roots.weyl_elements()

    def sector_through(self, signs: tuple[int, ...], direction: Optional[WeylElement] = None) -> WeylElement:
        """The direction of the first sector at a base, in direction order, whose walls all :meth:`admits` a target, given the
        signs of (beta, target - base) (:meth:`pass_signs`); given a direction, a chunk of that germ at the target.
        Cached per (signs, direction)."""
        admits = self.admits
        for w in self.directions():
            if all(admits(k, c, signs[k], direction) for k, c in self.sector_walls(w)):
                return w
        raise AssertionError("the sectors at a base hold every point and germ")

    # -- classification --------------------------------------------------------

    def classify_region(self, region: ConvexRegion) -> RegionShape:
        """Shape of a region, read off its halves.

        A half-space holds a half-apartment or a wall only when the two share
        a root: distinct positive roots have independent pairing rows.  So a
        region whose halves share one root is an interval of that root's
        pairing, decided by its tightest bounds, and any other region is
        "empty" or "other" by its :meth:`bounds`.
        """
        half = self.region_half(region)
        if half is not None:
            return RegionShape("half-apartment", half.root, half.sense, half.bound)
        roots = {h.root for h in region.halves}
        if len(roots) == 1:
            lo = max(h.bound for h in region.halves if h.sense == 1)
            hi = min(h.bound for h in region.halves if h.sense == -1)
            if lo == hi:
                return RegionShape("wall", root=roots.pop(), bound=lo)
            return RegionShape("empty" if lo > hi else "other")
        return RegionShape("other" if self.bounds(region) is not None else "empty")

    def region_half(self, region: ConvexRegion) -> Optional[HalfApartment]:
        """The half-apartment equal to the region, or None.

        A region equals a half-apartment exactly when all its halves share a
        root and a sense (see :meth:`classify_region`); it is their tightest.
        """
        halves = region.halves
        if not halves or any((h.root, h.sense) != (halves[0].root, halves[0].sense) for h in halves):
            return None
        tightest = max if halves[0].sense == 1 else min
        return tightest(halves, key=lambda h: h.bound)


def _invert(matrix: Sequence[Sequence[Fraction]]) -> tuple[tuple[Fraction, ...], ...]:
    n = len(matrix)
    aug = [[Fraction(matrix[i][j]) for j in range(n)] + [Fraction(1 if j == i else 0) for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot is None:
            raise ValueError("matrix is singular")
        aug[col], aug[pivot] = aug[pivot], aug[col]
        factor = aug[col][col]
        aug[col] = [x / factor for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)
