"""Floating-point geometry of PSL(2,R) acting on the compactified real line.

A map is stored as a real 2x2 matrix with det = 1, identified projectively
with its negative.  Points live on the circle picture of R u {oo}; the point
at infinity is an explicit singleton, never a sentinel float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DecompositionFailure

__all__ = [
    "INFINITY",
    "Infinity",
    "MoebiusMap",
    "Interval",
    "IwasawaFactors",
    "translation",
    "dilation_matrix",
    "dilation",
    "special_conformal",
    "rotation",
    "act_point",
    "act_interval",
    "iwasawa",
    "conjugate_subgroup",
    "map_halfline_to",
]

_DET_TOL = 1e-12


class Infinity:
    """The unique point at infinity of the compactified line."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "oo"


INFINITY = Infinity()

#: extended-real point: a float or the INFINITY singleton
Point = float | Infinity


def _points_close(p, q, tol=1e-9):
    if isinstance(p, Infinity) or isinstance(q, Infinity):
        return isinstance(p, Infinity) and isinstance(q, Infinity)
    return abs(p - q) <= tol * max(1.0, abs(p), abs(q))


@dataclass(frozen=True)
class MoebiusMap:
    """Element of PSL(2,R): x -> (a x + b) / (c x + d), det normalized to 1."""

    a: float
    b: float
    c: float
    d: float

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det <= 0:
            raise ValueError(f"matrix must have positive determinant, got {det}")
        s = 1.0 / math.sqrt(det)
        if abs(det - 1.0) > _DET_TOL:
            object.__setattr__(self, "a", self.a * s)
            object.__setattr__(self, "b", self.b * s)
            object.__setattr__(self, "c", self.c * s)
            object.__setattr__(self, "d", self.d * s)

    @classmethod
    def from_matrix(cls, m) -> "MoebiusMap":
        m = np.asarray(m, dtype=float)
        return cls(m[0, 0], m[0, 1], m[1, 0], m[1, 1])

    @classmethod
    def identity(cls) -> "MoebiusMap":
        return cls(1.0, 0.0, 0.0, 1.0)

    def matrix(self) -> np.ndarray:
        return np.array([[self.a, self.b], [self.c, self.d]])

    def inverse(self) -> "MoebiusMap":
        return MoebiusMap(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "MoebiusMap") -> "MoebiusMap":
        return MoebiusMap.from_matrix(self.matrix() @ other.matrix())

    def projectively_equal(self, other: "MoebiusMap", tol=1e-10) -> bool:
        m, n = self.matrix(), other.matrix()
        return bool(
            np.allclose(m, n, atol=tol) or np.allclose(m, -n, atol=tol)
        )

    def __eq__(self, other):
        if not isinstance(other, MoebiusMap):
            return NotImplemented
        return self.projectively_equal(other, tol=_DET_TOL)

    def __hash__(self):
        # projective identification: hash the sign-canonical representative
        t = (self.a, self.b, self.c, self.d)
        for v in t:
            if v != 0:
                if v < 0:
                    t = tuple(-x for x in t)
                break
        return hash(tuple(round(x, 10) for x in t))


def translation(t: float) -> MoebiusMap:
    """T(t): x -> x + t (unit upper triangular)."""
    return MoebiusMap(1.0, t, 0.0, 1.0)


def dilation_matrix(y: float) -> MoebiusMap:
    """diag(y, 1/y) with multiplicative parameter y > 0; acts as x -> y^2 x."""
    if y <= 0:
        raise ValueError("dilation parameter must be positive")
    return MoebiusMap(y, 0.0, 0.0, 1.0 / y)


def dilation(b: float) -> MoebiusMap:
    """One-parameter dilation subgroup Lambda(b) = diag(e^{pi b}, e^{-pi b}).

    The additive normalization is fixed by the positive-inclusion scaling
    Lambda(b) T(t) Lambda(-b) = T(e^{2 pi b} t), which ties the group
    parameter to the modular flow convention used downstream.
    """
    return dilation_matrix(math.exp(math.pi * b))


def special_conformal(z: float) -> MoebiusMap:
    """P(z): unit lower triangular with -z in the lower-left entry."""
    return MoebiusMap(1.0, 0.0, -z, 1.0)


def rotation(theta: float) -> MoebiusMap:
    """R(theta) = exp(theta (h+c)/2); R(pi) maps x to -1/x."""
    ch, sh = math.cos(theta / 2.0), math.sin(theta / 2.0)
    return MoebiusMap(ch, sh, -sh, ch)


def act_point(g: MoebiusMap, x: Point) -> Point:
    """Evaluate (a x + b)/(c x + d) with projective infinity conventions."""
    if isinstance(x, Infinity):
        if g.c == 0.0:
            return INFINITY
        return g.a / g.c
    num = g.a * x + g.b
    den = g.c * x + g.d
    if den == 0.0:
        return INFINITY
    return num / den


@dataclass(frozen=True)
class Interval:
    """Proper interval of the compactified line, traversed from lo to hi.

    The traversal direction is that of increasing x, wrapping through the
    point at infinity; an interval with the wrap in its interior is
    represented by lo > hi (or by an infinite endpoint).  The complement is
    the same pair with endpoints swapped.
    """

    lo: Point
    hi: Point

    def __post_init__(self):
        if _points_close(self.lo, self.hi, tol=0.0):
            raise ValueError("interval must be proper (lo != hi)")

    @property
    def wraps(self) -> bool:
        """True when the point at infinity is interior to the interval."""
        if isinstance(self.lo, Infinity) or isinstance(self.hi, Infinity):
            return False
        return self.lo > self.hi

    def complement(self) -> "Interval":
        return Interval(self.hi, self.lo)

    def contains(self, x: Point) -> bool:
        """Interior membership (endpoints excluded)."""
        if isinstance(x, Infinity):
            if isinstance(self.lo, Infinity) or isinstance(self.hi, Infinity):
                return False
            return self.lo > self.hi
        if isinstance(self.lo, Infinity):
            return x < self.hi
        if isinstance(self.hi, Infinity):
            return x > self.lo
        if self.lo < self.hi:
            return self.lo < x < self.hi
        return x > self.lo or x < self.hi

    def approx_equal(self, other: "Interval", tol=1e-9) -> bool:
        return _points_close(self.lo, other.lo, tol) and _points_close(
            self.hi, other.hi, tol
        )


#: the semicircle [0, +oo]
I1 = Interval(0.0, INFINITY)


def act_interval(g: MoebiusMap, interval: Interval) -> Interval:
    """Endpoint-wise image; orientation (traversal direction) is preserved."""
    return Interval(act_point(g, interval.lo), act_point(g, interval.hi))


@dataclass(frozen=True)
class IwasawaFactors:
    """Factors of g = T(x) Lambda(y) P(z) with the multiplicative y > 0."""

    x: float
    y: float
    z: float

    def recompose(self) -> MoebiusMap:
        return translation(self.x) @ dilation_matrix(self.y) @ special_conformal(self.z)


def iwasawa(g: MoebiusMap, underflow=1e-13) -> IwasawaFactors:
    """Iwasawa decomposition g = T(x) Lambda(y) P(z).

    Solving T(x) Lambda(y) P(z) = [[y - x z / y, x / y], [-z / y, 1 / y]]
    against the entries of g gives y = 1/d, x = b/d, z = -c/d; the
    sign-flipped representative is used when d < 0.  Raises
    DecompositionFailure when |d| underflows (g at the coset boundary).
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    if d < 0:
        a, b, c, d = -a, -b, -c, -d
    if abs(d) < underflow:
        raise DecompositionFailure(
            f"lower-right entry {d!r} too small for T-Lambda-P factorization"
        )
    return IwasawaFactors(x=b / d, y=1.0 / d, z=-c / d)


def subgroup_element(which: str, param: float) -> MoebiusMap:
    """Canonical subgroup element: T(t), Lambda(b) (additive), P(z), or R(theta)."""
    if which == "T":
        return translation(param)
    if which == "Lambda":
        return dilation(param)
    if which == "P":
        return special_conformal(param)
    if which == "R":
        return rotation(param)
    raise ValueError(f"unknown subgroup {which!r}")


def conjugate_subgroup(g: MoebiusMap, which: str, param: float) -> MoebiusMap:
    """Return g s(param) g^{-1} for the chosen one-parameter subgroup s."""
    s = subgroup_element(which, param)
    return g @ s @ g.inverse()


def map_halfline_to(interval: Interval) -> MoebiusMap:
    """A PSL(2,R) element g with g [0, oo] = interval (endpoint-wise).

    Sends 0 to interval.lo and oo to interval.hi; every proper interval is
    reachable this way.
    """
    lo, hi = interval.lo, interval.hi
    if isinstance(lo, Infinity) and isinstance(hi, Infinity):
        raise ValueError("interval is not proper")
    if isinstance(hi, Infinity):
        return translation(float(lo))
    if isinstance(lo, Infinity):
        # 0 -> oo, oo -> hi:  x -> (hi x + 1)/x
        return MoebiusMap(float(hi), 1.0, 1.0, 0.0)
    lo, hi = float(lo), float(hi)
    if hi > lo:
        # x -> (hi x + lo)/(x + 1), det = hi - lo > 0
        return MoebiusMap(hi, lo, 1.0, 1.0)
    # wrap-around: x -> (hi x - lo)/(x - 1), det = lo - hi > 0
    return MoebiusMap(hi, -lo, 1.0, -1.0)
