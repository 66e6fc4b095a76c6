"""Exact spectral-parameter arithmetic and R-matrix denominator zero sets.

Every spectral parameter used here is an element i^zeta * q^m of the group
mu_4 x q^Z; q is never evaluated numerically.  Denominators d_{k,l}(z) are
materialized as exact root multisets in that group, with quadratic factors
split into their two roots.
"""

from __future__ import annotations

import re
from functools import lru_cache
from types import MappingProxyType
from typing import Callable

from .rootsys import FiniteType, OrderedValue, Value, _set, _star

_PREFIX = {0: "", 1: "i", 2: "-", 3: "-i"}
_PARAM_RE = re.compile(r"([+-]?)(i?)q\^(-?\d+)$", re.ASCII)
_MINUS_Q_RE = re.compile(r"\(-q\)\^(-?\d+)$", re.ASCII)


class SpectralParam(Value):
    """The element i^zeta * q^m with zeta taken mod 4."""

    __slots__ = ("zeta", "m")

    def __init__(self, zeta: int, m: int) -> None:
        _set(self, "zeta", zeta % 4)
        _set(self, "m", m)

    @classmethod
    def one(cls) -> SpectralParam:
        return cls(0, 0)

    @classmethod
    def minus_q_power(cls, p: int) -> SpectralParam:
        """(-q)^p = (-1)^p q^p."""
        return cls(2 * p, p)

    @classmethod
    def parse(cls, text: str) -> SpectralParam:
        """Accepts '[+-]?i?q^<int>' and the sugar '(-q)^<int>'."""
        text = text.strip()
        m = _MINUS_Q_RE.fullmatch(text)
        if m:
            return cls.minus_q_power(int(m.group(1)))
        m = _PARAM_RE.fullmatch(text)
        if not m:
            raise ValueError(f"cannot parse spectral parameter {text!r}")
        sign, imag, power = m.groups()
        zeta = (2 if sign == "-" else 0) + (1 if imag else 0)
        return cls(zeta, int(power))

    def __str__(self) -> str:
        return f"{_PREFIX[self.zeta]}q^{self.m}"

    def __mul__(self, other: SpectralParam) -> SpectralParam:
        return SpectralParam(self.zeta + other.zeta, self.m + other.m)

    def __truediv__(self, other: SpectralParam) -> SpectralParam:
        return SpectralParam(self.zeta - other.zeta, self.m - other.m)

    def __neg__(self) -> SpectralParam:
        return SpectralParam(self.zeta + 2, self.m)

    def inverse(self) -> SpectralParam:
        return SpectralParam(-self.zeta, -self.m)

    def times_i_power(self, k: int) -> SpectralParam:
        return SpectralParam(self.zeta + k, self.m)

    def minus_q_exponent(self) -> int | None:
        """p if this equals (-q)^p, else None."""
        return self.m if self.zeta == 2 * self.m % 4 else None


class AffineType(OrderedValue):
    """An affine family A/D with a twist order and the integer N of the name."""

    __slots__ = ("family", "twist", "N")

    def __init__(self, family: str, twist: int, N: int) -> None:
        if family not in ("A", "D"):
            raise ValueError(f"unknown family {family!r}")
        if twist not in (1, 2):
            raise ValueError(f"twist must be 1 or 2, got {twist}")
        low = 2 if family == "A" else 4
        if N < low:
            raise ValueError(f"type {family} needs N >= {low}, got {N}")
        _set(self, "family", family)
        _set(self, "twist", twist)
        _set(self, "N", N)

    @classmethod
    def from_code(cls, code: str, n: int) -> AffineType:
        if len(code) != 2 or code[0] not in "AD" or code[1] not in "12":
            raise ValueError(f"unknown affine code {code!r}")
        return cls(code[0], int(code[1]), n)

    @property
    def code(self) -> str:
        return f"{self.family}{self.twist}"

    @property
    def index_set(self) -> tuple[int, ...]:
        if self.twist == 1:
            top = self.N
        elif self.family == "A":
            top = (self.N + 1) // 2
        else:
            top = self.N - 1
        return tuple(range(1, top + 1))

    def classical(self) -> FiniteType:
        """Finite type A_N/D_N underlying the untwisted member of the pair."""
        return FiniteType(self.family, self.N)

    def partner(self) -> AffineType:
        """The other member of the untwisted/twisted pair with the same N."""
        return AffineType(self.family, 3 - self.twist, self.N)


def _check_indices(g: AffineType, k: int, l: int) -> None:
    idx = g.index_set
    for name, v in (("k", k), ("l", l)):
        if v not in idx:
            raise ValueError(f"{name}={v} out of range 1..{idx[-1]} for {g.code} N={g.N}")


def _add(roots: dict[tuple[int, int], int], zeta: int, m: int) -> None:
    key = (zeta % 4, m)
    roots[key] = roots.get(key, 0) + 1


@lru_cache(maxsize=None)
def _denominator_data(
    g: AffineType, k: int, l: int
) -> tuple[tuple[str, ...], MappingProxyType[tuple[int, int], int]]:
    """Factor strings and a read-only view of the raw root multiset, for
    sorted indices k <= l; the view keeps callers from editing the cache."""
    n = g.N
    factors: list[str] = []
    roots: dict[tuple[int, int], int] = {}

    def linear(e: int) -> None:
        factors.append(f"z-(-q)^{e}")
        _add(roots, 2 * e, e)

    if g.family == "A" and g.twist == 1:
        for s in range(1, min(k, l, n + 1 - k, n + 1 - l) + 1):
            linear(abs(k - l) + 2 * s)
    elif g.family == "D" and g.twist == 1:
        if l <= n - 2:
            for s in range(1, min(k, l) + 1):
                linear(abs(k - l) + 2 * s)
                linear(2 * n - 2 - k - l + 2 * s)
        elif k <= n - 2:
            for s in range(1, k + 1):
                linear(n - k - 1 + 2 * s)
        elif k != l:
            for s in range(1, (n - 1) // 2 + 1):
                linear(4 * s)
        else:
            for s in range(1, n // 2 + 1):
                linear(4 * s - 2)
    elif g.family == "A":
        for s in range(1, min(k, l) + 1):
            linear(abs(k - l) + 2 * s)
            e = 2 * s - k - l
            factors.append(f"z+q^{n + 1}(-q)^{e}")
            _add(roots, 2 * e + 2, n + 1 + e)
    else:
        spin = n - 1
        if l < spin:
            for s in range(1, min(k, l) + 1):
                for e in (abs(k - l) + 2 * s, 2 * n - 2 - k - l + 2 * s):
                    factors.append(f"z^2-(-q^2)^{e}")
                    _add(roots, e, e)
                    _add(roots, e + 2, e)
        elif k < spin:
            for s in range(1, k + 1):
                e = n - 1 - k + 2 * s
                factors.append(f"z^2+(-q^2)^{e}")
                _add(roots, e + 1, e)
                _add(roots, e + 3, e)
        else:
            for s in range(1, n):
                factors.append(f"z+(-q^2)^{s}")
                _add(roots, 2 * s + 2, 2 * s)
    return tuple(factors), MappingProxyType(roots)


@lru_cache(maxsize=None)
def _raw_tables(g: AffineType) -> Callable[[int, int], MappingProxyType[tuple[int, int], int]]:
    """The one fetch of a raw d_{k,l} on g, for valid indices in either order:
    each (k, l) built on first request, without index checks or hashing g."""
    return lru_cache(maxsize=None)(lambda k, l: _denominator_data(g, min(k, l), max(k, l))[1])


def denominator_roots_raw(
    g: AffineType, k: int, l: int
) -> MappingProxyType[tuple[int, int], int]:
    """Read-only root multiset of d_{k,l} as raw (zeta, m) keys; symmetric in k, l."""
    _check_indices(g, k, l)
    return _raw_tables(g)(k, l)


class DenominatorZeros(Value):
    """The zero multiset of a denominator d_{k,l}(z), plus display factors."""

    __slots__ = ("g", "k", "l", "factors", "roots")

    def __init__(
        self, g: AffineType, k: int, l: int, factors: tuple[str, ...],
        roots: tuple[tuple[SpectralParam, int], ...],
    ) -> None:
        self._init(g, k, l, factors, roots)

    @property
    def degree(self) -> int:
        return sum(mult for _, mult in self.roots)


def denominator(g: AffineType, k: int, l: int) -> DenominatorZeros:
    """Exact zero multiset of d_{k,l}(z), with roots sorted by (m, zeta)."""
    _check_indices(g, k, l)
    factors, raw = _denominator_data(g, min(k, l), max(k, l))
    items = tuple(
        (SpectralParam(z, m), raw[(z, m)]) for z, m in sorted(raw, key=lambda t: (t[1], t[0]))
    )
    return DenominatorZeros(g, k, l, factors, items)


def zero_order(g: AffineType, k: int, l: int, x: SpectralParam) -> int:
    """Multiplicity of x as a zero of d_{k,l}(z); 0 if absent."""
    return denominator_roots_raw(g, k, l).get((x.zeta, x.m), 0)


def dual_index(g: AffineType, i: int) -> int:
    """The involution i* matching left/right duals of fundamental modules:
    w0's on an untwisted type, the identity on a twisted one."""
    if i not in g.index_set:
        raise ValueError(f"index {i} out of range for {g.code} N={g.N}")
    return i if g.twist == 2 else _star(g.family, g.N, i)


def p_star(g: AffineType) -> SpectralParam:
    """The parameter shift of duality: dual of (i, x) sits at x / p_star."""
    n = g.N
    if g.twist == 1:
        return SpectralParam.minus_q_power(n + 1 if g.family == "A" else 2 * n - 2)
    if g.family == "A":
        return SpectralParam(2, n + 1)
    return SpectralParam(2 * n, 2 * n - 2)


def dual_point(g: AffineType, i: int, x: SpectralParam) -> tuple[int, SpectralParam]:
    """Left dual: (i*, x / p_star)."""
    return dual_index(g, i), x / p_star(g)


def right_dual_point(g: AffineType, i: int, x: SpectralParam) -> tuple[int, SpectralParam]:
    """Right dual: (i*, x * p_star); inverse of dual_point."""
    return dual_index(g, i), x * p_star(g)
