"""Quadratic fields: discriminants, narrow class numbers by counting reduced
forms (imaginary) or their cycles (real), units.

Conventions: K = Q(sqrt(d)) with d squarefree, fundamental discriminant
D = d (d = 1 mod 4) or 4d, ring basis (1, w) with w = (D + sqrt(D))/2, so
N(a + b*w) = a^2 + D*a*b + ((D^2 - D)/4)*b^2 and w has minimal polynomial
x^2 - D*x + (D^2 - D)/4.

Both kinds of field are described by the discriminants of their quadratic
subfields, subfield_discs: (D,) for Q(sqrt(d)), (D1, D2, D3) for the
compositum Q(sqrt(d1), sqrt(d2)); no general number field machinery.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from math import gcd, isqrt

from .exactcore import Record, factorize, squarefree_part


def is_fundamental_discriminant(D: int) -> bool:
    if D == 0 or D == 1:
        return False
    if D % 4 == 1:
        return squarefree_part(D) == D
    if D % 4 == 0:
        m = D // 4
        return m % 4 in (2, 3) and squarefree_part(m) == m
    return False


def _check_d(d: int) -> None:
    if d in (0, 1) or squarefree_part(d) != d:
        raise ValueError(f"d = {d} must be a squarefree integer other than 0 and 1")


def _disc(d: int) -> int:
    return d if d % 4 == 1 else 4 * d


class _Subfields(Record):
    """What QuadField and BiquadField read off their subfield_discs."""

    __slots__ = ()

    def ramified_primes(self) -> tuple[int, ...]:
        return tuple(sorted({p for D in self.subfield_discs for p in factorize(D)}))


class QuadField(_Subfields, namedtuple("QuadField", "d D")):
    __slots__ = ()

    def __new__(cls, d: int, D: int):
        _check_d(d)
        if D != _disc(d):
            raise ValueError("disc does not match d")
        return super().__new__(cls, d, D)

    @classmethod
    def from_d(cls, d: int) -> "QuadField":
        d = int(d)
        return cls(d, _disc(d))

    @property
    def is_imaginary(self) -> bool:
        return self.d < 0

    @property
    def subfield_discs(self) -> tuple[int]:
        return (self.D,)


# ---------------------------------------------------------------------------
# class numbers: reduced forms (D < 0), cycles of reduced forms (D > 0)


def reduced_forms(D: int) -> tuple[tuple[int, int, int], ...]:
    """All reduced positive-definite forms of discriminant D < 0."""
    if D >= 0 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a negative fundamental discriminant")
    forms = []
    b = D % 2
    while 3 * b * b <= -D:
        m = (b * b - D) // 4
        a = max(b, 1)
        while a * a <= m:
            if m % a == 0:
                c = m // a
                forms.append((a, b, c))
                if 0 < b < a < c:
                    forms.append((a, -b, c))
            a += 1
        b += 2
    return tuple(sorted(forms))


class ClassGroupData(namedtuple("ClassGroupData", "D h forms")):
    __slots__ = ()


def _cf_radicand(D: int) -> tuple[int, int]:
    """(N, g) for a positive fundamental discriminant D: the irrationals
    (P + sqrt(N))/Q with g | Q and g*Q | N - P^2 are the roots
    (b + sqrt(D))/(2a) of the forms (a, b, c) of discriminant D, with
    (a, b) = (Q, 2P) for g = 1 and (Q/2, P) for g = 2."""
    if D <= 0 or not is_fundamental_discriminant(D):
        raise ValueError(f"{D} is not a positive fundamental discriminant")
    return (D // 4, 1) if D % 4 == 0 else (D, 2)


def _cf_step(P: int, Q: int, N: int, s: int) -> tuple[int, int, int]:
    """One continued-fraction step, s = isqrt(N), Q > 0:
    (P + sqrt(N))/Q = a + 1/((P' + sqrt(N))/Q').  Returns (a, P', Q')."""
    a = (P + s) // Q
    P = a * Q - P
    return a, P, (N - P * P) // Q


def _cycle_representatives(D: int) -> tuple[tuple[int, int, int], ...]:
    """One reduced indefinite form per rho-cycle of discriminant D > 0.

    The reduced forms (a, b, c), 0 < b < sqrt(D) and |sqrt(D) - 2|a|| < b,
    are the reduced irrationals (b + sqrt(D))/(2|a|) (> 1, conjugate in
    (-1, 0)) with a sign.  rho is one continued-fraction step that also
    flips the sign of a, so a continued-fraction cycle of even length
    carries the two rho-cycles of (a, b, c) and (-a, b, -c), and one of odd
    length a single rho-cycle.  The rho-cycles are the proper equivalence
    classes of forms (Cohen, GTM 138, 5.6; Buchmann-Vollmer, Binary
    Quadratic Forms, ch. 6), so there are h+ of them."""
    N, g = _cf_radicand(D)
    s = isqrt(N)
    reduced = {
        (P, Q)
        for P in range(1, s + 1)
        for Q in range(s - P + 1, s + P + 1)
        if Q % g == 0 and (N - P * P) % (g * Q) == 0
    }
    forms = []
    while reduced:
        P, Q = min(reduced)
        a, b = (Q, 2 * P) if g == 1 else (Q // 2, P)
        c = (b * b - D) // (4 * a)
        length = 0
        while (P, Q) in reduced:
            reduced.remove((P, Q))
            _, P, Q = _cf_step(P, Q, N, s)
            length += 1
        forms.append((a, b, c))
        if length % 2 == 0:
            forms.append((-a, b, -c))
    return tuple(sorted(forms))


@lru_cache(maxsize=256)
def class_group(D: int) -> ClassGroupData:
    """The narrow class number of Q(sqrt(D)) and one reduced form per class:
    for D < 0 the reduced forms (h+ = h), for D > 0 one form per rho-cycle
    of reduced indefinite forms."""
    forms = reduced_forms(D) if D < 0 else _cycle_representatives(D)
    return ClassGroupData(D, len(forms), forms)


# ---------------------------------------------------------------------------
# fundamental units of real quadratic fields via continued fractions


class UnitData(namedtuple("UnitData", "hx hy norm regulator")):
    """Fundamental (or derived) unit of O_K, D > 0.

    (hx, hy): the unit written as (hx + hy*sqrt(D))/2, integral in the ring
    basis (1, w). norm in {+1, -1}; regulator = log of the unit under
    the embedding with sqrt(D) > 0 (the larger absolute value).
    """

    __slots__ = ()


def _unit_from_halves(D: int, hx: int, hy: int) -> UnitData:
    nrm = (hx * hx - D * hy * hy) // 4
    if nrm not in (1, -1):
        raise ArithmeticError("not a unit")
    if (hx - hy * D) % 2:
        raise ArithmeticError("not integral in the ring basis")
    # (hx + hy*sqrt(D))/2 = hx*(1 + sqrt(1 - 4*nrm/hx^2))/2 as hx^2 - D*hy^2 =
    # 4*nrm: the log of the int hx takes any size, where a float overflows
    reg = math.log(hx) + math.log((1.0 + math.sqrt(1.0 - 4 * nrm / (hx * hx))) / 2.0)
    return UnitData(hx, hy, nrm, reg)


def fundamental_unit(D: int) -> UnitData:
    """Continued-fraction expansion of the ring generator, one full period."""
    N, g = _cf_radicand(D)
    P, Q = (0, 1) if g == 1 else (1, 2)
    s = isqrt(N)
    seen: dict[tuple[int, int], int] = {}
    seq = []
    while (P, Q) not in seen:
        seen[(P, Q)] = len(seq)
        a, P1, Q1 = _cf_step(P, Q, N, s)
        seq.append((P, Q, a))
        P, Q = P1, Q1
    j = seen[(P, Q)]
    Pj, Qj = seq[j][0], seq[j][1]
    km2, km1 = 1, 0  # convergent denominators k_{-2}, k_{-1}
    for _, _, a in seq[j:]:
        km2, km1 = km1, a * km1 + km2
    A = km1 * Pj + km2 * Qj
    B = km1
    if D % 4 == 0:
        if (2 * A) % Qj or B % Qj:
            raise ArithmeticError("period did not close on an integral unit")
        hx, hy = 2 * A // Qj, B // Qj
    else:
        if (2 * A) % Qj or (2 * B) % Qj:
            raise ArithmeticError("period did not close on an integral unit")
        hx, hy = 2 * A // Qj, 2 * B // Qj
    return _unit_from_halves(D, hx, hy)


def norm_one_unit(D: int) -> UnitData:
    """Smallest unit > 1 of norm +1: the fundamental unit or its square."""
    u = fundamental_unit(D)
    if u.norm == 1:
        return u
    hx = (u.hx * u.hx + D * u.hy * u.hy) // 2
    hy = u.hx * u.hy
    return _unit_from_halves(D, hx, hy)


# ---------------------------------------------------------------------------
# biquadratic composita through their three quadratic subfields


class BiquadField(_Subfields, namedtuple("BiquadField", "d1 d2 d3 D1 D2 D3")):
    """Q(sqrt(d1), sqrt(d2)), Galois group (Z/2)^2, carried through its three
    quadratic subfields Q(sqrt(d1)), Q(sqrt(d2)), Q(sqrt(d3))."""

    __slots__ = ()

    def __new__(cls, d1: int, d2: int, d3: int, D1: int, D2: int, D3: int):
        _check_d(d1)
        _check_d(d2)
        if d1 == d2:
            raise ValueError("subfields coincide")
        if d3 * gcd(d1, d2) ** 2 != d1 * d2 or (D1, D2, D3) != tuple(map(_disc, (d1, d2, d3))):
            raise ValueError("d3 or a disc does not match d1, d2")
        return super().__new__(cls, d1, d2, d3, D1, D2, D3)

    @classmethod
    def from_pair(cls, d1: int, d2: int) -> "BiquadField":
        # squarefree d1, d2 share only gcd^2 in d1 * d2; __new__ checks
        # that they are squarefree, and nonzero, first
        d3 = d1 * d2 // (gcd(d1, d2) or 1) ** 2
        return cls(d1, d2, d3, *map(_disc, (d1, d2, d3)))

    @property
    def subfield_discs(self) -> tuple[int, int, int]:
        return (self.D1, self.D2, self.D3)
