"""secp256k1 elliptic-curve arithmetic, implemented from scratch.

This is the curve used by Ethereum (and Bitcoin) for transaction and message
signatures.  We implement:

* field arithmetic modulo the curve prime ``P`` (inverses are ``pow(x, -1, P)``),
* point addition/doubling in Jacobian coordinates, plus the cheaper *mixed*
  addition of an affine point — every table below is stored affine, each
  batch normalised with a single field inversion (Montgomery's trick),
* the GLV split (Gallant, Lambert, Vanstone, CRYPTO 2001): the curve has the
  endomorphism ``φ(x, y) = (β·x, y) = λ·(x, y)``, so a scalar ``k`` is
  ``k1 + k2·λ (mod N)`` with ``|k1|, |k2| < 2^SPLIT_BITS = 2^128`` and
  ``k·Q = k1·Q + k2·φ(Q)`` is two half-length multiples; ``φ`` of a stored
  point is one field multiplication, a negative half flips ``y``.  ``β``,
  ``λ`` and the lattice basis are libsecp256k1's,
* ``fixed_base_table``: ``j * 2^(wi) * Q`` for any point ``Q``, so a multiple
  of ``Q`` is one mixed addition per ``w``-bit window and no doubling;
  ``generator_mul`` walks the 8-bit table of ``G`` built at import (at most
  32 additions, no split), and a signer whose key is held — a channel
  counterparty — gets a 5-bit one covering a half (26 rows, 806 points),
* ``point_mul``: one joint width-5 wNAF ladder of ``k1·Q + k2·φ(Q)`` over
  ``Q, 3Q, ..., 15Q`` and their images under ``φ`` — at most 128 doublings
  and about 43 mixed additions, negative digits for free,
* ``double_scalar_mul``: ``u1*G + u2*Q`` accumulated into one Jacobian point
  and converted to affine once; ECDSA ``recover`` and ``verify`` are this,
* ``double_table_mul``: the same sum when ``Q``'s table is at hand — ``G``'s
  table walked once, ``Q``'s once per half (at most 32 + 52 additions, no
  doubling); ``recover`` with a known key is this.

Nothing here is constant-time: the tables are indexed by, and the branches
taken on, the bits of the scalar — including the secret ECDSA nonce.  That is
inherent to big-int arithmetic in pure Python; do not sign where an attacker
can time you.

Only what ECDSA needs is exposed; this is not a general-purpose EC library.
"""

from __future__ import annotations

from typing import NamedTuple

__all__ = [
    "P", "N", "Gx", "Gy", "B",
    "Point", "INFINITY",
    "point_add", "point_mul", "generator_mul", "double_scalar_mul",
    "fixed_base_table", "double_table_mul", "SPLIT_BITS",
    "lift_x", "is_on_curve",
]

# Curve parameters: y^2 = x^3 + 7 over GF(P).
P = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEFFFFFC2F
N = 0xFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFFEBAAEDCE6AF48A03BBFD25E8CD0364141
A = 0
B = 7
Gx = 0x79BE667EF9DCBBAC55A06295CE870B07029BFCDB2DCE28D959F2815B16F81798
Gy = 0x483ADA7726A3C4655DA4FBFC0E1108A8FD17B448A68554199C47D08FFB10D4B8

# Window widths: one byte of the scalar per row of G's fixed-base table, and
# 5-bit wNAF digits (8 odd multiples) for an arbitrary point.
_G_WINDOW = 8
_WNAF_WIDTH = 5

# The endomorphism: (β·x, y) = λ·(x, y), β³ ≡ 1 (mod P), λ³ ≡ 1 (mod N), where
# λ = 0x5363AD4CC05C30E0A5261C028812645A122E22EA20816678DF02967C1B23BD72 is
# what the basis below encodes; no code needs its value.
_BETA = 0x7AE96A2B657C07106E64479EAC3434E99CF0497512F58995C1396C28719501EE
# A reduced basis (a1, b1), (a2, b2) of the lattice {(x, y): x + y·λ ≡ 0
# (mod N)}, with b2 = a1 and a1·b2 - a2·b1 = N.
_A1 = 0x3086D221A7D46BCDE86C90E49284EB15
_MINUS_B1 = 0xE4437ED6010E88286F547FA90ABFE4C3
_A2 = 0x114CA50F7A8E2F3F657C1108D9D44CFD8
#: ``|k1|, |k2| < 2^SPLIT_BITS`` for every split scalar: the bits of rows a
#: table needs to serve a half
SPLIT_BITS = 128


class Point(NamedTuple):
    """An affine point on secp256k1.  ``None`` coordinates encode infinity."""

    x: int | None
    y: int | None

    @property
    def is_infinity(self) -> bool:
        return self.x is None


INFINITY = Point(None, None)
G = Point(Gx, Gy)

# Jacobian points are (X, Y, Z) with affine x = X/Z^2, y = Y/Z^3.
_JacPoint = tuple[int, int, int]
_J_INFINITY: _JacPoint = (0, 1, 0)


def is_on_curve(point: Point) -> bool:
    """Return True iff ``point`` is infinity or a reduced solution of the curve equation."""
    if point.is_infinity:
        return True
    x, y = point.x, point.y
    return 0 <= x < P and 0 <= y < P and (y * y - (x * x * x + B)) % P == 0


def _to_jacobian(point: Point) -> _JacPoint:
    if point.is_infinity:
        return _J_INFINITY
    return (point.x, point.y, 1)


def _from_jacobian(jac: _JacPoint) -> Point:
    x, y, z = jac
    if z == 0:
        return INFINITY
    z_inv = pow(z, -1, P)
    z_inv2 = (z_inv * z_inv) % P
    return Point((x * z_inv2) % P, (y * z_inv2 * z_inv) % P)


def _batch_to_affine(points: list[_JacPoint]) -> list[tuple[int, int]]:
    """Normalise finite Jacobian points with one inversion (Montgomery's trick)."""
    prefixes = []
    product = 1
    for _, _, z in points:
        prefixes.append(product)
        product = (product * z) % P
    inverse = pow(product, -1, P)  # of z_0 * ... * z_i, walking i downwards
    affine = []
    for (x, y, z), prefix in zip(reversed(points), reversed(prefixes)):
        z_inv = (inverse * prefix) % P
        inverse = (inverse * z) % P
        z_inv2 = (z_inv * z_inv) % P
        affine.append(((x * z_inv2) % P, (y * z_inv2 * z_inv) % P))
    affine.reverse()
    return affine


def _jacobian_double(point: _JacPoint) -> _JacPoint:
    x, y, z = point
    if z == 0 or y == 0:
        return _J_INFINITY
    ysq = (y * y) % P
    s = (4 * x * ysq) % P
    m = (3 * x * x) % P  # a == 0, so no a*z^4 term
    nx = (m * m - 2 * s) % P
    ny = (m * (s - nx) - 8 * ysq * ysq) % P
    nz = (2 * y * z) % P
    return (nx, ny, nz)


def _jacobian_add(p1: _JacPoint, p2: _JacPoint) -> _JacPoint:
    x1, y1, z1 = p1
    x2, y2, z2 = p2
    if z1 == 0:
        return p2
    if z2 == 0:
        return p1
    z1sq = (z1 * z1) % P
    z2sq = (z2 * z2) % P
    u1 = (x1 * z2sq) % P
    u2 = (x2 * z1sq) % P
    s1 = (y1 * z2sq * z2) % P
    s2 = (y2 * z1sq * z1) % P
    if u1 == u2:
        if s1 != s2:
            return _J_INFINITY
        return _jacobian_double(p1)
    h = (u2 - u1) % P
    r = (s2 - s1) % P
    hsq = (h * h) % P
    hcu = (hsq * h) % P
    u1hsq = (u1 * hsq) % P
    nx = (r * r - hcu - 2 * u1hsq) % P
    ny = (r * (u1hsq - nx) - s1 * hcu) % P
    nz = (h * z1 * z2) % P
    return (nx, ny, nz)


def _jacobian_add_affine(p1: _JacPoint, x2: int, y2: int) -> _JacPoint:
    """Mixed addition: ``p1`` plus the finite affine point ``(x2, y2)`` (Z2 = 1)."""
    x1, y1, z1 = p1
    if z1 == 0:
        return (x2, y2, 1)
    z1sq = (z1 * z1) % P
    u2 = (x2 * z1sq) % P
    s2 = (y2 * z1sq * z1) % P
    if x1 == u2:
        if y1 != s2:
            return _J_INFINITY
        return _jacobian_double(p1)
    h = u2 - x1
    r = s2 - y1
    hsq = (h * h) % P
    hcu = (hsq * h) % P
    x1hsq = (x1 * hsq) % P
    nx = (r * r - hcu - 2 * x1hsq) % P
    ny = (r * (x1hsq - nx) - y1 * hcu) % P
    nz = (h * z1) % P
    return (nx, ny, nz)


def point_add(p1: Point, p2: Point) -> Point:
    """Add two affine points."""
    return _from_jacobian(_jacobian_add(_to_jacobian(p1), _to_jacobian(p2)))


def _split(scalar: int) -> tuple[int, int]:
    """``(k1, k2)`` with ``k1 + k2·λ ≡ scalar (mod N)``, for ``0 <= scalar < N``.

    It is ``(scalar, 0)`` minus the basis combination with coefficients
    ``c1 = round(b2·k/N)``, ``c2 = round(-b1·k/N)`` — the exact coefficients
    rounded, each off by at most 1/2 — so ``|k1| <= (a1 + a2)/2`` and
    ``|k2| <= (-b1 + b2)/2``, both below ``2^SPLIT_BITS``.
    """
    c1 = (2 * _A1 * scalar + N) // (2 * N)
    c2 = (2 * _MINUS_B1 * scalar + N) // (2 * N)
    return scalar - c1 * _A1 - c2 * _A2, c1 * _MINUS_B1 - c2 * _A1


def _wnaf(scalar: int) -> list[int]:
    """Signed width-5 digits of ``scalar`` (of either sign), least significant
    first: each nonzero digit is odd, lies in (-2^(w-1), 2^(w-1)) and is
    followed by at least w - 1 zeros; a negative scalar's are the negated
    digits of its absolute value."""
    digits = []
    while scalar:
        digit = 0
        if scalar & 1:
            digit = scalar & ((1 << _WNAF_WIDTH) - 1)
            if digit >> (_WNAF_WIDTH - 1):
                digit -= 1 << _WNAF_WIDTH
            scalar -= digit
        digits.append(digit)
        scalar >>= 1
    return digits


def _wnaf_mul(scalar: int, point: Point) -> _JacPoint:
    """``scalar * point`` in Jacobian form; ``0 <= scalar < N``, ``point`` on the
    curve.  One ladder over both halves of the split: a doubling per digit of
    the longer half, a mixed addition per nonzero digit of either."""
    if scalar == 0 or point.is_infinity:
        return _J_INFINITY
    # Odd multiples Q, 3Q, ..., (2^(w-1) - 1)Q: finite because Q has prime order N.
    base = _to_jacobian(point)
    twice = _jacobian_double(base)
    odd = [base]
    for _ in range((1 << (_WNAF_WIDTH - 2)) - 1):
        odd.append(_jacobian_add(odd[-1], twice))
    table = _batch_to_affine(odd)
    phi_table = [(x * _BETA % P, y) for x, y in table]
    k1, k2 = _split(scalar)
    digits1, digits2 = _wnaf(k1), _wnaf(k2)
    length = max(len(digits1), len(digits2))
    digits1 += [0] * (length - len(digits1))
    digits2 += [0] * (length - len(digits2))
    result = _J_INFINITY
    for i in range(length - 1, -1, -1):
        for digit, odd_points in ((digits1[i], table), (digits2[i], phi_table)):
            if digit:
                x, y = odd_points[abs(digit) >> 1]
                result = _jacobian_add_affine(result, x, y if digit > 0 else P - y)
        if i:
            result = _jacobian_double(result)
    return result


def point_mul(scalar: int, point: Point) -> Point:
    """Multiply an affine curve ``point`` by ``scalar`` (GLV split, width-5 wNAF)."""
    if not is_on_curve(point):
        raise ValueError("point is not on the curve")
    return _from_jacobian(_wnaf_mul(scalar % N, point))


def fixed_base_table(point: Point, width: int,
                     bits: int = 256) -> list[list[tuple[int, int]]]:
    """``table[i][j - 1] = j * 2^(width*i) * point`` as affine ``(x, y)``, for
    each window position ``i`` and window value ``j = 1 .. 2^width - 1``, with
    enough rows for a scalar below ``2^bits``.

    With it a multiple of ``point`` is one mixed addition per window and no
    doubling.  Every entry is finite because ``point`` has prime order ``N``.
    Rows are normalised one at a time, so a build never holds more than one
    row of Jacobian intermediates.  At 8 bits this is ``_G_TABLE`` (32 rows x
    255 points, ~1.5 MB, ~0.1 s); a channel counterparty's key gets the 5-bit
    one over ``SPLIT_BITS`` (26 rows x 31 points, ~9 ms — see :mod:`.keys`).
    """
    if point.is_infinity or not is_on_curve(point):
        raise ValueError("point is not a finite curve point")
    table = []
    base = _to_jacobian(point)
    for _ in range(-(-bits // width)):
        row = [base]
        for _ in range((1 << width) - 2):
            row.append(_jacobian_add(row[-1], base))
        table.append(_batch_to_affine(row))
        base = _jacobian_add(row[-1], base)  # 2^width times this row's base
    return table


_G_TABLE = fixed_base_table(G, _G_WINDOW)


def _table_mul_add(table: list[list[tuple[int, int]]], scalar: int,
                   start: _JacPoint, phi: bool = False) -> _JacPoint:
    """``start + scalar * Q`` (with ``phi``, ``start + scalar * φ(Q)``) in
    Jacobian form, ``table`` being ``Q``'s fixed-base table (its window width
    is read off the row length) with rows enough for ``|scalar|``; a negative
    ``scalar`` adds the entries' negatives."""
    result = start
    mask = len(table[0])  # 2^width - 1
    width = mask.bit_length()
    negate = scalar < 0
    scalar = abs(scalar)
    for row in table:
        if not scalar:
            break
        window = scalar & mask
        if window:
            x, y = row[window - 1]
            if phi:
                x = x * _BETA % P
            result = _jacobian_add_affine(result, x, P - y if negate else y)
        scalar >>= width
    return result


def generator_mul(scalar: int) -> Point:
    """Multiply the generator ``G`` by ``scalar`` using the fixed-base table."""
    return _from_jacobian(_table_mul_add(_G_TABLE, scalar % N, _J_INFINITY))


def double_scalar_mul(u1: int, u2: int, point: Point) -> Point:
    """Return ``u1 * G + u2 * point`` for an affine curve ``point``.

    The wNAF ladder for ``u2 * point`` runs first and the fixed-base additions
    for ``u1 * G`` continue on the same Jacobian accumulator, so the sum costs
    no extra point addition and a single conversion to affine.
    """
    if not is_on_curve(point):
        raise ValueError("point is not on the curve")
    return _from_jacobian(
        _table_mul_add(_G_TABLE, u1 % N, _wnaf_mul(u2 % N, point)))


def double_table_mul(u1: int, u2: int,
                     table: list[list[tuple[int, int]]]) -> Point:
    """Return ``u1 * G + u2 * Q`` where ``table`` is ``fixed_base_table(Q, w,
    bits)`` with ``bits >= SPLIT_BITS`` (a full-width table will do): ``u2``
    is split and ``Q``'s table walked once per half, the second time through
    ``φ`` — no doubling, one conversion to affine."""
    k1, k2 = _split(u2 % N)
    result = _table_mul_add(_G_TABLE, u1 % N, _J_INFINITY)
    result = _table_mul_add(table, k1, result)
    return _from_jacobian(_table_mul_add(table, k2, result, phi=True))


def lift_x(x: int, odd_y: bool) -> Point | None:
    """Return the curve point with this ``x`` and the requested y-parity.

    Returns None when ``x`` is not the abscissa of any curve point (about half
    of all field elements).  Used by public-key recovery.
    """
    if not 0 <= x < P:
        return None
    y_sq = (pow(x, 3, P) + B) % P
    # P % 4 == 3, so a square root (if any) is y = y_sq^((P+1)/4).
    y = pow(y_sq, (P + 1) // 4, P)
    if (y * y) % P != y_sq:
        return None
    if (y & 1) != int(odd_y):
        y = P - y
    return Point(x, y)
