"""Exact arithmetic in GF(q) for prime powers q = p^e, q <= 256.

Elements are encoded as integers 0..q-1, read as base-p digit vectors of
polynomial coefficients (least significant digit = constant term).  A field
carries full log/antilog tables with respect to a fixed primitive element,
plus dense q x q addition and multiplication tables so that row operations
can be vectorized with numpy fancy indexing.

The construction is deterministic: for e > 1 the reducing polynomial is the
irreducible monic of degree e over GF(p) with the smallest integer encoding
of its non-leading coefficients, and the primitive element is the
smallest-encoded generator of the multiplicative group.
"""

from __future__ import annotations

import numpy as np

from .errors import DivisionByZero, NotAPrimePower

MAX_Q = 256


def _factor_prime_power(q):
    """Return (p, e) with q = p^e, or raise NotAPrimePower."""
    if q < 2:
        raise NotAPrimePower(f"q = {q} is not a prime power")
    for p in range(2, q + 1):
        if q % p == 0:
            e = 0
            m = q
            while m % p == 0:
                m //= p
                e += 1
            if m != 1:
                raise NotAPrimePower(f"q = {q} is not a prime power")
            return p, e
    raise NotAPrimePower(f"q = {q} is not a prime power")


def _poly_mod(num, den, p):
    """Remainder of num by monic den, coefficient lists (low to high) mod p."""
    num = list(num)
    dd = len(den) - 1
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i] % p
        if c:
            for j in range(dd + 1):
                num[i - dd + j] = (num[i - dd + j] - c * den[j]) % p
    return [c % p for c in num[:dd]]


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _digits(x, p, e):
    out = []
    for _ in range(e):
        out.append(x % p)
        x //= p
    return out


def _undigits(ds, p):
    x = 0
    for d in reversed(ds):
        x = x * p + d
    return x


def _monic_polys(deg, p):
    for enc in range(p**deg):
        yield _digits(enc, p, deg) + [1]


def _is_irreducible(poly, p):
    deg = len(poly) - 1
    for f in range(1, deg // 2 + 1):
        for div in _monic_polys(f, p):
            if not any(_poly_mod(poly, div, p)):
                return False
    return True


def _find_irreducible(p, e):
    for enc in range(p**e):
        poly = _digits(enc, p, e) + [1]
        if _is_irreducible(poly, p):
            return poly
    raise AssertionError("no irreducible polynomial found")  # unreachable


class FieldSpec:
    """Immutable arithmetic tables for GF(q).  Safe to share across workers.

    Attributes:
        q, p, e: field size, characteristic, extension degree.
        add_table, mul_table: dense (q, q) int16 tables.
        neg_table, inv_table: (q,) int16 tables (inv_table[0] is 0, unused).
        exp_table: (q-1,) powers of the primitive element.
        log_table: (q,) discrete logs; log_table[0] = -1 sentinel.
    """

    def __init__(self, q):
        if q > MAX_Q:
            raise NotAPrimePower(f"q = {q} exceeds the supported maximum {MAX_Q}")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e

        if e == 1:
            self.reducing_poly = None
            a = np.arange(q, dtype=np.int64)
            self.add_table = ((a[:, None] + a[None, :]) % q).astype(np.int16)
            self.mul_table = ((a[:, None] * a[None, :]) % q).astype(np.int16)
            self.neg_table = ((-a) % q).astype(np.int16)
        else:
            self.reducing_poly = tuple(_find_irreducible(p, e))
            digs = [_digits(x, p, e) for x in range(q)]
            add = np.zeros((q, q), dtype=np.int16)
            mul = np.zeros((q, q), dtype=np.int16)
            for x in range(q):
                for y in range(x, q):
                    s = _undigits([(dx + dy) % p for dx, dy in zip(digs[x], digs[y])], p)
                    add[x, y] = add[y, x] = s
                    prod = _poly_mod(_poly_mul(digs[x], digs[y], p), self.reducing_poly, p)
                    m = _undigits(prod, p)
                    mul[x, y] = mul[y, x] = m
            self.add_table = add
            self.mul_table = mul
            self.neg_table = np.array(
                [_undigits([(-d) % p for d in digs[x]], p) for x in range(q)],
                dtype=np.int16,
            )

        self.primitive = self._find_primitive()
        exp = np.zeros(q - 1, dtype=np.int16)
        log = np.full(q, -1, dtype=np.int64)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = int(self.mul_table[x, self.primitive])
        self.exp_table = exp
        self.log_table = log

        inv = np.zeros(q, dtype=np.int16)
        inv[1:] = exp[(-log[1:]) % (q - 1)]
        self.inv_table = inv

    def _find_primitive(self):
        if self.q == 2:
            return 1
        for g in range(2, self.q):
            x = g
            order = 1
            while x != 1:
                x = int(self.mul_table[x, g])
                order += 1
            if order == self.q - 1:
                return g
        raise AssertionError("no primitive element found")  # unreachable

    # Scalar operations.  Hot paths index the tables directly with numpy.

    def add(self, a, b):
        return int(self.add_table[a, b])

    def neg(self, a):
        return int(self.neg_table[a])

    def mul(self, a, b):
        return int(self.mul_table[a, b])

    def inv(self, a):
        if a == 0:
            raise DivisionByZero("inverse of 0")
        return int(self.inv_table[a])

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def pow(self, a, n):
        if n < 0:
            return self.pow(self.inv(a), -n)
        if a == 0:
            return 1 if n == 0 else 0
        return int(self.exp_table[(int(self.log_table[a]) * n) % (self.q - 1)])

    def encode(self, coeffs):
        """Base-p coefficient vector (low degree first) -> element."""
        return _undigits(list(coeffs), self.p)

    def decode(self, x):
        """Element -> base-p coefficient vector of length e."""
        return tuple(_digits(x, self.p, self.e))

    def __repr__(self):
        return f"FieldSpec(q={self.q})"


_field_cache: dict[int, FieldSpec] = {}


def make_field(q):
    """Deterministic GF(q) construction; raises NotAPrimePower otherwise."""
    F = _field_cache.get(q)
    if F is None:
        F = _field_cache[q] = FieldSpec(q)
    return F
