"""Exact arithmetic in GF(q) for prime powers q = p^e, q <= 256.

Elements are encoded as integers 0..q-1, read as base-p digit vectors of
polynomial coefficients (least significant digit = constant term), and
since q <= 256 every element is one byte: every table of elements is uint8,
so the points, generators and distance kernels downstream are uint8 with
no conversion.  A field is its byte tables: the powers of a fixed
primitive element, negation and inversion, and dense q x q addition and
multiplication tables, so that row operations are numpy fancy indexing.

Every q goes through one construction on the (q, e) digit matrix of the
elements.  Addition and negation are digit-wise mod p: the addition table of
p^k elements is that of p^(k-1) elements for the high digits beside the
GF(p) table for the constant term.  Multiplying by x shifts the digits up
and reduces the carried top digit by the reducing polynomial; the map
a -> g * a is the digit-wise sum of g_i * (x^i * a), and iterating it lists
the powers of g.  The primitive element is the smallest-encoded g whose
powers reach every nonzero element, and then a * b = g^(log a + log b).
The reducing polynomial is the irreducible monic of degree e over GF(p)
with the smallest integer encoding of its non-leading coefficients (x
itself for a prime field).  The construction is deterministic.

`make_field` validates q and finds p, e and the reducing polynomial in pure
Python; the numpy tables and the primitive element are built together on
the first access to any of them, so a caller that needs only q (the group
structure of X, and so dimension and regularity) never imports numpy.
"""

from __future__ import annotations

from .errors import NotAPrimePower, UnsupportedField

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


def _digits(x, p, e):
    out = []
    for _ in range(e):
        out.append(x % p)
        x //= p
    return out


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
    """The monic irreducible of degree e with the smallest encoding; x for e = 1."""
    return next(poly for poly in _monic_polys(e, p) if _is_irreducible(poly, p))


def _find_primitive(times, q):
    """The smallest generator g of GF(q)^* and its powers g^0, ..., g^(q-2);
    times(g) is the list of g * a for a = 0, ..., q-1."""
    for g in range(1, q):
        by_g = times(g)
        powers = [1]
        x = g
        while x != 1:
            powers.append(x)
            x = by_g[x]
        if len(powers) == q - 1:
            return g, powers
    raise AssertionError("no primitive element found")  # unreachable


# Built together on the first access to any of them (`FieldSpec.__getattr__`).
_TABLES = frozenset({"add_table", "mul_table", "neg_table", "inv_table", "exp_table", "primitive"})


class FieldSpec:
    """Immutable arithmetic tables for GF(q), elements as uint8.

    Attributes:
        q, p, e: field size, characteristic, extension degree.
        reducing_poly: coefficients (low to high) of the monic irreducible
            polynomial of degree e defining the field; (0, 1) when e = 1.
        add_table, mul_table: dense (q, q) uint8 tables.
        neg_table, inv_table: (q,) uint8 tables (inv_table[0] is 0, unused).
        exp_table: (q-1,) uint8 powers of the primitive element.
        primitive: the primitive element.

    q, p, e and reducing_poly are set, and q validated, on construction;
    the tables and the primitive element on first access to any of them.
    """

    def __init__(self, q):
        if q > MAX_Q:
            raise UnsupportedField(f"q = {q} exceeds the supported maximum {MAX_Q}")
        p, e = _factor_prime_power(q)
        self.q = q
        self.p = p
        self.e = e
        self.reducing_poly = tuple(_find_irreducible(p, e))

    def __getattr__(self, name):
        # Reached only for an attribute not yet set; once built, the tables
        # are plain instance attributes.
        if name not in _TABLES:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        self._build_tables()
        return self.__dict__[name]

    def _build_tables(self):
        import numpy as np

        q, p, e = self.q, self.p, self.e
        place = p ** np.arange(e)
        digits = np.arange(q)[:, None] // place % p
        # Multiplying by x shifts the digits up and reduces the carried top
        # digit; shifts[a, i] holds the digits of x^i * a, so the digits of
        # g * a are sum_i g_i * shifts[a, i] mod p.
        shifts = [digits]
        low = np.array(self.reducing_poly[:e])
        for _ in range(e - 1):
            a = shifts[-1]
            up = np.pad(a[:, :-1], ((0, 0), (1, 0)))
            shifts.append((up - a[:, -1:] * low) % p)
        shifts = np.stack(shifts, axis=1)

        def times(g):
            return ((digits[g] @ shifts) % p @ place).tolist()

        primitive, powers = _find_primitive(times, q)
        exp = np.array(powers, dtype=np.uint8)
        log = np.zeros(q, dtype=np.intp)
        log[exp] = np.arange(q - 1)
        # g^i for 0 <= i < 2(q-1), so that log a + log b needs no reduction.
        exp2 = np.concatenate([exp, exp])
        mul_table = np.zeros((q, q), dtype=np.uint8)
        mul_table[1:, 1:] = exp2[log[1:, None] + log[1:]]
        inv = np.zeros(q, dtype=np.uint8)
        inv[exp] = exp[-np.arange(q - 1) % (q - 1)]  # 1 / g^i = g^-i

        digit = np.arange(p)
        step = np.asarray(np.add.outer(digit, digit) % p, dtype=np.uint8)  # GF(p) addition
        add_table = step
        for _ in range(e - 1):
            # a = a_high * p + a_0: the high digits and the constant term add apart.
            add_table = (add_table[:, None, :, None] * p + step[None, :, None, :]).reshape(
                len(add_table) * p, -1)
        neg_table = np.asarray(-digits % p @ place, dtype=np.uint8)
        self.__dict__.update(add_table=add_table, mul_table=mul_table, neg_table=neg_table,
                             primitive=primitive, exp_table=exp, inv_table=inv)

    def __repr__(self):
        return f"FieldSpec(q={self.q})"


_field_cache: dict[int, FieldSpec] = {}


def make_field(q):
    """Deterministic GF(q) construction; raises UnsupportedField for
    q > 256 and NotAPrimePower for any other q that is not a prime power."""
    F = _field_cache.get(q)
    if F is None:
        F = _field_cache[q] = FieldSpec(q)
    return F
