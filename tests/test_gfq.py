import hashlib

import numpy as np
import pytest

import graphcodes.gfq as gfq
from graphcodes.errors import NotAPrimePower, UnsupportedField
from graphcodes.gfq import FieldSpec, make_field
from oracle import digit_product_table, discrete_logs

PRIME_POWERS = [2, 3, 4, 5, 7, 8, 9, 16, 25, 27, 32, 49, 64]


def test_make_field_gf5():
    F = make_field(5)
    assert (F.p, F.e) == (5, 1)
    assert int(F.mul_table[2, 3]) == 1


def test_make_field_gf9():
    F = make_field(9)
    assert (F.p, F.e) == (3, 2)
    assert F.q == 9


@pytest.mark.parametrize("q", [0, 1, 6, 10, 12, 100])
def test_not_a_prime_power(q):
    with pytest.raises(NotAPrimePower):
        make_field(q)


def test_inverse_examples():
    assert int(make_field(5).inv_table[2]) == 3
    for q in PRIME_POWERS:
        assert int(make_field(q).inv_table[1]) == 1


def test_gf4_cubes_are_one():
    mul = make_field(4).mul_table
    for a in range(1, 4):
        assert mul[mul[a, a], a] == 1


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_field_axioms_exhaustive(q):
    # Vectorized over all q^3 triples via the dense tables.
    F = make_field(q)
    a = np.arange(q)
    add, mul = F.add_table.astype(np.int64), F.mul_table.astype(np.int64)
    A, B, C = np.meshgrid(a, a, a, indexing="ij")
    assert np.array_equal(add[A, B], add[B, A])
    assert np.array_equal(mul[A, B], mul[B, A])
    assert np.array_equal(add[add[A, B], C], add[A, add[B, C]])
    assert np.array_equal(mul[mul[A, B], C], mul[A, mul[B, C]])
    assert np.array_equal(mul[A, add[B, C]], add[mul[A, B], mul[A, C]])
    # Identities and inverses.
    assert np.array_equal(add[a, 0], a)
    assert np.array_equal(mul[a, 1], a)
    assert np.array_equal(add[a, F.neg_table.astype(np.int64)[a]], np.zeros(q, dtype=np.int64))
    nz = a[1:]
    assert np.array_equal(mul[nz, F.inv_table.astype(np.int64)[nz]], np.ones(q - 1, dtype=np.int64))


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_little_fermat(q):
    # x^(q-1) by q - 1 products through the multiplication table.
    F = make_field(q)
    x = np.arange(1, q)
    power = np.ones(q - 1, dtype=np.uint8)
    for _ in range(q - 1):
        power = F.mul_table[power, x]
    assert (power == 1).all()


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_encoding_round_trip(q):
    # An element is the base-p digit vector of its polynomial, constant term
    # first, and addition is digit-wise mod p.
    F = make_field(q)
    digits = [gfq._digits(x, F.p, F.e) for x in range(q)]
    assert [sum(c * F.p**i for i, c in enumerate(ds)) for ds in digits] == list(range(q))
    for x, dx in enumerate(digits):
        for y, dy in enumerate(digits):
            assert digits[F.add_table[x, y]] == [(a + b) % F.p for a, b in zip(dx, dy)]


@pytest.mark.parametrize("q", PRIME_POWERS)
def test_log_exp_consistency(q):
    # exp_table lists g^0, ..., g^(q-2) for the primitive element g, each
    # power the last times g, and is a bijection onto 1..q-1: every nonzero
    # element has exactly one log.
    F = make_field(q)
    exp = F.exp_table
    assert exp[0] == 1
    assert np.array_equal(exp[1:], F.mul_table[exp[:-1], F.primitive])
    assert sorted(exp.tolist()) == list(range(1, q))


def test_construction_is_deterministic():
    import graphcodes.gfq as gfq

    a = gfq.FieldSpec(8)
    b = gfq.FieldSpec(8)
    assert a.reducing_poly == b.reducing_poly
    assert a.primitive == b.primitive
    assert np.array_equal(a.mul_table, b.mul_table)


@pytest.mark.parametrize("q", [257, 1024, 2**31 - 1])
def test_oversized_field_is_unsupported(q, monkeypatch):
    def no_factoring(q):
        raise AssertionError("q > 256 must be refused before factoring")

    monkeypatch.setattr(gfq, "_factor_prime_power", no_factoring)
    with pytest.raises(UnsupportedField, match="exceeds the supported maximum 256"):
        make_field(q)
    assert not issubclass(UnsupportedField, NotAPrimePower)


# Every prime power q <= 256: the primitive element and the SHA-256 of the
# add, mul, neg, inv, exp and log tables, each as little-endian int16 bytes
# in that order, as produced by the earlier pair-by-pair polynomial
# construction.  The field keeps no log table; `_digest` rebuilds it from
# exp_table, with -1 at 0 (`oracle.discrete_logs`).
TABLES = ("add_table", "mul_table", "neg_table", "inv_table", "exp_table")
PINNED = {
    2: (1, "af9eb708fdbfad33b8ed6b6d3d1410a8bbf7f38aaf6e81796892021f6c27e9cb"),
    3: (2, "1673eddb3e778fd4de330088baac27372b07d753668620b577c3593369e10d78"),
    4: (2, "37d5d0b4b70edc27f2c108cb8210a7302531c486983d002c6a10d42031890a56"),
    5: (2, "acaf2908c5b3aeb9c8fe3682cfb24e08337740545180ce30f061bd6737dc601d"),
    7: (3, "1e792498240c77f72cf800f9e402e7dd674106f40a19144131b953f25451dcdf"),
    8: (2, "841d3efc96df0b934321fcf450f813e7fbc2a6372fb49f390148b339be90bc07"),
    9: (4, "1dc214a08d4e4e6829a3bafc37bb2ab793e405c03ebe4a7725498d94d2ba5735"),
    11: (2, "b2f62ee77e34d17406b792ee661752a41848f0541474c3fdf8161580650c6ce9"),
    13: (2, "56cfc22215cfba68fd8f33878933f7acda485616b17dfd32c3d857be05c585de"),
    16: (2, "2ac82c7d32085771bb6b216970a47213a4c878eae2e5ce8597d7db2f071f07da"),
    17: (3, "51c1e36a10020fbf1c610b1e4822d3481f713d3d884430629a795a928e03f367"),
    19: (2, "e090a8f1c6933d8cd4b9c04280f1ad2268ac1c712ef0f79d2c1099b6ea371b44"),
    23: (5, "67c3d109d70e98b9febf7f521feb5dff87b59cc935c93981ade4ba3843ca934d"),
    25: (6, "a800704446e0090e06a057c399e10701934c5d39fa888ca4a9284a40024d4ca1"),
    27: (3, "a80be2928e169c640fb7968af21eb34a4f708900fce002fa48fcd23e35b1f073"),
    29: (2, "6ec8b124dab1c53f9c55f882ca24ee097e75559e826ebf439b9cc90b474956ea"),
    31: (3, "91a658048116b2e71c35f6061d379314aa026b3791bcbd83dddc892f89ae6d61"),
    32: (2, "8325632f88df791000f18955fea33c8a60a5c2a4d8800d969f8325f3d5fcc5c2"),
    37: (2, "b8f5b863d16b6052bbd99bf4e346086c4796560e1e121be8b6e12b99ec0c5fb6"),
    41: (6, "492e468e3bc3f12ddb5f3ba893944b6028177eaf9259baf1dc7446ed625a92f9"),
    43: (3, "dcfcede29c9ceaf1518d1d432a8cde28d494a05586a5b40f57d270d97d2b8b49"),
    47: (5, "f3562ff7063f67f89acfbb7bbeea5c11c04d7b06c2cb0e25eebb35174984272b"),
    49: (9, "b4043f7299aebdf9b627cb40eec3395341271c989c7952dd55e3bd7609d763c6"),
    53: (2, "2e448b1320a81e1a070462cbd75c4d224fd57b6e9825ad586d70d8ba15ab0581"),
    59: (2, "b4e8a2bcf8deffa260aed5b98c086409da0c6a1dd0dd6a266a0456a857103032"),
    61: (2, "521d2d7f17c24e163fb578bbf87e07a2c421b6d56afe5492885bf8f2f1dfb018"),
    64: (2, "c3a1a77e98e97434acda66b585d6b03b080830e0166499de196e719022fb7260"),
    67: (2, "97f7b166d44f5002dfad5af79ce7b0d0723b44739b92c36e14e51da6c1940349"),
    71: (7, "fbaa329278d3243414c50dce7d2227e1fffa352ef1cdce9c6b2fc7fbe4c99115"),
    73: (5, "bc92b561c861cc62aff1abb06d346dd555f885c183698aabc00d66a58004a4ca"),
    79: (3, "25d84fea2ad19935d82a71b335575fcea2973dc0afce1572f3bac46c4807309d"),
    81: (3, "086d72889a4ddcf876d89f6008df7cbf13b3f8ac43d14d6de27059072f3db280"),
    83: (2, "960b33abf668ceb90bb787032f1744a5040e860f728d1d147831f08232d5ba8a"),
    89: (3, "9047460e3391af862ce0e4c344fdb80a2c23ff447a979ed8e501154bad4754ed"),
    97: (5, "71c9b8297be1205831bba97592ea2668c29e561c52e96423f2d618585499b90b"),
    101: (2, "e65d10d3e8b8e94b8a428ef22b4604bbd4922805c3254b29ebcce4a70fd8b200"),
    103: (5, "876ee77bcc897781e9e2174e9dd0203d161c985cb87d20e2c0ce2d403336dc58"),
    107: (2, "a12428921369f48a98d3ed6d8faf1ee390e37cedce65428e3922c2b3af8d2c48"),
    109: (6, "13dc31c4d595bdf1c948f3443b6d371da7fae4f3c0eb07941ec2809632db3114"),
    113: (3, "e17166e2c6111622bdd2dd3c5b4304501cdb9305042696c555f8230fed15c901"),
    121: (15, "5256eea0986117fb027a79a6473c4c48b3149fbb270680ccd0cada0367c440a3"),
    125: (9, "12e75235ff7d1cfc6417666e24196c6a9ba61aac919e5fa309953469afba03cf"),
    127: (3, "61a96f4b49dcb89099f9da61d279bfe2156d526c03812563940c9ee48329921c"),
    128: (2, "e390e9118a74f5c96ecea7ac1e78b5ae10247278b5ccfe9da622525c3412f76c"),
    131: (2, "cedc1daf22a481c26a11c42ea7ac20bdbcad3bad8175db4ebc35c31fb1dcd387"),
    137: (3, "e662a9a1d2f67745b703d21ca215af102bc9564b9d08d958ff7e2e8b961fd9e8"),
    139: (2, "4fc20e3c275619dcade7ef4e57ebfa6eea1073419b66d239ac621dd8d98134a3"),
    149: (2, "405ea7ba52b5842d539e0b99f2938a636b4879add497054ac95da24b682927cc"),
    151: (6, "2da7ac90a3383fc0a68b6a87e1f482ba0e1530a3bbaa792b28916cc9b7bb7eb0"),
    157: (5, "4b4d1a9e065fe6fb2ceccd0aad4300cc10171b04db8c7205b8f35d7fe1d0ecc0"),
    163: (2, "a3c96cd0042165a159fb26751f39e714fb664d3cac5806104e7dabb683e8b2b2"),
    167: (5, "036d5c034e8ed2a5a86d548a6213f1c748106694d3f5934d15440ec15beb32b3"),
    169: (15, "7c6d26022323fd1d2dba8f012e3a4715831ac5698d232bc1f0d8902b20b8cb3f"),
    173: (2, "59b11b8a26e55ffd9684099ea19b2812ae85a2eb11190d465c0608730027990b"),
    179: (2, "2cf25996b989d1e8a4250ba0de930dd9544ad331c779d5ece4853d6cf1a4cecb"),
    181: (2, "892ee864f97877f4ff048393e75741d763fa843cd32e81db843852e390d9adc8"),
    191: (19, "daac8c6bafdaf0cf8ea22230a5a0cf64680bd97b24e971a855628bcf0f526adb"),
    193: (5, "972ee70d001e12908d01931968a603131ff321adea8150819772e2a859935cc3"),
    197: (2, "0f4ddb11e8c7b022e5f7d98dacabf738b3064632d71c3739ed31343248299277"),
    199: (3, "4b898fdafe85bbafa2753c99ee1fad06a3d18a837698b6d1ce592a75ee1c8a0b"),
    211: (2, "0eef5d2e3c04f6627e25aa68ad86101bae8dc4b64c182fd7e34a3bc79b43fb0d"),
    223: (3, "da0cc68dabf57ffe79b250c3ba9b7fe2a8cd3cefbf61d29e153f7e37b0f933d2"),
    227: (2, "b45dacf6c43735e5b6212d1f9fe9e325be48339327e0aa134418df75f4bd744f"),
    229: (6, "75aa47d653c46f90911f2b8287879cf182ca3bf54cef8d056a405f0fd4cc0b68"),
    233: (3, "a8a18d8e8c2683b2b054726d44d7e42c7f6356a52fa85fe3e8b2eeb1d0736e74"),
    239: (7, "5071d81b45ff158fb8a6d25f83048dc580fe4455423826013b475c94b4f7b17d"),
    241: (7, "b33d64663f809c9545219f47977fd65384297cac1fcdccab9e31ede1c918c341"),
    243: (3, "d45506273e482160a6c087c545081ca79499f78943bec60d41e471780b041a09"),
    251: (6, "48d67f3a95750925415464b9d12b5a03cc2d4fdc24c424261ad191c1c7e01d4b"),
    256: (3, "d348e3b40b65673900a9f8204e2ea97a463a7ddeb108134d205b3bbd4da80b6d"),
}
PINNED_REDUCING_POLY = {
    4: (1, 1, 1),
    8: (1, 1, 0, 1),
    9: (1, 0, 1),
    16: (1, 1, 0, 0, 1),
    25: (2, 0, 1),
    27: (1, 2, 0, 1),
    32: (1, 0, 1, 0, 0, 1),
    49: (1, 0, 1),
    64: (1, 1, 0, 0, 0, 0, 1),
    81: (2, 1, 0, 0, 1),
    121: (1, 0, 1),
    125: (1, 1, 0, 1),
    128: (1, 1, 0, 0, 0, 0, 0, 1),
    169: (2, 0, 1),
    243: (1, 2, 0, 0, 0, 1),
    256: (1, 1, 0, 1, 1, 0, 0, 0, 1),
}


def _is_prime_power(q):
    p = next(p for p in range(2, q + 1) if q % p == 0)
    while q % p == 0:
        q //= p
    return q == 1


def test_pins_cover_every_prime_power():
    assert sorted(PINNED) == [q for q in range(2, 257) if _is_prime_power(q)]
    assert len(PINNED) == 70
    assert sorted(PINNED_REDUCING_POLY) == [q for q in PINNED if make_field(q).e > 1]


def _digest(F):
    """SHA-256 of the pinned tables of F, the log table rebuilt from exp."""
    h = hashlib.sha256()
    for table in [getattr(F, name) for name in TABLES] + [discrete_logs(F)]:
        h.update(np.asarray(table, dtype="<i2").tobytes())
    return h.hexdigest()


@pytest.mark.parametrize("q", sorted(PINNED))
def test_tables_match_pinned_construction(q):
    F = FieldSpec(q)
    primitive, digest = PINNED[q]
    assert F.primitive == primitive
    assert all(getattr(F, name).dtype == np.uint8 for name in TABLES)
    assert _digest(F) == digest
    assert F.reducing_poly == PINNED_REDUCING_POLY.get(q, (0, 1))


@pytest.mark.parametrize("q", sorted(PINNED))
def test_mul_table_is_the_digit_product(q):
    # The field multiplies by powers of g; the oracle by polynomial products.
    F = FieldSpec(q)
    assert np.array_equal(F.mul_table, digit_product_table(F))


@pytest.mark.parametrize("first", sorted(gfq._TABLES))
@pytest.mark.parametrize("q", [9, 256])
def test_tables_are_built_together_on_first_access(q, first):
    # Construction sets only q, p, e and the reducing polynomial; the first
    # read of any table or the primitive element builds every table at once,
    # the field is then these and nothing else, and the pinned digests hold
    # whichever came first.
    F = FieldSpec(q)
    assert sorted(vars(F)) == ["e", "p", "q", "reducing_poly"]
    getattr(F, first)
    public = {name for name in dir(F) if not name.startswith("_")}
    assert public == set(vars(F)) == {"e", "p", "q", "reducing_poly", *gfq._TABLES}
    assert gfq._TABLES == {"primitive", *TABLES}
    primitive, digest = PINNED[q]
    assert (F.primitive, _digest(F)) == (primitive, digest)


def test_unknown_attribute_builds_nothing():
    F = FieldSpec(7)
    for name in ("no_such_table", "log_table"):
        with pytest.raises(AttributeError, match=name):
            getattr(F, name)
    assert sorted(vars(F)) == ["e", "p", "q", "reducing_poly"]


@pytest.mark.parametrize("q", [q for q in sorted(PINNED) if q > 64])
def test_field_axioms_sampled(q):
    # The exhaustive check above stops at 64; sample triples beyond it.
    F = make_field(q)
    rng = np.random.default_rng(q)
    A, B, C = rng.integers(0, q, size=(3, 20000))
    add, mul = F.add_table.astype(np.int64), F.mul_table.astype(np.int64)
    assert np.array_equal(add[A, B], add[B, A])
    assert np.array_equal(mul[A, B], mul[B, A])
    assert np.array_equal(add[add[A, B], C], add[A, add[B, C]])
    assert np.array_equal(mul[mul[A, B], C], mul[A, mul[B, C]])
    assert np.array_equal(mul[A, add[B, C]], add[mul[A, B], mul[A, C]])
    a = np.arange(q)
    assert np.array_equal(add[a, 0], a)
    assert np.array_equal(mul[a, 1], a)
    assert not add[a, F.neg_table[a]].any()
    assert (mul[a[1:], F.inv_table[1:]] == 1).all()
    assert sorted(F.exp_table) == list(range(1, q))
