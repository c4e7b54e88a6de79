import random

import numpy as np
import pytest

from helpers import reference_poly_mul
from rackcoop import field
from rackcoop.field import FieldError, FieldSpec, from_spec, gf256, gf65536, prime_field


# ---------------------------------------------------------------------------
# identities and hand values
# ---------------------------------------------------------------------------

def test_characteristic_two_self_inverse_exhaustive():
    f = gf256()
    a = np.arange(256)
    assert not f.vec_add(a, a).any()


def test_additive_identity():
    f = gf256()
    a = np.arange(0, 256, 7)
    assert np.array_equal(f.vec_add(a, 0), a)
    p = prime_field(11)
    a = np.arange(11)
    assert np.array_equal(p.vec_add(a, 0), a)


def test_prime_modular_add():
    assert prime_field(7).vec_add(5, 4) == 2


def test_multiplicative_identities():
    for f in (gf256(), prime_field(7)):
        assert f.inv(1) == 1
        a = np.arange(1, min(64, f.order))
        assert np.array_equal(f.vec_mul(a, 1), a)


def _times_inverse(f, xs):
    """x * inv(x) for each x, with the scalar inverse."""
    return f.vec_mul(xs, [f.inv(int(x)) for x in xs])


def test_gf256_all_inverses():
    """Every nonzero element times its inverse is 1, exhaustively."""
    f = gf256()
    assert (_times_inverse(f, np.arange(1, 256)) == 1).all()
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_prime_all_inverses():
    for q in (2, 7, 31):
        f = prime_field(q)
        assert (_times_inverse(f, np.arange(1, q)) == 1).all()
        with pytest.raises(ZeroDivisionError):
            f.inv(0)


def test_vec_inv_matches_scalar_inverse():
    rng = random.Random(5)
    for f in (gf256(), gf65536(), prime_field(2), prime_field(257), prime_field(2**31 - 1)):
        xs = np.array(sorted({rng.randrange(1, f.order) for _ in range(200)}), dtype=np.int64)
        assert f.vec_inv(xs).tolist() == [f.inv(int(x)) for x in xs]


# ---------------------------------------------------------------------------
# field axioms
# ---------------------------------------------------------------------------

def test_gf256_axioms_exhaustive():
    """Commutativity pairwise, associativity/distributivity over the full cube
    (vectorized in 256 slabs)."""
    f = gf256()
    vals = np.arange(256)
    B, C = np.meshgrid(vals, vals, indexing="ij")
    assert np.array_equal(f.vec_mul(B, C), f.vec_mul(C, B))
    assert np.array_equal(f.vec_add(B, C), f.vec_add(C, B))
    for a in range(256):
        assert np.array_equal(f.vec_mul(f.vec_mul(a, B), C), f.vec_mul(a, f.vec_mul(B, C)))
        left = f.vec_mul(a, f.vec_add(B, C))
        right = f.vec_add(f.vec_mul(a, B), f.vec_mul(a, C))
        assert np.array_equal(left, right)


def test_small_prime_axioms_exhaustive():
    f = prime_field(7)
    a, b, c = np.meshgrid(*[np.arange(7)] * 3, indexing="ij")
    assert np.array_equal(f.vec_add(a, b), f.vec_add(b, a))
    assert np.array_equal(f.vec_mul(a, b), f.vec_mul(b, a))
    assert np.array_equal(f.vec_mul(a, f.vec_mul(b, c)), f.vec_mul(f.vec_mul(a, b), c))
    left = f.vec_mul(a, f.vec_add(b, c))
    right = f.vec_add(f.vec_mul(a, b), f.vec_mul(a, c))
    assert np.array_equal(left, right)


def test_gf65536_axioms_sampled():
    f = gf65536()
    rng = np.random.default_rng(123)
    a, b, c = (rng.integers(0, f.order, size=20000) for _ in range(3))
    assert np.array_equal(f.vec_mul(f.vec_mul(a, b), c), f.vec_mul(a, f.vec_mul(b, c)))
    left = f.vec_mul(a, f.vec_add(b, c))
    right = f.vec_add(f.vec_mul(a, b), f.vec_mul(a, c))
    assert np.array_equal(left, right)
    assert (_times_inverse(f, rng.integers(1, f.order, size=200)) == 1).all()


# ---------------------------------------------------------------------------
# serialization and validation
# ---------------------------------------------------------------------------

def test_serialization_roundtrip_exhaustive():
    f8 = gf256()
    vals = list(range(256))
    assert f8.from_bytes(f8.to_bytes(vals)).tolist() == vals
    f16 = gf65536()
    vals = list(range(65536))
    assert f16.from_bytes(f16.to_bytes(vals)).tolist() == vals
    fp = prime_field(257)
    vals = list(range(257))
    assert fp.from_bytes(fp.to_bytes(vals)).tolist() == vals


def test_symbol_widths():
    assert gf256().symbol_bytes == 1
    assert gf65536().symbol_bytes == 2
    assert gf256().to_bytes([0x11]) == b"\x11"
    # little-endian two-byte encoding
    assert gf65536().to_bytes([0x1234]) == b"\x34\x12"


def test_serialization_byte_literals():
    fp = prime_field(2**31 - 1)
    assert fp.to_bytes([0x01020304]) == b"\x04\x03\x02\x01"
    assert fp.from_bytes(b"\x04\x03\x02\x01").tolist() == [0x01020304]
    assert gf65536().from_bytes(b"\x34\x12\xff\xff").tolist() == [0x1234, 0xFFFF]
    with pytest.raises(FieldError, match="outside field range"):
        fp.from_bytes(b"\xff\xff\xff\xff")  # 2^32 - 1 >= p
    with pytest.raises(FieldError, match="not a multiple"):
        gf65536().from_bytes(b"\x01\x02\x03")
    with pytest.raises(FieldError, match="outside field range"):
        fp.to_bytes([2**31 - 1])


def test_canonical_moduli():
    assert gf256().modulus == 0x11D
    assert gf65536().modulus == 0x1100B


def test_tables_match_bitwise_multiply():
    """The log/antilog product equals shift-and-add multiplication modulo the
    canonical polynomial: every GF(2^8) pair and 20,000 seeded GF(2^16) pairs."""
    f = gf256()
    a, b = (x.ravel() for x in np.meshgrid(np.arange(256), np.arange(256)))
    want = [reference_poly_mul(int(x), int(y), 8, 0x11D) for x, y in zip(a, b)]
    assert f.vec_mul(a, b).tolist() == want
    f = gf65536()
    rng = np.random.default_rng(16)
    a, b = rng.integers(0, 1 << 16, size=(2, 20_000))
    want = [reference_poly_mul(int(x), int(y), 16, 0x1100B) for x, y in zip(a, b)]
    assert f.vec_mul(a, b).tolist() == want


def test_canonical_moduli_are_primitive():
    """The tables are built as powers of x, which needs x to generate the
    multiplicative group: exp holds 2^w - 1 distinct entries."""
    for f in (gf256(), gf65536()):
        assert f._exp.size == np.unique(f._exp).size == f.order - 1


def test_out_of_range_rejected():
    f = gf256()
    with pytest.raises(FieldError):
        f.check(256)
    with pytest.raises(FieldError):
        f.inv(-1)
    with pytest.raises(FieldError):
        f.to_bytes([999])


def test_bad_field_specs():
    with pytest.raises(FieldError):
        prime_field(10)
    with pytest.raises(FieldError):
        field.BinaryField(12)  # no canonical modulus
    with pytest.raises(FieldError):
        from_spec(FieldSpec("binary-extension", 256, 0x11B))  # non-canonical
    with pytest.raises(FieldError):
        FieldSpec("weird", 7, 7)


def test_from_spec_roundtrip():
    for f in (gf256(), gf65536(), prime_field(97)):
        assert from_spec(f.spec) == f
