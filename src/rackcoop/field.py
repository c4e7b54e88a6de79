"""Finite field arithmetic for the codec and its linear algebra.

Two families are supported:

- binary extension fields GF(2^8) and GF(2^16), with fixed canonical
  irreducible polynomials (0x11D and 0x1100B) so that serialized symbols
  are bit-exact across implementations;
- prime fields GF(p) for primes p < 2^31.

Field elements are plain Python ints in [0, order).  Scalar operations
validate their operands; the vectorized operations (``vec_*``) work on
numpy int64 arrays and skip validation, they are the hot path for the
matrix routines in :mod:`rackcoop.linalg`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# Canonical irreducible polynomials, including the x^w term.
#   GF(2^8):  x^8 + x^4 + x^3 + x^2 + 1  (0x11D)
#   GF(2^16): x^16 + x^12 + x^3 + x + 1  (0x1100B)
CANONICAL_POLY = {8: 0x11D, 16: 0x1100B}

KIND_BINARY = "binary-extension"
KIND_PRIME = "prime"


class FieldError(ValueError):
    pass


@dataclass(frozen=True)
class FieldSpec:
    """Serializable description of a field.

    ``modulus`` is the irreducible polynomial (as an integer, bit i =
    coefficient of x^i) for binary extension fields, or the prime p itself
    for prime fields.
    """

    kind: str
    order: int
    modulus: int

    def __post_init__(self):
        if self.kind not in (KIND_BINARY, KIND_PRIME):
            raise FieldError(f"unknown field kind {self.kind!r}")


class Field:
    """Common interface of both field families."""

    spec: FieldSpec
    order: int
    symbol_bytes: int

    # -- scalar ops ------------------------------------------------------

    def check(self, a: int) -> int:
        if not isinstance(a, (int, np.integer)):
            raise FieldError(f"field element must be an int, got {type(a).__name__}")
        if not 0 <= a < self.order:
            raise FieldError(f"value {a} outside [0, {self.order})")
        return int(a)

    def add(self, a: int, b: int) -> int:
        raise NotImplementedError

    def sub(self, a: int, b: int) -> int:
        raise NotImplementedError

    def mul(self, a: int, b: int) -> int:
        raise NotImplementedError

    def inv(self, a: int) -> int:
        raise NotImplementedError

    def pow(self, a: int, n: int) -> int:
        raise NotImplementedError

    # -- vectorized ops (numpy int64 arrays, no validation) ---------------

    def vec_add(self, a, b):
        raise NotImplementedError

    def vec_sub(self, a, b):
        raise NotImplementedError

    def vec_mul(self, a, b):
        raise NotImplementedError

    def vec_sum(self, a, axis=None):
        raise NotImplementedError

    def vec_dot(self, a, b) -> int:
        return int(self.vec_sum(self.vec_mul(np.asarray(a), np.asarray(b))))

    # -- serialization (little-endian, fixed width) ------------------------

    def to_bytes(self, values) -> bytes:
        arr = np.asarray(values, dtype=np.int64).ravel()
        if arr.size and (arr.min() < 0 or arr.max() >= self.order):
            raise FieldError("value outside field range")
        out = bytearray()
        for v in arr.tolist():
            out += int(v).to_bytes(self.symbol_bytes, "little")
        return bytes(out)

    def from_bytes(self, data: bytes) -> np.ndarray:
        if len(data) % self.symbol_bytes:
            raise FieldError(
                f"byte length {len(data)} not a multiple of {self.symbol_bytes}"
            )
        vals = [
            int.from_bytes(data[i : i + self.symbol_bytes], "little")
            for i in range(0, len(data), self.symbol_bytes)
        ]
        arr = np.array(vals, dtype=np.int64)
        if arr.size and arr.max() >= self.order:
            raise FieldError("decoded value outside field range")
        return arr

    def __eq__(self, other):
        return isinstance(other, Field) and self.spec == other.spec

    def __hash__(self):
        return hash(self.spec)

    def __repr__(self):
        return f"{type(self).__name__}(order={self.order})"


class BinaryField(Field):
    """GF(2^w) with log/antilog tables.

    Multiplication is table-based: ``exp[(log a + log b) mod (2^w - 1)]``.
    The extended exp table maps any index involving a zero operand to 0,
    which keeps the vectorized path branch-free.
    """

    def __init__(self, width: int, modulus: int | None = None):
        if modulus is None:
            if width not in CANONICAL_POLY:
                raise FieldError(f"no canonical modulus for GF(2^{width})")
            modulus = CANONICAL_POLY[width]
        if not (modulus >> width) & 1:
            raise FieldError(f"modulus 0x{modulus:X} does not have degree {width}")
        self.width = width
        self.order = 1 << width
        self.modulus = modulus
        self.spec = FieldSpec(KIND_BINARY, self.order, modulus)
        self.symbol_bytes = (width + 7) // 8
        self._build_tables()

    def _poly_mul(self, a: int, b: int) -> int:
        result = 0
        while b:
            if b & 1:
                result ^= a
            b >>= 1
            a <<= 1
            if (a >> self.width) & 1:
                a ^= self.modulus
        return result

    def _build_tables(self) -> None:
        q = self.order
        n = q - 1
        # Find a multiplicative generator; the group is cyclic so one of
        # the small candidates works for any irreducible modulus.
        for g in range(2, q):
            exp = np.zeros(n, dtype=np.int64)
            x = 1
            ok = True
            for i in range(n):
                exp[i] = x
                x = self._poly_mul(x, g)
                if x == 1 and i < n - 1:
                    ok = False
                    break
            if ok and x == 1:
                break
        else:
            raise FieldError(f"0x{self.modulus:X} is not irreducible over GF(2)")
        log = np.zeros(q, dtype=np.int64)
        log[exp] = np.arange(n)
        log[0] = 2 * n  # sentinel: any sum involving it lands in the zero tail
        ext = np.zeros(4 * n + 1, dtype=np.int64)
        idx = np.arange(2 * n)
        ext[idx] = exp[idx % n]
        self._exp = exp
        self._log = log
        self._ext = ext

    def add(self, a: int, b: int) -> int:
        return self.check(a) ^ self.check(b)

    sub = add

    def mul(self, a: int, b: int) -> int:
        a, b = self.check(a), self.check(b)
        if a == 0 or b == 0:
            return 0
        return int(self._ext[self._log[a] + self._log[b]])

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        n = self.order - 1
        return int(self._exp[(n - self._log[a]) % n])

    def pow(self, a: int, n: int) -> int:
        a = self.check(a)
        if n < 0:
            raise FieldError("negative exponent")
        if n == 0:
            return 1
        if a == 0:
            return 0
        return int(self._exp[(int(self._log[a]) * n) % (self.order - 1)])

    def vec_add(self, a, b):
        return np.bitwise_xor(np.asarray(a, dtype=np.int64), np.asarray(b, dtype=np.int64))

    vec_sub = vec_add

    def vec_mul(self, a, b):
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        return self._ext[self._log[a] + self._log[b]]

    def vec_sum(self, a, axis=None):
        return np.bitwise_xor.reduce(np.asarray(a, dtype=np.int64), axis=axis)


class PrimeField(Field):
    """GF(p) for a prime p < 2^31."""

    def __init__(self, p: int):
        if p < 2 or p >= 1 << 31:
            raise FieldError(f"prime order must be in [2, 2^31), got {p}")
        if not _is_prime(p):
            raise FieldError(f"{p} is not prime")
        self.order = p
        self.modulus = p
        self.spec = FieldSpec(KIND_PRIME, p, p)
        self.symbol_bytes = 4

    def add(self, a: int, b: int) -> int:
        return (self.check(a) + self.check(b)) % self.order

    def sub(self, a: int, b: int) -> int:
        return (self.check(a) - self.check(b)) % self.order

    def mul(self, a: int, b: int) -> int:
        return (self.check(a) * self.check(b)) % self.order

    def inv(self, a: int) -> int:
        a = self.check(a)
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return pow(a, self.order - 2, self.order)

    def pow(self, a: int, n: int) -> int:
        a = self.check(a)
        if n < 0:
            raise FieldError("negative exponent")
        return pow(a, n, self.order)

    def vec_add(self, a, b):
        return (np.asarray(a, dtype=np.int64) + np.asarray(b, dtype=np.int64)) % self.order

    def vec_sub(self, a, b):
        return (np.asarray(a, dtype=np.int64) - np.asarray(b, dtype=np.int64)) % self.order

    def vec_mul(self, a, b):
        # p < 2^31 keeps every product below 2^62, safe in int64.
        return (np.asarray(a, dtype=np.int64) * np.asarray(b, dtype=np.int64)) % self.order

    def vec_sum(self, a, axis=None):
        # Entries < 2^31 and desk-scale lengths keep the int64 sum exact.
        return np.sum(np.asarray(a, dtype=np.int64), axis=axis) % self.order


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None)
def _cached_binary(width: int, modulus: int) -> BinaryField:
    return BinaryField(width, modulus)


@lru_cache(maxsize=None)
def _cached_prime(p: int) -> PrimeField:
    return PrimeField(p)


def gf256() -> BinaryField:
    return _cached_binary(8, CANONICAL_POLY[8])


def gf65536() -> BinaryField:
    return _cached_binary(16, CANONICAL_POLY[16])


def prime_field(p: int) -> PrimeField:
    return _cached_prime(p)


def from_spec(spec: FieldSpec) -> Field:
    if spec.kind == KIND_PRIME:
        return _cached_prime(spec.order)
    width = spec.order.bit_length() - 1
    if 1 << width != spec.order:
        raise FieldError(f"binary field order {spec.order} is not a power of two")
    if width not in (8, 16) or spec.modulus != CANONICAL_POLY[width]:
        raise FieldError(
            f"unsupported binary field GF(2^{width}) with modulus 0x{spec.modulus:X}"
        )
    return _cached_binary(width, spec.modulus)
