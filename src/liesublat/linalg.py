"""Exact linear algebra over the prime fields GF(p), p in {2, 3, 5, 7}.

Vectors and matrices are numpy uint8 arrays with entries reduced mod p.
A subspace of GF(p)^n is always kept as a reduced row-echelon basis,
which gives every subspace a unique canonical representation: two
subspaces are equal as sets iff their bases are equal entry-wise, so a
subspace can be hashed and used as a dictionary key.

Enumeration of subspaces is deterministic: pivot-column patterns in
lexicographic order, then the free entries counted as base-p integers
(first free position most significant).  `batch_subspaces` produces the
same stream as `enumerate_subspaces` but as a dense array block, which
is what makes sweeps over millions of subspaces tractable;
`subspace_stack` holds a whole stream as one cached read-only array,
and `line_index` numbers the lines and maps each vector to its line.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

SUPPORTED_PRIMES = (2, 3, 5, 7)

#: matrices over GF(p) are plain uint8 numpy arrays
FqMatrix = np.ndarray


class UsageError(ValueError):
    """A call that violates a precondition (mismatched moduli, bad range)."""


class ResourceError(RuntimeError):
    """An enumeration or build whose size exceeds the configured budget."""


def _check_prime(p: int) -> int:
    if p not in SUPPORTED_PRIMES:
        raise UsageError(f"unsupported prime {p}; supported: {SUPPORTED_PRIMES}")
    return p


# Inverse tables, one per supported prime; index 0 is unused.
INV_TABLE = {
    p: np.array([0] + [pow(a, p - 2, p) for a in range(1, p)], dtype=np.uint8)
    for p in SUPPORTED_PRIMES
}


@dataclass(frozen=True)
class FqScalar:
    """An element of GF(p), reduced to the range [0, p)."""

    value: int
    p: int

    def __post_init__(self):
        _check_prime(self.p)
        object.__setattr__(self, "value", self.value % self.p)

    def _coerce(self, other) -> "FqScalar":
        if isinstance(other, FqScalar):
            if other.p != self.p:
                raise UsageError(f"modulus mismatch: GF({self.p}) vs GF({other.p})")
            return other
        return FqScalar(int(other), self.p)

    def __add__(self, other):
        o = self._coerce(other)
        return FqScalar(self.value + o.value, self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        return FqScalar(self.value - o.value, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return FqScalar(self.value * o.value, self.p)

    def __neg__(self):
        return FqScalar(-self.value, self.p)

    def inv(self) -> "FqScalar":
        if self.value == 0:
            raise ZeroDivisionError(f"zero has no inverse in GF({self.p})")
        return FqScalar(pow(self.value, self.p - 2, self.p), self.p)

    def __repr__(self):
        return f"FqScalar({self.value}, p={self.p})"


@dataclass(frozen=True)
class FqVector:
    """A vector over GF(p), stored as a tuple of reduced residues."""

    coords: tuple
    p: int

    def __post_init__(self):
        _check_prime(self.p)
        object.__setattr__(self, "coords", tuple(int(c) % self.p for c in self.coords))

    @classmethod
    def from_array(cls, arr, p: int) -> "FqVector":
        return cls(tuple(int(x) for x in arr), p)

    def to_array(self) -> np.ndarray:
        return np.array(self.coords, dtype=np.uint8)

    def __len__(self):
        return len(self.coords)

    def __getitem__(self, i):
        return self.coords[i]

    def __iter__(self):
        return iter(self.coords)

    def _coerce(self, other) -> "FqVector":
        if not isinstance(other, FqVector):
            raise UsageError("expected an FqVector")
        if other.p != self.p or len(other) != len(self):
            raise UsageError("vector shape or modulus mismatch")
        return other

    def __add__(self, other):
        o = self._coerce(other)
        return FqVector(tuple(a + b for a, b in zip(self.coords, o.coords)), self.p)

    def __sub__(self, other):
        o = self._coerce(other)
        return FqVector(tuple(a - b for a, b in zip(self.coords, o.coords)), self.p)

    def __rmul__(self, scalar):
        s = scalar.value if isinstance(scalar, FqScalar) else int(scalar)
        return FqVector(tuple(s * a for a in self.coords), self.p)

    def __neg__(self):
        return FqVector(tuple(-a for a in self.coords), self.p)


def as_row(v, p: int, n: int | None = None) -> np.ndarray:
    """Normalise a vector-like (FqVector, sequence, ndarray) to a uint8 row."""
    if isinstance(v, FqVector):
        if v.p != p:
            raise UsageError(f"vector modulus {v.p} does not match GF({p})")
        row = v.to_array()
    else:
        row = np.asarray(v, dtype=np.int64) % p
        row = row.astype(np.uint8)
    if row.ndim != 1:
        raise UsageError("expected a one-dimensional vector")
    if n is not None and row.shape[0] != n:
        raise UsageError(f"expected length {n}, got {row.shape[0]}")
    return row


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------

def batch_rref(mats: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Reduce a (m, r, n) batch of matrices to RREF over GF(p).

    Returns (reduced batch as uint8, ranks as int64).  Zero rows end up
    at the bottom of each matrix.
    """
    _check_prime(p)
    A = (np.asarray(mats, dtype=np.int64) % p)
    if A.ndim != 3:
        raise UsageError("batch_rref expects a 3d array")
    m, r, n = A.shape
    inv = INV_TABLE[p].astype(np.int64)
    rank = np.zeros(m, dtype=np.int64)
    rowidx = np.arange(r)[None, :]
    for col in range(n):
        elig = (rowidx >= rank[:, None]) & (A[:, :, col] != 0)
        has = elig.any(axis=1)
        if not has.any():
            continue
        mi = np.nonzero(has)[0]
        pr = elig[mi].argmax(axis=1)
        rr = rank[mi]
        # swap pivot row into position rr
        tmp = A[mi, pr, :].copy()
        A[mi, pr, :] = A[mi, rr, :]
        A[mi, rr, :] = tmp
        # normalise pivot to 1, then clear the column everywhere else
        A[mi, rr, :] = (A[mi, rr, :] * inv[A[mi, rr, col]][:, None]) % p
        sub = A[mi]
        factors = sub[:, :, col].copy()
        factors[np.arange(len(mi)), rr] = 0
        pivrows = sub[np.arange(len(mi)), rr, :]
        A[mi] = (sub - factors[:, :, None] * pivrows[:, None, :]) % p
        rank[mi] = rr + 1
    return A.astype(np.uint8), rank


def rref(mat, p: int) -> tuple[np.ndarray, int]:
    """RREF of a single matrix over GF(p); returns (reduced matrix, rank)."""
    A = np.atleast_2d(np.asarray(mat, dtype=np.int64) % p)
    if A.size == 0:
        return A.astype(np.uint8), 0
    R, rank = batch_rref(A[None, :, :], p)
    return R[0], int(rank[0])


def row_pivots(reduced: np.ndarray, rank: int) -> tuple[int, ...]:
    """Pivot columns of an RREF matrix (first nonzero entry per row)."""
    return tuple(int(np.argmax(reduced[i] != 0)) for i in range(rank))


def null_space(a, p: int) -> np.ndarray:
    """RREF basis (rows) of {x : a @ x = 0} over GF(p)."""
    A = np.atleast_2d(np.asarray(a, dtype=np.int64) % p)
    n = A.shape[1]
    R, rank = rref(A, p)
    pivots = row_pivots(R, rank)
    free = [c for c in range(n) if c not in pivots]
    basis = np.zeros((len(free), n), dtype=np.int64)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for j, pc in enumerate(pivots):
            basis[i, pc] = (-int(R[j, f])) % p
    out, rk = rref(basis, p)
    return out[:rk]


def solve_linear(a, b, p: int) -> np.ndarray | None:
    """One solution x of a @ x = b over GF(p), or None if inconsistent."""
    A = np.atleast_2d(np.asarray(a, dtype=np.int64) % p)
    bb = np.asarray(b, dtype=np.int64) % p
    aug = np.hstack([A, bb.reshape(-1, 1)])
    R, rank = rref(aug, p)
    n = A.shape[1]
    pivots = row_pivots(R, rank)
    if n in pivots:
        return None
    x = np.zeros(n, dtype=np.uint8)
    for j, pc in enumerate(pivots):
        x[pc] = R[j, n]
    return x


# ---------------------------------------------------------------------------
# Subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """A subspace of GF(p)^n held as a canonical RREF basis.

    Equality and hashing go through the canonical basis bytes, so two
    Subspace objects agree iff they are the same set of vectors.
    """

    __slots__ = ("p", "n", "rows", "pivots", "_key")

    def __init__(self, rows: np.ndarray, n: int, p: int, pivots: tuple[int, ...]):
        # rows must already be canonical RREF; use from_vectors otherwise
        self.p = p
        self.n = n
        self.rows = rows
        self.pivots = pivots
        self._key = (p, n, rows.tobytes())

    @classmethod
    def from_vectors(cls, vectors, n: int, p: int) -> "Subspace":
        _check_prime(p)
        if n < 0 or n > 8:
            raise UsageError(f"ambient dimension {n} outside supported range 0..8")
        vecs = [as_row(v, p, n) for v in vectors]
        if not vecs:
            return cls.zero(n, p)
        R, rank = rref(np.stack(vecs), p)
        rows = np.ascontiguousarray(R[:rank])
        rows.setflags(write=False)
        return cls(rows, n, p, row_pivots(rows, rank))

    @classmethod
    def from_rref(cls, rows: np.ndarray, n: int, p: int) -> "Subspace":
        """Wrap rows already known to be canonical RREF (no re-reduction)."""
        rows = np.ascontiguousarray(rows, dtype=np.uint8)
        rows.setflags(write=False)
        return cls(rows, n, p, row_pivots(rows, rows.shape[0]))

    @classmethod
    def zero(cls, n: int, p: int) -> "Subspace":
        rows = np.zeros((0, n), dtype=np.uint8)
        rows.setflags(write=False)
        return cls(rows, n, p, ())

    @classmethod
    def full(cls, n: int, p: int) -> "Subspace":
        rows = np.eye(n, dtype=np.uint8)
        rows.setflags(write=False)
        return cls(rows, n, p, tuple(range(n)))

    @property
    def dim(self) -> int:
        return self.rows.shape[0]

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, Subspace) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, n={self.n}, p={self.p})"

    def _check_compatible(self, other: "Subspace"):
        if not isinstance(other, Subspace):
            raise UsageError("expected a Subspace")
        if other.p != self.p or other.n != self.n:
            raise UsageError("ambient space mismatch")

    def residual(self, v) -> np.ndarray:
        """v reduced against the basis; zero iff v lies in the subspace."""
        w = as_row(v, self.p, self.n).astype(np.int64)
        for i, c in enumerate(self.pivots):
            w = (w - int(w[c]) * self.rows[i].astype(np.int64)) % self.p
        return w.astype(np.uint8)

    def contains(self, v) -> bool:
        return not self.residual(v).any()

    def is_subspace_of(self, other: "Subspace") -> bool:
        self._check_compatible(other)
        if self.dim > other.dim:
            return False
        return all(other.contains(r) for r in self.rows)

    def sum(self, other: "Subspace") -> "Subspace":
        self._check_compatible(other)
        if self.dim == 0:
            return other
        if other.dim == 0:
            return self
        return Subspace.from_vectors(
            np.vstack([self.rows, other.rows]), self.n, self.p
        )

    def meet(self, other: "Subspace") -> "Subspace":
        """Intersection, computed with the Zassenhaus block trick."""
        self._check_compatible(other)
        ka, kb = self.dim, other.dim
        if ka == 0 or kb == 0:
            return Subspace.zero(self.n, self.p)
        n = self.n
        block = np.zeros((ka + kb, 2 * n), dtype=np.uint8)
        block[:ka, :n] = self.rows
        block[:ka, n:] = self.rows
        block[ka:, :n] = other.rows
        R, rank = rref(block, self.p)
        inter = [R[i, n:] for i in range(rank) if not R[i, :n].any()]
        return Subspace.from_vectors(inter, n, self.p)

    def vectors(self) -> Iterator[np.ndarray]:
        """All p^dim vectors, in lexicographic coefficient order."""
        k = self.dim
        if self.p ** k > 1 << 24:
            raise ResourceError(f"subspace too large to enumerate: {self.p}^{k} vectors")
        rows = self.rows.astype(np.int64)
        for coeffs in itertools.product(range(self.p), repeat=k):
            yield (np.array(coeffs, dtype=np.int64) @ rows % self.p).astype(np.uint8)

    def line_reps(self) -> Iterator[np.ndarray]:
        """One canonical representative per 1-dim subspace, in subspace order."""
        if self.dim == 0:
            return
        for line in enumerate_subspaces(self.dim, self.p, 1):
            yield (line.rows[0].astype(np.int64) @ self.rows.astype(np.int64) % self.p).astype(np.uint8)

    def to_digit_rows(self) -> list[list[int]]:
        return [[int(x) for x in row] for row in self.rows]


def subspace_from_vectors(vs, n: int, p: int) -> Subspace:
    return Subspace.from_vectors(vs, n, p)


def subspace_contains(s: Subspace, v) -> bool:
    return s.contains(v)


def subspace_sum(a: Subspace, b: Subspace) -> Subspace:
    return a.sum(b)


def subspace_meet(a: Subspace, b: Subspace) -> Subspace:
    return a.meet(b)


def enumerate_vectors(s: Subspace) -> Iterator[np.ndarray]:
    return s.vectors()


# ---------------------------------------------------------------------------
# Subspace enumeration
# ---------------------------------------------------------------------------

def gaussian_binomial(n: int, k: int, q: int) -> int:
    """Number of k-dimensional subspaces of GF(q)^n."""
    if not 0 <= k <= n:
        raise UsageError(f"k={k} out of range for n={n}")
    num = 1
    den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    assert num % den == 0
    return num // den


def count_subspaces(n: int, p: int, k: int | None = None) -> int:
    _check_prime(p)
    if k is not None:
        return gaussian_binomial(n, k, p)
    return sum(gaussian_binomial(n, j, p) for j in range(n + 1))


def _free_positions(pattern: tuple[int, ...], n: int) -> list[tuple[int, int]]:
    pivset = set(pattern)
    return [
        (r, c)
        for r in range(len(pattern))
        for c in range(pattern[r] + 1, n)
        if c not in pivset
    ]


def pivot_patterns(n: int, k: int) -> Iterator[tuple[int, ...]]:
    """Pivot-column patterns for k-dim subspaces of GF(p)^n, lex order."""
    return itertools.combinations(range(n), k)


def batch_subspaces(
    n: int, p: int, pattern: tuple[int, ...], start: int, stop: int
) -> np.ndarray:
    """Candidates start..stop (exclusive) of one pivot pattern as a
    (stop-start, k, n) uint8 block, in enumeration order."""
    k = len(pattern)
    free = _free_positions(pattern, n)
    t = len(free)
    count = stop - start
    mats = np.zeros((count, k, n), dtype=np.uint8)
    for r, c in zip(range(k), pattern):
        mats[:, r, c] = 1
    vals = np.arange(start, stop, dtype=np.int64)
    for j, (r, c) in enumerate(free):
        mats[:, r, c] = (vals // p ** (t - 1 - j)) % p
    return mats


def subspace_shards(n: int, p: int, k: int | None = None):
    """(k, pattern, count) shard descriptors in global enumeration order.

    Shards partition the stream by pivot pattern, so independent workers
    can sweep disjoint blocks and results can be merged back in order.
    """
    ks = range(n + 1) if k is None else [k]
    for kk in ks:
        for pattern in pivot_patterns(n, kk):
            yield kk, pattern, p ** len(_free_positions(pattern, n))


def _check_enumeration(n: int, p: int, k: int | None) -> None:
    _check_prime(p)
    if not 0 <= n <= 8:
        raise UsageError(f"ambient dimension {n} outside supported range 0..8")
    if k is not None and not 0 <= k <= n:
        raise UsageError(f"k={k} out of range for n={n}")


def enumerate_subspaces(
    n: int, p: int, k: int | None = None, budget: int | None = None
) -> Iterator[Subspace]:
    """All k-dimensional subspaces of GF(p)^n (all dimensions if k is None).

    Deterministic order: dimension ascending, pivot patterns in lex
    order, free entries counted as base-p integers.
    """
    _check_enumeration(n, p, k)
    total = count_subspaces(n, p, k)
    if budget is not None and total > budget:
        raise ResourceError(
            f"enumeration of {total} subspaces exceeds budget {budget}"
        )
    for kk, pattern, count in subspace_shards(n, p, k):
        free = _free_positions(pattern, n)
        t = len(free)
        base = np.zeros((kk, n), dtype=np.uint8)
        for r, c in zip(range(kk), pattern):
            base[r, c] = 1
        for digits in itertools.product(range(p), repeat=t):
            rows = base.copy()
            for (r, c), d in zip(free, digits):
                rows[r, c] = d
            yield Subspace.from_rref(rows, n, p)


@functools.lru_cache(maxsize=None)
def subspace_stack(n: int, p: int, k: int | None = None) -> np.ndarray:
    """The RREF bases of `enumerate_subspaces(n, p, k)`, in the same order,
    as one read-only (m, r, n) uint8 array zero-padded to r rows (r = k,
    or n when k is None).

    Cached per (n, p, k): callers share one array, hence read-only.
    """
    _check_enumeration(n, p, k)
    r = n if k is None else k
    blocks = []
    for kk, pattern, count in subspace_shards(n, p, k):
        block = np.zeros((count, r, n), dtype=np.uint8)
        block[:, :kk] = batch_subspaces(n, p, pattern, 0, count)
        blocks.append(block)
    out = np.concatenate(blocks)
    out.setflags(write=False)
    return out


@functools.lru_cache(maxsize=None)
def line_index(n: int, p: int) -> tuple[np.ndarray, np.ndarray]:
    """The lines of GF(p)^n as (reps, column).

    reps[j] is the canonical representative (int64) of the j-th line in
    enumeration order; column[v] is the line holding the nonzero vector
    whose base-p digits, first coordinate least significant, spell v,
    and -1 at v = 0.  Cached per (n, p): callers share both arrays,
    hence read-only.
    """
    reps = subspace_stack(n, p, 1)[:, 0].astype(np.int64)
    column = np.full(p ** n, -1, dtype=np.int64)
    weights = p ** np.arange(n, dtype=np.int64)
    for a in range(1, p):
        column[(a * reps % p) @ weights] = np.arange(len(reps))
    reps.setflags(write=False)
    column.setflags(write=False)
    return reps, column
