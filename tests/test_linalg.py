import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesublat.linalg import (
    SUPPORTED_PRIMES,
    FqScalar,
    FqVector,
    ResourceError,
    Subspace,
    UsageError,
    batch_rref,
    batch_subspaces,
    count_subspaces,
    enumerate_subspaces,
    enumerate_vectors,
    gaussian_binomial,
    null_space,
    rref,
    solve_linear,
    subspace_from_vectors,
    subspace_meet,
    subspace_sum,
    subspace_shards,
    subspace_stack,
)

# ---------------------------------------------------------------------------
# Field arithmetic
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("p", SUPPORTED_PRIMES)
def test_field_axioms_exhaustive(p):
    elems = [FqScalar(v, p) for v in range(p)]
    zero, one = elems[0], elems[1]
    for a in elems:
        assert (a + zero).value == a.value
        assert (a * one).value == a.value
        assert (a + (-a)).value == 0
        if a.value != 0:
            assert (a * a.inv()).value == 1
        for b in elems:
            assert (a + b).value == (b + a).value
            assert (a * b).value == (b * a).value
            assert (a - b).value == (a.value - b.value) % p
            for c in elems:
                assert ((a + b) + c).value == (a + (b + c)).value
                assert ((a * b) * c).value == (a * (b * c)).value
                assert (a * (b + c)).value == (a * b + a * c).value


def test_scalar_examples():
    assert (FqScalar(2, 3) + FqScalar(2, 3)).value == 1
    for p in SUPPORTED_PRIMES:
        assert FqScalar(1, p).inv().value == 1
    assert FqScalar(3, 5).inv().value == 2


def test_scalar_errors():
    with pytest.raises(ZeroDivisionError):
        FqScalar(0, 5).inv()
    with pytest.raises(UsageError):
        FqScalar(1, 3) + FqScalar(1, 5)
    with pytest.raises(UsageError):
        FqScalar(1, 4)


def test_vector_ops():
    v = FqVector((1, 2, 4), 3)
    assert v.coords == (1, 2, 1)
    w = FqVector((2, 2, 2), 3)
    assert (v + w).coords == (0, 1, 0)
    assert (v - w).coords == (2, 0, 2)
    assert (2 * v).coords == (2, 1, 2)
    assert (-v).coords == (2, 1, 2)
    with pytest.raises(UsageError):
        v + FqVector((1, 1), 3)


# ---------------------------------------------------------------------------
# Row reduction
# ---------------------------------------------------------------------------

def test_rref_identity():
    eye = np.eye(3, dtype=np.uint8)
    R, rank = rref(eye, 5)
    assert rank == 3
    assert np.array_equal(R, eye)


def test_rref_zero():
    z = np.zeros((2, 3), dtype=np.uint8)
    R, rank = rref(z, 3)
    assert rank == 0
    assert not R.any()


def test_rref_dependent_rows():
    # row2 = 2 * row1 mod 3, so rank 1 and the hand-reduced basis is (1, 2)
    R, rank = rref([[1, 2], [2, 1]], 3)
    assert rank == 1
    assert R[0].tolist() == [1, 2]
    assert not R[1].any()


def test_rref_matches_hand_reduction_gf5():
    R, rank = rref([[2, 1, 0], [0, 3, 1]], 5)
    # scale row1 by inv(2)=3 -> (1, 3, 0); scale row2 by inv(3)=2 -> (0,1,2);
    # then clear column 1 of row1: (1, 0, -6 mod 5) = (1, 0, 4)... recheck:
    # row1 = (1,3,0) - 3*(0,1,2) = (1,0,-6) = (1,0,4)
    assert rank == 2
    assert R[0].tolist() == [1, 0, 4]
    assert R[1].tolist() == [0, 1, 2]


def test_batch_rref_agrees_with_single():
    rng = np.random.default_rng(7)
    for p in (2, 3, 5):
        mats = rng.integers(0, p, size=(50, 4, 5)).astype(np.uint8)
        B, ranks = batch_rref(mats, p)
        for i in range(50):
            R, rank = rref(mats[i], p)
            assert rank == ranks[i]
            assert np.array_equal(B[i], R)


def test_null_space_and_solve_exhaustive_gf3():
    rng = np.random.default_rng(3)
    for _ in range(25):
        A = rng.integers(0, 3, size=(3, 4))
        N = null_space(A, 3)
        # every basis row really is in the kernel
        for row in N:
            assert not ((A @ row) % 3).any()
        # kernel dimension matches rank-nullity
        _, rank = rref(A, 3)
        assert N.shape[0] == 4 - rank
        # solve: consistent right-hand sides round-trip
        x = rng.integers(0, 3, size=4)
        b = (A @ x) % 3
        sol = solve_linear(A, b, 3)
        assert sol is not None
        assert not ((A @ sol - b) % 3).any()


# ---------------------------------------------------------------------------
# Subspaces: canonical form, sum, meet
# ---------------------------------------------------------------------------

def test_from_vectors_examples():
    s = subspace_from_vectors([(1, 1), (0, 0)], 2, 2)
    assert s.dim == 1
    assert s.rows.tolist() == [[1, 1]]

    z = subspace_from_vectors([], 2, 2)
    assert z.dim == 0

    s = subspace_from_vectors([(1, 2, 0), (2, 4, 0)], 3, 5)
    assert s.dim == 1
    assert s.rows.tolist() == [[1, 2, 0]]


def test_canonicality_under_permutation():
    rng = np.random.default_rng(11)
    for p in (2, 3, 5):
        for _ in range(20):
            vecs = rng.integers(0, p, size=(4, 4))
            base = subspace_from_vectors(vecs, 4, p)
            for perm in itertools.permutations(range(4)):
                other = subspace_from_vectors(vecs[list(perm)], 4, p)
                assert other == base
                assert other.key == base.key


@settings(max_examples=60, deadline=None)
@given(
    st.integers(0, 3 ** 12 - 1),
    st.permutations(list(range(4))),
)
def test_canonicality_property(seed, perm):
    vecs = np.array([[(seed // 3 ** (4 * r + c)) % 3 for c in range(4)] for r in range(3)])
    a = subspace_from_vectors(vecs, 4, 3)
    b = subspace_from_vectors(vecs[[r for r in perm if r < 3]], 4, 3)
    if sorted(perm[:3]) == [0, 1, 2]:
        pass  # only compare when the permutation kept all rows
    vecs_permuted = vecs[[perm[i] for i in range(3) if perm[i] < 3]]
    if vecs_permuted.shape[0] == 3:
        assert subspace_from_vectors(vecs_permuted, 4, 3) == a


def test_contains():
    z = Subspace.zero(3, 3)
    assert z.contains((0, 0, 0))
    assert not z.contains((1, 0, 0))
    full = Subspace.full(3, 3)
    for v in itertools.product(range(3), repeat=3):
        assert full.contains(v)
    s = subspace_from_vectors([(1, 0, 0), (0, 1, 0)], 3, 3)
    assert s.contains((1, 2, 0))
    assert not s.contains((0, 0, 1))


def test_sum_meet_trivial():
    s = subspace_from_vectors([(1, 0, 1), (0, 1, 1)], 3, 2)
    zero = Subspace.zero(3, 2)
    assert subspace_meet(s, s) == s
    assert subspace_sum(s, zero) == s
    a = subspace_from_vectors([(1, 0)], 2, 2)
    b = subspace_from_vectors([(0, 1)], 2, 2)
    assert subspace_sum(a, b).dim == 2
    assert subspace_meet(a, b).dim == 0


def _brute_meet(a, b):
    avecs = {tuple(v) for v in enumerate_vectors(a)}
    bvecs = {tuple(v) for v in enumerate_vectors(b)}
    return subspace_from_vectors(sorted(avecs & bvecs), a.n, a.p)


def test_meet_against_bruteforce_and_dim_formula():
    rng = np.random.default_rng(19)
    for _ in range(40):
        a = subspace_from_vectors(rng.integers(0, 3, size=(2, 4)), 4, 3)
        b = subspace_from_vectors(rng.integers(0, 3, size=(2, 4)), 4, 3)
        m = subspace_meet(a, b)
        s = subspace_sum(a, b)
        assert m == _brute_meet(a, b)
        assert a.dim + b.dim == s.dim + m.dim


def test_dim_formula_exhaustive_small():
    for p in (2, 3):
        spaces = list(enumerate_subspaces(3, p))
        for a in spaces:
            for b in spaces:
                s = subspace_sum(a, b)
                m = subspace_meet(a, b)
                assert a.dim + b.dim == s.dim + m.dim


def test_subspace_modular_law_exhaustive():
    # for subspaces A <= C: (A + B) meet C == A + (B meet C)
    for p in (2, 3):
        spaces = list(enumerate_subspaces(3, p))
        for a in spaces:
            for c in spaces:
                if not a.is_subspace_of(c):
                    continue
                for b in spaces:
                    lhs = subspace_meet(subspace_sum(a, b), c)
                    rhs = subspace_sum(a, subspace_meet(b, c))
                    assert lhs == rhs


# ---------------------------------------------------------------------------
# Enumeration
# ---------------------------------------------------------------------------

def test_enumerate_vectors_counts():
    z = Subspace.zero(3, 3)
    assert [v.tolist() for v in enumerate_vectors(z)] == [[0, 0, 0]]
    line = subspace_from_vectors([(1, 2, 0)], 3, 3)
    assert len(list(enumerate_vectors(line))) == 3
    s = subspace_from_vectors([(1, 0, 0), (0, 1, 3)], 3, 5)
    vecs = [tuple(v) for v in enumerate_vectors(s)]
    assert len(vecs) == 25
    assert len(set(vecs)) == 25


def test_enumerate_subspaces_lines_gf2():
    lines = [s.rows.tolist() for s in enumerate_subspaces(2, 2, 1)]
    assert lines == [[[1, 0]], [[1, 1]], [[0, 1]]]


def test_enumerate_subspaces_extremes():
    assert len(list(enumerate_subspaces(7, 3, 0))) == 1
    assert len(list(enumerate_subspaces(7, 3, 7))) == 1


@pytest.mark.parametrize("n", range(0, 5))
@pytest.mark.parametrize("p", (2, 3))
def test_enumeration_counts_match_gaussian(n, p):
    for k in range(n + 1):
        seen = list(enumerate_subspaces(n, p, k))
        assert len(seen) == gaussian_binomial(n, k, p)
        assert len({s.key for s in seen}) == len(seen)


def test_batch_matches_stream():
    for n, p, k in [(4, 3, 2), (3, 5, 1), (4, 2, 3)]:
        stream = list(enumerate_subspaces(n, p, k))
        pos = 0
        for kk, pattern, count in subspace_shards(n, p, k):
            block = batch_subspaces(n, p, pattern, 0, count)
            for i in range(count):
                assert np.array_equal(block[i], stream[pos].rows)
                pos += 1
        assert pos == len(stream)


def test_stack_matches_stream():
    for n, p, k in [(4, 3, None), (3, 5, 1), (4, 2, 3), (0, 2, None)]:
        stack = subspace_stack(n, p, k)
        stream = list(enumerate_subspaces(n, p, k))
        assert stack.shape == (len(stream), n if k is None else k, n)
        assert not stack.flags.writeable
        for block, s in zip(stack, stream):
            assert np.array_equal(block[: s.dim], s.rows)
            assert not block[s.dim :].any()
    assert subspace_stack(4, 3) is subspace_stack(4, 3)


def test_gaussian_binomial_values_and_recurrence():
    assert gaussian_binomial(5, 0, 3) == 1
    assert gaussian_binomial(5, 5, 3) == 1
    assert gaussian_binomial(2, 1, 2) == 3
    assert gaussian_binomial(7, 3, 3) == 925771
    assert gaussian_binomial(5, 2, 5) == 20306
    def gb(n, k, q):
        return gaussian_binomial(n, k, q) if 0 <= k <= n else 0

    for q in (2, 3, 5):
        for n in range(1, 8):
            for k in range(1, n + 1):
                assert gaussian_binomial(n, k, q) == (
                    gb(n - 1, k - 1, q) + q ** k * gb(n - 1, k, q)
                )


def test_guards():
    with pytest.raises(UsageError):
        list(enumerate_subspaces(9, 3))
    with pytest.raises(UsageError):
        gaussian_binomial(3, 4, 2)
    with pytest.raises(ResourceError):
        list(enumerate_subspaces(5, 5, None, budget=100))
    with pytest.raises(UsageError):
        count_subspaces(4, 4)
