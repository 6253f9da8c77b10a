import itertools

import numpy as np
import pytest

from liesublat.catalog import (
    CATALOG,
    abelian,
    almost_abelian,
    catalog_build,
    catalog_names,
    enumerate_structures,
    heisenberg,
    psl3_char3,
    random_solvable,
    simple3_char2,
    sl2,
    structure_count,
    upper_triangular,
    strictly_upper,
    witt,
)
from liesublat.lie import LieAlgebra
from liesublat.linalg import ResourceError, Subspace, UsageError

# ---------------------------------------------------------------------------
# Fixture structure
# ---------------------------------------------------------------------------

def test_catalog_build_by_name():
    K = catalog_build("K")
    assert K.p == 2 and K.dim == 3
    A = catalog_build("abelian", dim=3, p=5)
    assert A.is_abelian()
    with pytest.raises(UsageError):
        catalog_build("nope")
    with pytest.raises(UsageError):
        catalog_build("abelian", dim=3)
    with pytest.raises(UsageError):
        catalog_build("K", p=2)


def test_catalog_rebuild_bit_identical():
    for entry in catalog_names():
        params = {"dim": 3, "p": 5, "n": 3}
        kwargs = {k: params[k] for k in entry.params}
        if entry.name == "witt":
            kwargs = {"p": 5}
        a = catalog_build(entry.name, **kwargs)
        b = catalog_build(entry.name, **kwargs)
        assert np.array_equal(a.tensor, b.tensor)
        assert a.sha256() == b.sha256()


def test_psl3_properties():
    L = psl3_char3()
    assert L.dim == 7 and L.p == 3
    assert L.is_simple()
    # opposite-sign triples are subalgebras, same-sign pairs are not all
    eye = np.eye(7, dtype=np.int64)
    for i in range(1, 4):
        for j in range(-3, 0):
            s = Subspace.from_vectors([eye[3], eye[i + 3], eye[j + 3]], 7, 3)
            assert L.is_subalgebra(s)


def test_K_claims():
    K = simple3_char2()
    assert K.is_simple()
    assert not K.is_almost_abelian()
    fc = Subspace.from_vectors([(0, 0, 1)], 3, 2)
    assert K.core(fc).dim == 0


def test_witt_structure():
    L = witt(5)
    assert L.dim == 5
    assert L.is_simple()
    l0 = Subspace.from_vectors(np.eye(5)[1:], 5, 5)
    assert L.is_subalgebra(l0) and l0.dim == 4
    assert L.is_solvable(l0)
    with pytest.raises(UsageError):
        witt(3)


def test_almost_abelian_structure():
    for n, p in [(3, 5), (4, 3), (2, 7)]:
        L = almost_abelian(n, p)
        der = L.bracket_spaces(L.full_space(), L.full_space())
        assert der.dim == n - 1
        assert L.bracket_spaces(der, der).dim == 0
        x = np.zeros(n, dtype=np.int64)
        x[-1] = 1
        assert L.acts_as_scalar(x, der) == 1
        assert L.is_almost_abelian()


def test_matrix_fixtures():
    t3 = upper_triangular(3, 2)
    assert t3.dim == 6 and t3.is_solvable() and not t3.is_nilpotent()
    n4 = strictly_upper(4, 3)
    assert n4.dim == 6 and n4.is_nilpotent()
    with pytest.raises(UsageError):
        upper_triangular(4, 2)
    with pytest.raises(UsageError):
        strictly_upper(5, 2)


# ---------------------------------------------------------------------------
# Random solvables
# ---------------------------------------------------------------------------

def test_random_solvable_contract():
    for seed in (0, 1, 42):
        for dim, p in [(2, 2), (4, 3), (5, 5), (6, 2)]:
            L = random_solvable(dim, p, seed)
            assert L.dim == dim and L.p == p
            assert L.is_solvable()
            again = random_solvable(dim, p, seed)
            assert np.array_equal(L.tensor, again.tensor)


def test_random_solvable_varies_with_seed():
    tensors = {random_solvable(4, 3, s).tensor.tobytes() for s in range(10)}
    assert len(tensors) > 1


def test_random_solvable_radical_is_whole():
    L = random_solvable(4, 3, 42)
    # the radical is the whole algebra iff the algebra is solvable
    assert L.is_solvable()


def test_random_solvable_guard():
    with pytest.raises(UsageError):
        random_solvable(7, 3, 0)


# ---------------------------------------------------------------------------
# Exhaustive structure enumeration
# ---------------------------------------------------------------------------

def test_enumerate_structures_dim2():
    # Jacobi is vacuous in dimension 2: all tensors are valid
    assert len(list(enumerate_structures(2, 2))) == 4
    assert len(list(enumerate_structures(2, 3))) == 9


def _count_by_oracle_dim3_gf2():
    # independent triple-expansion oracle over all 512 tensors
    count = 0
    pairs = [(0, 1), (0, 2), (1, 2)]
    for bits in itertools.product(range(2), repeat=9):
        t = np.zeros((3, 3, 3), dtype=np.int64)
        pos = 0
        for (i, j) in pairs:
            for k in range(3):
                t[i, j, k] = bits[pos]
                t[j, i, k] = (-bits[pos]) % 2
                pos += 1

        def brk(x, y):
            out = np.zeros(3, dtype=np.int64)
            for a in range(3):
                for b in range(3):
                    out += int(x[a]) * int(y[b]) * t[a, b]
            return out % 2

        eye = np.eye(3, dtype=np.int64)
        ok = True
        for i in range(3):
            for j in range(3):
                for k in range(3):
                    s = (brk(brk(eye[i], eye[j]), eye[k])
                         + brk(brk(eye[j], eye[k]), eye[i])
                         + brk(brk(eye[k], eye[i]), eye[j])) % 2
                    if s.any():
                        ok = False
        count += ok
    return count


def test_enumerate_structures_dim3_gf2_count_matches_oracle():
    got = len(list(enumerate_structures(3, 2)))
    assert got == _count_by_oracle_dim3_gf2()


def test_enumerate_structures_yields_valid_algebras():
    for alg in itertools.islice(enumerate_structures(3, 3), 100):
        assert isinstance(alg, LieAlgebra)
        # reconstruction through the validating constructor succeeds
        LieAlgebra(alg.p, alg.tensor)


def test_enumerate_structures_deterministic():
    first = [a.tensor.tobytes() for a in itertools.islice(enumerate_structures(3, 2), 20)]
    second = [a.tensor.tobytes() for a in itertools.islice(enumerate_structures(3, 2), 20)]
    assert first == second


def test_enumerate_structures_guard():
    with pytest.raises(ResourceError):
        list(enumerate_structures(4, 3))
    assert structure_count(4, 2) == 1 << 24


def test_catalog_json_export_round_trip():
    for name, kwargs in [("K", {}), ("psl3_char3", {}), ("witt", {"p": 5}),
                         ("heisenberg", {"p": 7})]:
        a = catalog_build(name, **kwargs)
        b = LieAlgebra.from_json(a.to_json())
        assert np.array_equal(a.tensor, b.tensor)
