import itertools

import numpy as np
import pytest

from liesublat.catalog import (
    abelian,
    almost_abelian,
    heisenberg,
    nonabelian2,
    psl3_char3,
    simple3_char2,
    sl2,
    witt,
)
from liesublat.lie import (
    JacobiError,
    LieAlgebra,
    derivation_space,
    direct_sum,
    is_derivation,
    new_algebra,
    semidirect_extend,
)
from liesublat.linalg import Subspace, UsageError, enumerate_subspaces

# ---------------------------------------------------------------------------
# Construction and validation
# ---------------------------------------------------------------------------

def test_new_algebra_abelian():
    L = new_algebra(5, 3, [])
    assert L.is_abelian() and L.is_solvable() and L.is_nilpotent()


def test_new_algebra_K_valid():
    L = simple3_char2()
    assert L.p == 2 and L.dim == 3


def test_new_algebra_rejects_bad_indices():
    with pytest.raises(UsageError):
        new_algebra(3, 3, [(2, 1, (1, 0, 0))])


def _jacobi_oracle(tensor, p):
    """Independent triple-expansion check of the Jacobi identity."""
    n = tensor.shape[0]

    def brk(x, y):
        out = np.zeros(n, dtype=np.int64)
        for i in range(n):
            for j in range(n):
                out += int(x[i]) * int(y[j]) * tensor[i, j].astype(np.int64)
        return out % p

    for i in range(n):
        for j in range(n):
            for k in range(n):
                ei, ej, ek = np.eye(n, dtype=np.int64)[[i, j, k]]
                total = (
                    brk(brk(ei, ej), ek)
                    + brk(brk(ej, ek), ei)
                    + brk(brk(ek, ei), ej)
                ) % p
                if total.any():
                    return False
    return True


def test_validator_against_triple_expansion_oracle_dim3_gf2():
    # all 512 candidate tensors for dim 3 over GF(2)
    pairs = [(0, 1), (0, 2), (1, 2)]
    accepted = 0
    for bits in itertools.product(range(2), repeat=9):
        tensor = np.zeros((3, 3, 3), dtype=np.int64)
        pos = 0
        for (i, j) in pairs:
            for k in range(3):
                tensor[i, j, k] = bits[pos]
                tensor[j, i, k] = (-bits[pos]) % 2
                pos += 1
        expected = _jacobi_oracle(tensor, 2)
        try:
            LieAlgebra(2, tensor)
            got = True
        except JacobiError:
            got = False
        assert got == expected
        accepted += got
    assert 0 < accepted < 512


def test_jacobi_validation_hand_checked():
    # valid: c01 = e0 and c02 = e0 makes the cyclic sum telescope to zero
    # ([[e0,e1],e2] = e0, [[e1,e2],e0] = 0, [[e2,e0],e1] = -e0)
    new_algebra(3, 3, [(0, 1, (1, 0, 0)), (0, 2, (1, 0, 0))])
    # invalid: c01 = e0, c02 = e1 leaves [[e0,e1],e2] = e1 unbalanced
    with pytest.raises(JacobiError) as err:
        new_algebra(3, 3, [(0, 1, (1, 0, 0)), (0, 2, (0, 1, 0))])
    assert "triple" in str(err.value)


# ---------------------------------------------------------------------------
# Bracket evaluation
# ---------------------------------------------------------------------------

def test_bracket_alternating():
    L = sl2(5)
    rng = np.random.default_rng(5)
    for _ in range(20):
        x = rng.integers(0, 5, size=3)
        assert not L.bracket(x, x).any()
        y = rng.integers(0, 5, size=3)
        assert np.array_equal(
            L.bracket(x, y), (-L.bracket(y, x).astype(np.int64)) % 5
        )


def test_psl3_bracket_examples():
    L = psl3_char3()
    e = {s: np.eye(7, dtype=np.int64)[s + 3] for s in range(-3, 4)}
    assert np.array_equal(L.bracket(e[0], e[1]), e[1] % 3)
    assert np.array_equal(L.bracket(e[1], e[2]), e[-3] % 3)
    assert np.array_equal(L.bracket(e[-1], e[1]), e[0] % 3)
    assert np.array_equal(L.bracket(e[0], e[-2]), (-e[-2]) % 3)
    assert np.array_equal(L.bracket(e[-3], e[-2]), e[1] % 3)


def test_witt_bracket_example():
    L = witt(5)
    e = {s: np.eye(5, dtype=np.int64)[s + 1] for s in range(-1, 4)}
    assert np.array_equal(L.bracket(e[-1], e[1]), (2 * e[0]) % 5)
    assert np.array_equal(L.bracket(e[1], e[2]), (1 * e[3]) % 5)
    assert not L.bracket(e[2], e[3]).any()  # e_5 is out of range


def test_bracket_spaces_examples():
    K = simple3_char2()
    Fa = Subspace.from_vectors([(1, 0, 0)], 3, 2)
    Fc = Subspace.from_vectors([(0, 0, 1)], 3, 2)
    assert K.bracket_spaces(Fa, Fc) == Fa
    assert K.bracket_spaces(K.full_space(), K.zero_space()).dim == 0
    H = heisenberg(3)
    assert H.bracket_spaces(H.full_space(), H.full_space()) == H.center()


# ---------------------------------------------------------------------------
# Subalgebras, ideals, generation
# ---------------------------------------------------------------------------

def test_is_subalgebra_lines_and_fixtures():
    L = psl3_char3()
    for line in enumerate_subspaces(7, 3, 1):
        if L.is_subalgebra(line):
            break
    # every 1-dim subspace is a subalgebra
    some = list(itertools.islice(enumerate_subspaces(7, 3, 1), 50))
    assert all(L.is_subalgebra(s) for s in some)
    # B_{1,-1} = span{e0, e1, e-1} is a subalgebra
    b = Subspace.from_vectors(
        [np.eye(7)[3], np.eye(7)[4], np.eye(7)[2]], 7, 3
    )
    assert L.is_subalgebra(b)


def test_K_line_not_ideal():
    K = simple3_char2()
    Fc = Subspace.from_vectors([(0, 0, 1)], 3, 2)
    assert K.is_subalgebra(Fc)
    assert not K.is_ideal(Fc)


def test_generated_subalgebra():
    K = simple3_char2()
    gen = K.generated_subalgebra([(1, 0, 0), (0, 1, 0)])
    assert gen.dim == 3
    L = sl2(5)
    assert L.generated_subalgebra([(1, 0, 0), (0, 0, 1)]).dim == 3
    # a subalgebra is a fixpoint
    borel = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3, 5)
    assert L.generated_subalgebra(borel) == borel


def test_generated_subalgebra_closure_operator():
    L = witt(5)
    rng = np.random.default_rng(17)
    for _ in range(15):
        a = rng.integers(0, 5, size=(2, 5))
        b = rng.integers(0, 5, size=(3, 5))
        sa = Subspace.from_vectors(a, 5, 5)
        ga = L.generated_subalgebra(sa)
        assert sa.is_subspace_of(ga)                        # extensive
        assert L.generated_subalgebra(ga) == ga             # idempotent
        sb = Subspace.from_vectors(np.vstack([a, b]), 5, 5)
        assert ga.is_subspace_of(L.generated_subalgebra(sb))  # monotone


# ---------------------------------------------------------------------------
# Series and solvability
# ---------------------------------------------------------------------------

def test_series_abelian():
    L = abelian(3, 5)
    assert len(L.derived_series()) == 2
    assert L.derived_series()[-1].dim == 0
    assert L.l_infinity().dim == 0


def test_series_K_perfect():
    K = simple3_char2()
    assert K.derived_series()[-1].dim == 3
    assert K.l_infinity().dim == 3
    assert not K.is_solvable()


def test_series_heisenberg():
    H = heisenberg(5)
    ds = H.derived_series()
    assert [s.dim for s in ds] == [3, 1, 0]
    lc = H.lower_central_series()
    assert [s.dim for s in lc] == [3, 1, 0]
    assert H.is_nilpotent()


def test_almost_abelian_solvable_not_nilpotent():
    L = almost_abelian(3, 5)
    assert L.is_solvable()
    assert not L.is_nilpotent()


def test_solvability_requires_subalgebra_argument():
    L = sl2(5)
    bad = Subspace.from_vectors([(1, 0, 0), (0, 0, 1)], 3, 5)  # span{e,f} not closed
    with pytest.raises(UsageError):
        L.is_solvable(bad)


# ---------------------------------------------------------------------------
# Centre, centraliser, normaliser, core, radical
# ---------------------------------------------------------------------------

def test_center_cases():
    assert abelian(3, 3).center().dim == 3
    assert simple3_char2().center().dim == 0
    H = heisenberg(3)
    z = H.center()
    assert z.dim == 1 and z.contains((0, 0, 1))
    assert H.centralizer(z) == H.full_space()


def test_normalizer_of_Fc_in_K():
    K = simple3_char2()
    Fc = Subspace.from_vectors([(0, 0, 1)], 3, 2)
    assert K.normalizer(Fc) == Fc


def test_normalizer_contains_subalgebra():
    L = witt(5)
    rng = np.random.default_rng(23)
    for _ in range(10):
        s = L.generated_subalgebra(rng.integers(0, 5, size=(2, 5)))
        norm = L.normalizer(s)
        assert s.is_subspace_of(norm)
        assert L.is_subalgebra(norm)


def test_core_examples():
    K = simple3_char2()
    Fc = Subspace.from_vectors([(0, 0, 1)], 3, 2)
    assert K.core(K.full_space()) == K.full_space()
    assert K.core(Fc).dim == 0
    H = heisenberg(5)
    zx = Subspace.from_vectors([(0, 0, 1), (1, 0, 0)], 3, 5)
    assert H.core(zx) == zx


def _core_oracle(L, u):
    best = L.zero_space()
    for s in enumerate_subspaces(L.dim, L.p):
        if s.is_subspace_of(u) and L.is_ideal(s) and s.dim > best.dim:
            best = s
    return best


def test_core_against_ideal_enumeration():
    for L in [simple3_char2(), heisenberg(3), almost_abelian(3, 3), sl2(3)]:
        for s in enumerate_subspaces(L.dim, L.p):
            if L.is_subalgebra(s):
                got = L.core(s)
                assert got == _core_oracle(L, s)
                assert L.is_ideal(got)
                assert got.is_subspace_of(s)


# ---------------------------------------------------------------------------
# Quotients and extensions
# ---------------------------------------------------------------------------

def test_quotient_by_zero_is_identity():
    L = sl2(5)
    q, proj = L.quotient(L.zero_space())
    assert q.dim == 3
    assert np.array_equal(q.tensor, L.tensor)
    assert np.array_equal(proj % 5, np.eye(3, dtype=np.uint8))


def test_quotient_heisenberg_by_center():
    H = heisenberg(3)
    q, _ = H.quotient(H.center())
    assert q.dim == 2 and q.is_abelian()


def test_quotient_projection_is_homomorphism():
    L = almost_abelian(4, 3)
    line = Subspace.from_vectors([(1, 0, 0, 0)], 4, 3)
    q, proj = L.quotient(line)
    assert q.dim == 3 and q.is_almost_abelian()
    rng = np.random.default_rng(31)
    pm = proj.astype(np.int64)
    for _ in range(20):
        x = rng.integers(0, 3, size=4)
        y = rng.integers(0, 3, size=4)
        lhs = L.bracket(x, y).astype(np.int64) @ pm % 3
        rhs = q.bracket(x @ pm % 3, y @ pm % 3)
        assert np.array_equal(lhs % 3, rhs)


def test_quotient_requires_ideal():
    K = simple3_char2()
    Fc = Subspace.from_vectors([(0, 0, 1)], 3, 2)
    with pytest.raises(UsageError):
        K.quotient(Fc)


def test_direct_sum():
    L = direct_sum(abelian(2, 3), heisenberg(3))
    assert L.dim == 5
    assert L.center().dim == 3


def test_semidirect_extend_identity_gives_almost_abelian():
    L = semidirect_extend(abelian(3, 5), np.eye(3, dtype=np.int64))
    assert L.dim == 4
    assert L.is_almost_abelian()
    assert L.is_solvable()


def test_semidirect_extend_diag():
    L = semidirect_extend(abelian(2, 3), np.diag([1, 2]))
    assert L.dim == 3 and L.is_solvable()


def test_semidirect_rejects_non_derivation():
    H = heisenberg(3)
    bad = np.zeros((3, 3), dtype=np.int64)
    bad[0, 0] = 1  # x -> x alone does not respect [x,y] = z
    assert not is_derivation(H, bad)
    with pytest.raises(UsageError):
        semidirect_extend(H, bad)


def test_derivation_space_members_are_derivations():
    for L in [heisenberg(3), sl2(5), almost_abelian(3, 3)]:
        basis = derivation_space(L)
        for row in basis:
            assert is_derivation(L, row.reshape(L.dim, L.dim))


# ---------------------------------------------------------------------------
# Structural flags
# ---------------------------------------------------------------------------

def test_flags_K():
    flags = simple3_char2().structural_flags()
    assert flags.is_simple
    assert not flags.is_almost_abelian
    assert flags.is_three_dim_split_simple


def test_flags_almost_abelian():
    flags = almost_abelian(3, 5).structural_flags()
    assert flags.is_almost_abelian and flags.is_supersolvable
    assert not flags.is_simple


def test_flags_sl2():
    for p in (3, 5, 7):
        assert sl2(p).is_three_dim_split_simple()


def test_flags_psl3_simple():
    L = psl3_char3()
    assert L.is_simple()
    assert not L.is_solvable()


def _is_simple_by_closures(L):
    """The definition line by line: nonabelian, and every line's ideal
    closure is the whole algebra."""
    if L.dim < 2 or L.is_abelian():
        return False
    return all(L.ideal_closure([x]).dim == L.dim for x in L.full_space().line_reps())


def test_is_simple_matches_per_line_closures(universe_sample):
    # the direct sums are perfect but not simple: their summand lines
    # stall below dim L while the diagonal lines reach it
    extra = [direct_sum(sl2(3), sl2(3)), direct_sum(simple3_char2(), simple3_char2())]
    seen = set()
    for L in universe_sample + extra:
        expected = _is_simple_by_closures(L)
        assert L.is_simple() == expected
        flags = L.structural_flags()
        assert flags.is_simple == expected
        assert flags.is_three_dim_split_simple == L.is_three_dim_split_simple()
        seen.add(expected)
    assert seen == {True, False}


def test_witt_positive_part_supersolvable():
    L = witt(5)
    l0 = Subspace.from_vectors(np.eye(5)[1:], 5, 5)
    assert L.is_subalgebra(l0)
    assert L.is_solvable(l0)
    assert L.restricted_to(l0).is_supersolvable()


def test_restricted_to_preserves_brackets():
    L = witt(5)
    l0 = Subspace.from_vectors(np.eye(5)[1:], 5, 5)
    sub = L.restricted_to(l0)
    # [e0, e1] = e1 and [e1, e2] = e3 survive the re-expression
    assert sub.bracket((1, 0, 0, 0), (0, 1, 0, 0)).tolist() == [0, 1, 0, 0]
    assert sub.bracket((0, 1, 0, 0), (0, 0, 1, 0)).tolist() == [0, 0, 0, 1]
    with pytest.raises(UsageError):
        L.restricted_to(Subspace.from_vectors([(1, 0, 0, 0, 0), (0, 0, 1, 0, 0)], 5, 5))


def test_acts_as_scalar():
    L = almost_abelian(3, 5)
    der = L.bracket_spaces(L.full_space(), L.full_space())
    x = np.array([0, 0, 1])
    assert L.acts_as_scalar(x, der) == 1
    assert L.acts_as_scalar(2 * x % 5, der) == 2
    # members of the abelian ideal act as the zero scalar
    assert L.acts_as_scalar(np.array([1, 0, 0]), der) == 0
    # e0 in the Witt algebra weights e1 and e2 differently: not scalar
    W = witt(5)
    span12 = Subspace.from_vectors([np.eye(5)[2], np.eye(5)[3]], 5, 5)
    assert W.acts_as_scalar(np.eye(5)[1], span12) is None


def test_json_round_trip():
    for L in [simple3_char2(), sl2(7), witt(5)]:
        doc = L.to_json()
        back = LieAlgebra.from_json(doc)
        assert np.array_equal(back.tensor, L.tensor)
        assert back.sha256() == L.sha256()
