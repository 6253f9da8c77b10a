import functools
import hashlib
import itertools

import numpy as np
import pytest

from liesublat.catalog import (
    abelian,
    almost_abelian,
    heisenberg,
    psl3_char3,
    random_solvable,
    simple3_char2,
    sl2,
    witt,
)
from liesublat.harness import AlgebraAnalysis, HarnessConfig
from liesublat.lattice import (
    CacheError,
    SubalgebraLattice,
    _closed_mask,
    build_lattice,
    load_cache,
    save_cache,
)
from liesublat.linalg import (
    ResourceError,
    Subspace,
    UsageError,
    batch_subspaces,
    enumerate_subspaces,
    gaussian_binomial,
    subspace_shards,
)
from liesublat.predicates import (
    has_one_and_half_generation,
    ideal_line_flags,
    line_node_ids,
    node_rows,
    quasi_line_flags,
    strong_inventory,
)


@pytest.fixture(scope="module")
def lat_K():
    return SubalgebraLattice.build(simple3_char2())


@pytest.fixture(scope="module")
def lat_sl2_3():
    return SubalgebraLattice.build(sl2(3))


# ---------------------------------------------------------------------------
# Node sets
# ---------------------------------------------------------------------------

def test_abelian_2_2_has_all_subspaces():
    lat = SubalgebraLattice.build(abelian(2, 2))
    assert len(lat) == 5


def test_K_lattice_shape(lat_K):
    assert len(lat_K) == 12
    assert lat_K.counts_by_dim() == {0: 1, 1: 7, 2: 3, 3: 1}
    # the three planes all contain c
    c = (0, 0, 1)
    for i, s in enumerate(lat_K.nodes):
        if s.dim == 2:
            assert s.contains(c)


def test_sl2_f3_lattice_shape(lat_sl2_3):
    assert len(lat_sl2_3) == 19
    assert lat_sl2_3.counts_by_dim() == {0: 1, 1: 13, 2: 4, 3: 1}


def test_nodes_match_bruteforce_closure(lat_K, lat_sl2_3):
    # independent oracle: closure checked on all vector pairs
    for lat in (lat_K, lat_sl2_3):
        L = lat.algebra
        expected = []
        for s in enumerate_subspaces(L.dim, L.p):
            vecs = list(s.vectors())
            closed = all(
                s.contains(L.bracket(x, y)) for x in vecs for y in vecs
            )
            if closed:
                expected.append(s.key)
        assert [s.key for s in lat.nodes] == expected


def test_counts_bounded_by_gaussian(lat_sl2_3):
    for k, cnt in lat_sl2_3.counts_by_dim().items():
        assert cnt <= gaussian_binomial(3, k, 3)


def test_every_node_is_subalgebra_and_rejects_rest(lat_K):
    K = lat_K.algebra
    node_keys = {s.key for s in lat_K.nodes}
    for s in enumerate_subspaces(3, 2):
        if s.key in node_keys:
            assert K.is_subalgebra(s)
        else:
            assert not K.is_subalgebra(s)


def _pair_closed(tensor, p, mats):
    """closed[m, q]: the q-th basis pair (r, s), r < s, of candidate m
    brackets into its span, by definition."""
    n = tensor.shape[0]
    out = []
    for rows in mats:
        space = Subspace.from_vectors(rows, n, p)
        out.append([
            space.contains(np.einsum("i,j,ijl->l", rows[r].astype(np.int64),
                                     rows[s].astype(np.int64), tensor) % p)
            for r, s in itertools.combinations(range(len(rows)), 2)
        ])
    return np.array(out, dtype=bool).reshape(len(mats), -1)


def _kernel_cases():
    # (k, p, n, tensor, pattern, start, stop): seeded sparse tensors, so
    # that candidates pass some pairs and fail others, and a seeded block
    # of the largest pivot pattern
    rng = np.random.default_rng(11)
    for k in range(2, 6):
        for p in (2, 3, 5, 7):
            n = k + 2
            tensor = rng.integers(1, p, size=(n, n, n)) * (rng.random((n, n, n)) < 0.03)
            _, pattern, count = next(subspace_shards(n, p, k))
            start = int(rng.integers(0, max(count - 400, 0) + 1))
            yield k, p, n, tensor, pattern, start, min(start + 400, count)
    # float32 exactness bound: n = 8, p = 7, every entry p - 1, candidates
    # from the end of a pattern, where the free entries are largest
    tensor = np.full((8, 8, 8), 6)
    for k in (2, 3, 4):
        _, pattern, count = next(subspace_shards(8, 7, k))
        yield k, 7, 8, tensor, pattern, count - 400, count


def test_closed_mask_matches_definition():
    later_fail = closed_all = 0
    for k, p, n, tensor, pattern, start, stop in _kernel_cases():
        mats = batch_subspaces(n, p, pattern, start, stop)
        closed = _pair_closed(tensor, p, mats)
        got = _closed_mask(tensor.astype(np.uint8), p, mats, pattern)
        assert got.tolist() == closed.all(axis=1).tolist(), (k, p, n, pattern, start)
        later_fail += int((closed[:, 0] & ~closed.all(axis=1)).sum())
        closed_all += int(closed.all(axis=1).sum())
    # some candidate passes pair (0, 1) and fails a later pair, so the
    # kernel's survivor filtering is exercised, and some pass every pair
    assert later_fail > 0 and closed_all > 0


@pytest.mark.parametrize(
    "algebra",
    [simple3_char2(), sl2(3), heisenberg(3), random_solvable(4, 3, seed=1)],
    ids=["K", "sl2(3)", "heisenberg(3)", "random_solvable(4,3,1)"],
)
def test_incidence_matches_line_containment(algebra):
    # definition: column j is the j-th line of GF(p)^n in enumeration order
    lat = SubalgebraLattice.build(algebra)
    lines = list(enumerate_subspaces(algebra.dim, algebra.p, 1))
    rows = lat.line_rows()
    assert rows.shape == (len(lat), len(lines))
    for i, node in enumerate(lat.nodes):
        assert [line.is_subspace_of(node) for line in lines] == rows[i].tolist()
    assert len(set(lat.line_keys)) == len(lat)


# ---------------------------------------------------------------------------
# Join / meet
# ---------------------------------------------------------------------------

def test_join_meet_basic(lat_K):
    K = lat_K.algebra
    fa = lat_K.node_id(Subspace.from_vectors([(1, 0, 0)], 3, 2))
    fb = lat_K.node_id(Subspace.from_vectors([(0, 1, 0)], 3, 2))
    assert lat_K.join(fa, fa) == fa
    assert lat_K.meet(fa, lat_K.top_id) == fa
    assert lat_K.join(fa, fb) == lat_K.top_id


def test_join_sl2_e_f(lat_sl2_3):
    fe = lat_sl2_3.node_id(Subspace.from_vectors([(1, 0, 0)], 3, 3))
    ff = lat_sl2_3.node_id(Subspace.from_vectors([(0, 0, 1)], 3, 3))
    assert lat_sl2_3.join(fe, ff) == lat_sl2_3.top_id


def test_meet_closed_join_is_node(lat_sl2_3):
    n = len(lat_sl2_3)
    for a in range(n):
        for b in range(n):
            m = lat_sl2_3.meet(a, b)
            j = lat_sl2_3.join(a, b)
            assert 0 <= m < n and 0 <= j < n
            assert lat_sl2_3.nodes[m] == lat_sl2_3.nodes[a].meet(lat_sl2_3.nodes[b])


def test_foreign_node_rejected(lat_K):
    plane_ab = Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3, 2)
    with pytest.raises(UsageError):
        lat_K.node_id(plane_ab)


# ---------------------------------------------------------------------------
# Maximality and covers
# ---------------------------------------------------------------------------

def _maximal_oracle(lat, a, b):
    sa, sb = lat.nodes[a], lat.nodes[b]
    if not (sa.is_subspace_of(sb) and sa.dim < sb.dim):
        return None
    for w in lat.nodes:
        if (
            sa.dim < w.dim < sb.dim
            and sa.is_subspace_of(w)
            and w.is_subspace_of(sb)
        ):
            return False
    return True


@pytest.mark.parametrize("fixture", ["lat_K", "lat_sl2_3"])
def test_maximality_matches_oracle(fixture, request):
    lat = request.getfixturevalue(fixture)
    n = len(lat)
    for a in range(n):
        for b in range(n):
            expected = _maximal_oracle(lat, a, b)
            if expected is None:
                continue
            assert lat.is_maximal_in(a, b) == expected
            assert lat.covers(a, b) == expected


def test_line_maximal_in_plane(lat_K):
    line = lat_K.node_id(Subspace.from_vectors([(0, 0, 1)], 3, 2))
    plane = lat_K.node_id(Subspace.from_vectors([(1, 0, 0), (0, 0, 1)], 3, 2))
    assert lat_K.is_maximal_in(line, plane)


def test_maximal_subalgebras_K(lat_K):
    maxima = lat_K.maximal_subalgebras()
    assert len(maxima) == 3
    for m in maxima:
        assert lat_K.dims[m] == 2
        assert lat_K.nodes[m].contains((0, 0, 1))


def test_tables_agree_with_lazy_queries(lat_sl2_3, universe_sample):
    t = lat_sl2_3.tables()
    n = len(lat_sl2_3)
    for a in range(n):
        for b in range(n):
            assert t.contain[a, b] == lat_sl2_3.nodes[a].is_subspace_of(
                lat_sl2_3.nodes[b]
            )
            assert t.join[a, b] == lat_sl2_3.join(a, b)
            assert t.meet[a, b] == lat_sl2_3.meet(a, b)
            expected = _maximal_oracle(lat_sl2_3, a, b)
            if expected is not None:
                assert bool(t.maximal[a, b]) == expected
    # the universe sample: every pair up to 200 nodes, 300 seeded above
    rng = np.random.default_rng(11)
    covers = 0
    for algebra in universe_sample:
        lat = SubalgebraLattice.build(algebra)
        t = lat.tables()
        n = len(lat)
        if n <= 200:
            pairs = itertools.product(range(n), repeat=2)
        else:
            pairs = rng.integers(0, n, size=(300, 2)).tolist()
        for a, b in pairs:
            assert t.join[a, b] == lat.join(a, b), algebra.name
            assert t.meet[a, b] == lat.meet(a, b), algebra.name
            assert t.contain[a, b] == lat._le(a, b), algebra.name
            if a != b and t.contain[a, b]:
                assert t.maximal[a, b] == lat.is_maximal_in(a, b), algebra.name
                covers += bool(t.maximal[a, b])
            else:
                assert not t.maximal[a, b], algebra.name
    assert covers > 1000


@pytest.mark.parametrize("algebra", [almost_abelian(4, 3), sl2(5)],
                         ids=["almost_abelian(4,3)", "sl2(5)"])
def test_lazy_queries_agree_with_tables(algebra):
    # the first lattice never builds tables, so no query can read them
    lazy = SubalgebraLattice.build(algebra)
    t = SubalgebraLattice.build(algebra).tables()
    n = len(lazy)
    maxima = np.nonzero(t.maximal[:, lazy.top_id])[0].tolist()
    assert lazy.maximal_subalgebras() == maxima
    assert lazy.frattini() == functools.reduce(lambda x, y: t.meet[x, y], maxima)
    for a in range(n):
        assert lazy.induced_ids(a).tolist() == np.nonzero(t.contain[:, a])[0].tolist()
        for b in range(n):
            assert lazy.meet(a, b) == t.meet[a, b]
            if a != b and t.contain[a, b]:
                assert lazy.is_maximal_in(a, b) == t.maximal[a, b]
    rng = np.random.default_rng(3)
    for a, b in rng.integers(0, n, size=(300, 2)):
        assert lazy.join(int(a), int(b)) == t.join[a, b]
    assert lazy._tables is None


def test_maximal_subalgebras_match_tables(universe_sample):
    nodes = 0
    for algebra in universe_sample:
        lat = SubalgebraLattice.build(algebra)   # never builds tables
        t = SubalgebraLattice.build(algebra).tables()
        assert lat.maximal_subalgebras() == np.nonzero(t.maximal[:, lat.top_id])[0].tolist()
        assert lat._tables is None
        nodes += len(lat)
    assert nodes > 2000


def test_analysis_strong_flags_match_line_flags(universe_sample):
    for algebra in universe_sample:
        an = AlgebraAnalysis(algebra, HarnessConfig())
        lat = an.lat
        assert (an.strong_ideal == strong_inventory(lat, ideal_line_flags(lat))).all()
        assert (an.strong_quasi == strong_inventory(lat, quasi_line_flags(lat))).all()
        assert lat._tables is None      # released after the analysis
        assert an.analysis_secs >= an.build_secs > 0


def _gen15_by_joins(lat):
    """Reference definition: some line's join with every line is proper."""
    lines = line_node_ids(lat)
    jt = lat.tables().join
    for line in lines:
        if not (jt[int(line), lines] == lat.top_id).any():
            return False, {"x": node_rows(lat, int(line))[0]}
    return True, None


def test_gen15_matches_join_tables(universe_sample):
    verdicts = set()
    for algebra in universe_sample:
        lat = SubalgebraLattice.build(algebra)
        rep = has_one_and_half_generation(lat)
        assert (rep.verdict, rep.witness) == _gen15_by_joins(lat), algebra.name
        verdicts.add(rep.verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize("algebra", [sl2(5), almost_abelian(4, 3)],
                         ids=["sl2(5)", "almost_abelian(4,3)"])
def test_join_matches_generated_subalgebra(algebra):
    # definition: the join is the subalgebra generated by the sum
    lat = SubalgebraLattice.build(algebra)
    rng = np.random.default_rng(5)
    incomparable = 0
    for a, b in rng.integers(0, len(lat), size=(300, 2)):
        sa, sb = lat.nodes[a], lat.nodes[b]
        gen = algebra.generated_subalgebra(sa.sum(sb))
        assert lat.nodes[lat.join(int(a), int(b))] == gen
        incomparable += not (sa.is_subspace_of(sb) or sb.is_subspace_of(sa))
    assert incomparable > 100


def test_tables_on_medium_lattice():
    lat = SubalgebraLattice.build(almost_abelian(4, 3))
    t = lat.tables()
    rng = np.random.default_rng(2)
    n = len(lat)
    for _ in range(300):
        a, b = rng.integers(0, n, size=2)
        assert t.join[a, b] == lat.join(int(a), int(b))
        assert t.meet[a, b] == lat.meet(int(a), int(b))


# ---------------------------------------------------------------------------
# Frattini
# ---------------------------------------------------------------------------

def test_frattini_K(lat_K):
    f = lat_K.frattini()
    assert lat_K.nodes[f] == Subspace.from_vectors([(0, 0, 1)], 3, 2)


def test_frattini_abelian_zero():
    for n, p in [(2, 3), (3, 2)]:
        lat = SubalgebraLattice.build(abelian(n, p))
        assert lat.dims[lat.frattini()] == 0


def test_frattini_sl2_f3_zero(lat_sl2_3):
    assert lat_sl2_3.dims[lat_sl2_3.frattini()] == 0


# ---------------------------------------------------------------------------
# Determinism and budget
# ---------------------------------------------------------------------------

def test_build_deterministic_and_parallel_identical():
    L = witt(5)
    one = SubalgebraLattice.build(L)
    two = SubalgebraLattice.build(L)
    par = SubalgebraLattice.build(L, threads=2)
    assert [s.key for s in one.nodes] == [s.key for s in two.nodes]
    assert [s.key for s in one.nodes] == [s.key for s in par.nodes]


def test_psl3_lattice_pinned():
    # digest of every node's rows, recorded with the earlier kernel that
    # tested all basis pairs of every candidate at once
    lat = SubalgebraLattice.build(psl3_char3())
    assert lat.counts_by_dim() == {0: 1, 1: 1093, 2: 3640, 3: 11011, 4: 364, 5: 364, 7: 1}
    digest = hashlib.sha256(b"".join(s.rows.tobytes() for s in lat.nodes)).hexdigest()
    assert digest == "189243fdc69324bc84a34ba575824dac571bcd6995bfc93ca8a36517e50c596b"


def test_budget_error_reports_estimate():
    with pytest.raises(ResourceError) as err:
        SubalgebraLattice.build(heisenberg(7), budget=10)
    assert "2850" in str(err.value) or "candidates" in str(err.value)


# ---------------------------------------------------------------------------
# Cache
# ---------------------------------------------------------------------------

def test_cache_round_trip(tmp_path, lat_sl2_3):
    path = str(tmp_path / "sl2.lat.json")
    save_cache(lat_sl2_3, path)
    back = load_cache(path, lat_sl2_3.algebra)
    assert [s.key for s in back.nodes] == [s.key for s in lat_sl2_3.nodes]
    # byte-identical second save
    save_cache(back, path + ".2")
    assert open(path).read() == open(path + ".2").read()


def test_cache_algebra_mismatch(tmp_path, lat_sl2_3):
    path = str(tmp_path / "sl2.lat.json")
    save_cache(lat_sl2_3, path)
    with pytest.raises(CacheError):
        load_cache(path, sl2(5))


def test_cache_version_and_corruption(tmp_path, lat_K):
    path = str(tmp_path / "k.lat.json")
    save_cache(lat_K, path)
    doc = open(path).read().replace('"version":1', '"version":99')
    open(path, "w").write(doc)
    with pytest.raises(CacheError):
        load_cache(path, lat_K.algebra)
    open(path, "w").write("{not json")
    with pytest.raises(CacheError):
        load_cache(path, lat_K.algebra)


def test_build_lattice_uses_cache(tmp_path):
    L = sl2(3)
    path = str(tmp_path / "auto.json")
    first = build_lattice(L, cache_path=path)
    second = build_lattice(L, cache_path=path)
    assert [s.key for s in first.nodes] == [s.key for s in second.nodes]


def test_induced_ids(lat_sl2_3):
    borel = None
    for i, s in enumerate(lat_sl2_3.nodes):
        if s.dim == 2:
            borel = i
            break
    ids = lat_sl2_3.induced_ids(borel)
    # 0, the borel itself, and the lines inside it: 2-dim over GF(3) has 4 lines
    assert len(ids) == 6
