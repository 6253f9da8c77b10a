import hashlib
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from liesublat.catalog import (
    abelian,
    almost_abelian,
    enumerate_structures,
    heisenberg,
    nonabelian2,
    random_solvable,
    simple3_char2,
    sl2,
    strictly_upper,
    witt,
)
from liesublat.lattice import SubalgebraLattice
from liesublat.linalg import ResourceError, Subspace, UsageError, enumerate_subspaces, line_index
from liesublat.predicates import (
    PredicateReport,
    has_one_and_half_generation,
    ideal_inventory,
    ideal_line_flags,
    is_lower_modular,
    is_modular,
    is_modular_star,
    is_mu_algebra,
    is_quasi_ideal,
    is_quasi_ideal_bruteforce,
    is_semi_modular,
    is_strong_ideal,
    is_strong_quasi_ideal,
    is_upper_modular,
    line_node_ids,
    modular_inventory,
    node_rows,
    quasi_ideal_inventory,
    quasi_line_flags,
    replay_witness,
    sm_inventory,
    strong_inventory,
)


@pytest.fixture(scope="module")
def lat_K():
    return SubalgebraLattice.build(simple3_char2())


@pytest.fixture(scope="module")
def lat_sl2_3():
    return SubalgebraLattice.build(sl2(3))


@pytest.fixture(scope="module")
def lat_sl2_5():
    return SubalgebraLattice.build(sl2(5))


def _node(lat, vectors):
    return lat.node_id(Subspace.from_vectors(vectors, lat.algebra.dim, lat.algebra.p))


def _default_random(ctx, name):
    return next(a for a in ctx.randoms() if a.name == name)


def _inventory_digest(verdicts, witnesses):
    doc = json.dumps([[bool(v), witnesses.get(i)] for i, v in enumerate(verdicts)],
                     separators=(",", ":"))
    return hashlib.sha256(doc.encode()).hexdigest()


def _replays(lat, predicate, witnesses):
    return all(
        replay_witness(lat, PredicateReport(lat.algebra.name, node_rows(lat, u), predicate, False, w))
        for u, w in witnesses.items()
    )


# ---------------------------------------------------------------------------
# Modular
# ---------------------------------------------------------------------------

def test_modular_examples(lat_K, lat_sl2_3):
    assert is_modular(lat_K, _node(lat_K, [(0, 0, 1)])).verdict
    borel = _node(lat_sl2_3, [(1, 0, 0), (0, 1, 0)])
    assert is_modular(lat_sl2_3, borel).verdict
    # the improper subalgebra is modular by convention (and computation)
    assert is_modular(lat_K, lat_K.top_id).verdict
    assert is_modular(lat_K, lat_K.zero_id).verdict


def test_modular_false_carries_replayable_witness(lat_sl2_3):
    rep = is_modular(lat_sl2_3, _node(lat_sl2_3, [(1, 0, 0)]))
    assert not rep.verdict
    assert rep.witness is not None
    assert replay_witness(lat_sl2_3, rep)


def test_modular_inventory_matches_per_node(lat_sl2_5):
    inv, wits = modular_inventory(lat_sl2_5)
    for u in range(len(lat_sl2_5)):
        assert inv[u] == is_modular(lat_sl2_5, u).verdict
    for u, w in wits.items():
        rep = is_modular(lat_sl2_5, u)
        rep.witness = w
        rep.verdict = False
        assert replay_witness(lat_sl2_5, rep)


def test_modular_inventory_second_law_pinned(default_context):
    # every node's verdict and witness on the default random(5,5,7), whose
    # 12 nodes failing only the second law are the law-2 witnesses no
    # fixture above has; recorded while each pentagon edge was scanned on
    # its own
    lat = SubalgebraLattice.build(_default_random(default_context, "random(5,5,7)"))
    inv, wits = modular_inventory(lat)
    assert (_inventory_digest(inv, wits)
            == "3ab8101a112e4ed454ae847eb0e7945a9dd39391ef9ca87a5ef63ad340bb4970")
    law2 = [u for u, w in wits.items() if w["law"] == 2]
    assert len(law2) == 12
    assert not any(is_modular(lat, u).verdict for u in law2)
    assert _replays(lat, "modular", wits)


@pytest.mark.parametrize("algebra,digest", [
    (simple3_char2(), "8f3a1b9330dbddef2da12a5d095ff94528a78b943c25330fa814056badf956f2"),
    (sl2(5), "def21b04a0df1b2aa82669e6254b0ae248739e1012ae762973997f7a8969be6a"),
    (strictly_upper(4, 2), "46ed16c1158a5c137a10e480eb02e3108716d7116653fb48bad8c582bef84730"),
], ids=["K", "sl2(5)", "n(4,2)"])
def test_modular_witnesses_pinned(algebra, digest):
    # every node's is_modular and is_modular_star verdict and witness,
    # recorded while each predicate still had its own first-law scan;
    # testing law 2 first in is_modular changes all three digests, and
    # testing law 1 first in is_modular_star changes the n(4,2) one
    lat = SubalgebraLattice.build(algebra)
    reports = [f(lat, u) for u in range(len(lat)) for f in (is_modular, is_modular_star)]
    doc = json.dumps([(r.predicate, r.verdict, r.witness) for r in reports],
                     sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(doc.encode()).hexdigest() == digest
    false = [r for r in reports if not r.verdict]
    assert {r.witness["law"] for r in false if r.predicate == "modular_star"} == {1, 2}
    assert all(replay_witness(lat, r) for r in false)


def test_modular_within_full_subset_matches(lat_sl2_3):
    ids = np.arange(len(lat_sl2_3))
    for u in range(len(lat_sl2_3)):
        assert (
            is_modular(lat_sl2_3, u, within=ids).verdict
            == is_modular(lat_sl2_3, u).verdict
        )


# ---------------------------------------------------------------------------
# Upper / lower / semi-modular
# ---------------------------------------------------------------------------

def test_sm_examples():
    lat = SubalgebraLattice.build(almost_abelian(3, 5))
    fx = _node(lat, [(0, 0, 1)])
    assert is_semi_modular(lat, fx).verdict
    assert is_upper_modular(lat, fx).verdict
    assert is_lower_modular(lat, fx).verdict


def test_cartan_of_sl2_f5_not_sm(lat_sl2_5):
    fh = _node(lat_sl2_5, [(0, 1, 0)])
    rep = is_semi_modular(lat_sl2_5, fh)
    assert not rep.verdict
    assert replay_witness(lat_sl2_5, rep)


def test_sm_inventory_matches_lazy(lat_sl2_5):
    # the table inventory against the per-node scans, verdicts and witnesses;
    # the inventory keeps the um witness when both sides fail
    others = [simple3_char2(), almost_abelian(3, 3), heisenberg(3), sl2(3)]
    for lat in [lat_sl2_5] + [SubalgebraLattice.build(a) for a in others]:
        um, lm, wit = sm_inventory(lat)
        for u in range(len(lat)):
            up, low, semi = (is_upper_modular(lat, u), is_lower_modular(lat, u),
                             is_semi_modular(lat, u))
            assert (up.verdict, low.verdict, semi.verdict) == (um[u], lm[u], um[u] and lm[u])
            if not up.verdict:
                assert wit[u] == {"side": "um", **up.witness}
                assert replay_witness(lat, up)
            if not low.verdict:
                assert replay_witness(lat, low)
                if up.verdict:
                    assert wit[u] == {"side": "lm", **low.witness}
            if not semi.verdict:
                first = min((r for r in (up, low) if not r.verdict),
                            key=lambda r: lat.node_id(r.witness["b"]))
                assert semi.witness == {"side": "um" if first is up else "lm", **first.witness}
                assert replay_witness(lat, semi)
    assert not um.all() and not lm.all()   # sl2(3) fails both laws somewhere


def test_trivial_nodes_sm(lat_K):
    assert is_semi_modular(lat_K, lat_K.zero_id).verdict
    assert is_semi_modular(lat_K, lat_K.top_id).verdict


# ---------------------------------------------------------------------------
# Quasi-ideals
# ---------------------------------------------------------------------------

def test_quasi_ideal_K(lat_K):
    assert is_quasi_ideal(lat_K, _node(lat_K, [(0, 0, 1)])).verdict
    rep = is_quasi_ideal(lat_K, _node(lat_K, [(1, 0, 0)]))
    assert not rep.verdict
    assert replay_witness(lat_K, rep)


def test_quasi_ideal_without_lattice():
    K = simple3_char2()
    assert is_quasi_ideal(K, Subspace.from_vectors([(0, 0, 1)], 3, 2)).verdict
    with pytest.raises(UsageError):
        is_quasi_ideal(K, Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3, 2))


def test_codimension_one_subalgebras_are_quasi_ideals():
    for L in [simple3_char2(), sl2(3), heisenberg(5), almost_abelian(4, 3)]:
        lat = SubalgebraLattice.build(L)
        for i in range(len(lat)):
            if lat.dims[i] == L.dim - 1:
                assert is_quasi_ideal(lat, i).verdict


def test_bruteforce_oracle_on_K_and_sl2(lat_K, lat_sl2_3):
    for lat in (lat_K, lat_sl2_3):
        for i in range(len(lat)):
            assert (
                is_quasi_ideal(lat, i).verdict
                == is_quasi_ideal_bruteforce(lat.algebra, lat.nodes[i])
            )


def test_bruteforce_oracle_matches_per_subspace_loop_dim4():
    # the batched oracle against the definition written out one V at a
    # time; dim 4 with mostly non-quasi-ideal nodes covers both verdicts
    alg = random_solvable(4, 3, seed=1)
    lat = SubalgebraLattice.build(alg)
    assert len(lat) == 92
    rejected = 0
    for q in lat.nodes:
        expected = all(
            alg.bracket_spaces(q, v).is_subspace_of(q.sum(v))
            for v in enumerate_subspaces(alg.dim, alg.p)
        )
        verdict = is_quasi_ideal_bruteforce(alg, q)
        assert type(verdict) is bool
        assert verdict == expected
        rejected += not verdict
    assert rejected == 75


_QUASI_PINNED = {
    "K": (simple3_char2, "4b30a31a6a4a4ee5ee729a3ae308ccaf7a2cdb633c991d768d37600a7a2e8eb6"),
    "sl2(5)": (lambda: sl2(5), "35d5c261f6228affd9379436ef1a49020c0a3a333e280d8515b8ca8c9e22535e"),
    "n(4,2)": (lambda: strictly_upper(4, 2),
               "07ec4e6e527448a39a5e3ef6cd0186edbf468f736227b483957606cc05ae2ff3"),
    "witt(5)": (lambda: witt(5), "2f3b24c1d85bd3ae520861610861b09e7e6a2c3573e900a061adc6a8f2f362a4"),
    "random(5,5,7)": (None, "1ff18a41c459e712d3380ed849c696e0ca22d3023135122e2d39e855ae34ce40"),
}


@pytest.mark.parametrize("name", list(_QUASI_PINNED))
def test_quasi_ideal_witnesses_pinned(default_context, name):
    # every node's verdict and first bad line, recorded while each node
    # had its own all-lines check; the point query agrees node by node
    build, digest = _QUASI_PINNED[name]
    lat = SubalgebraLattice.build(build() if build else _default_random(default_context, name))
    quasi, wits = quasi_ideal_inventory(lat)
    assert _inventory_digest(quasi, wits) == digest
    assert _replays(lat, "quasi_ideal", wits)
    for u in range(len(lat)):
        rep = is_quasi_ideal(lat, u)
        assert (rep.verdict, rep.witness) == (quasi[u], wits.get(u))


def test_quasi_kernel_matches_per_line_definition(universe_sample):
    # verdict and first bad line against [U, Fx] <= U + Fx written out one
    # line at a time, on up to 48 seeded nodes of each lattice, and the
    # verdict against the all-subspaces oracle where it runs (dim <= 4)
    rng = np.random.default_rng(29)
    seen = set()
    for alg in universe_sample:
        n, p = alg.dim, alg.p
        lat = SubalgebraLattice.build(alg)
        quasi, wits = quasi_ideal_inventory(lat)
        flags = quasi_line_flags(lat)
        reps = line_index(n, p)[0]
        lines = [Subspace.from_vectors([x], n, p) for x in reps]
        ids = range(len(lat)) if len(lat) <= 48 else sorted(rng.choice(len(lat), 48, replace=False))
        for u in map(int, ids):
            space = lat.nodes[u]
            bad = next((j for j, line in enumerate(lines)
                        if not alg.bracket_spaces(space, line).is_subspace_of(space.sum(line))), -1)
            assert quasi[u] == (bad < 0)
            assert wits.get(u) == (None if bad < 0 else {"x": reps[bad].tolist()})
            if lat.dims[u] == 1:
                assert flags[u] == quasi[u]
            if n <= 4:
                assert quasi[u] == is_quasi_ideal_bruteforce(alg, space)
            seen.add(bad < 0)
    assert seen == {True, False}


def test_ideal_kernel_matches_definition(universe_sample):
    seen = set()
    for alg in universe_sample:
        lat = SubalgebraLattice.build(alg)
        full = alg.full_space()
        ideal = ideal_inventory(lat)
        flags = ideal_line_flags(lat)
        for u, space in enumerate(lat.nodes):
            expected = alg.bracket_spaces(full, space).is_subspace_of(space)
            assert ideal[u] == expected
            assert alg.is_ideal(space) == expected
            if lat.dims[u] == 1:
                assert flags[u] == expected
            seen.add(expected)
    assert seen == {True, False}


def test_bruteforce_guard():
    L = abelian(5, 2)
    with pytest.raises(ResourceError):
        is_quasi_ideal_bruteforce(L, L.zero_space())


def test_whole_algebra_is_quasi_ideal(lat_K):
    assert is_quasi_ideal(lat_K, lat_K.top_id).verdict


# ---------------------------------------------------------------------------
# Strong ideals / strong quasi-ideals
# ---------------------------------------------------------------------------

def test_strong_flags_heisenberg():
    lat = SubalgebraLattice.build(heisenberg(3))
    z = _node(lat, [(0, 0, 1)])
    assert is_strong_ideal(lat, z).verdict
    assert is_strong_quasi_ideal(lat, z).verdict


def test_strong_flags_K(lat_K):
    fc = _node(lat_K, [(0, 0, 1)])
    rep = is_strong_ideal(lat_K, fc)
    assert not rep.verdict
    assert replay_witness(lat_K, rep)
    assert is_strong_quasi_ideal(lat_K, fc).verdict
    assert is_strong_ideal(lat_K, lat_K.zero_id).verdict  # vacuous


def test_strong_point_queries_match_inventories(universe_sample):
    # a point query flags only the lines inside its node: its verdict must
    # equal the strong inventory built from the whole-lattice inventories,
    # and its witness the first bad line of the node in column order
    rng = np.random.default_rng(31)
    seen = set()
    for alg in universe_sample:
        lat = SubalgebraLattice.build(alg)
        lines = line_node_ids(lat)
        sample = range(len(lat)) if len(lat) <= 48 else rng.choice(len(lat), 48, replace=False)
        ids = sorted({int(u) for u in sample} | {lat.top_id})
        for inventory, query in ((ideal_inventory(lat), is_strong_ideal),
                                 (quasi_ideal_inventory(lat)[0], is_strong_quasi_ideal)):
            strong = strong_inventory(lat, inventory)
            for u in ids:
                rep = query(lat, u)
                assert rep.verdict == strong[u]
                bad = [int(i) for i in lines[lat.line_rows(u)] if not inventory[i]]
                if rep.verdict:
                    assert not bad and rep.witness is None
                else:
                    assert rep.witness == {"line": node_rows(lat, bad[0])}
                    assert replay_witness(lat, rep)
                seen.add((query.__name__, bool(rep.verdict)))
    assert len(seen) == 4


# ---------------------------------------------------------------------------
# Modular*
# ---------------------------------------------------------------------------

def test_modular_star_examples(lat_K):
    assert is_modular_star(lat_K, lat_K.top_id).verdict
    lat = SubalgebraLattice.build(abelian(2, 2))
    for i in range(len(lat)):
        assert is_modular_star(lat, i).verdict
    # consistency with the strengthening: Fc is quasi + modular* => strong quasi
    fc = _node(lat_K, [(0, 0, 1)])
    if is_modular_star(lat_K, fc).verdict:
        assert is_strong_quasi_ideal(lat_K, fc).verdict


# ---------------------------------------------------------------------------
# Mu algebras and one-and-a-half generation
# ---------------------------------------------------------------------------

def test_mu_examples(lat_K, lat_sl2_5):
    assert not is_mu_algebra(lat_K)
    assert not is_mu_algebra(lat_sl2_5)
    assert not is_mu_algebra(SubalgebraLattice.build(abelian(2, 3)))


def test_gen15_abelian_false():
    lat = SubalgebraLattice.build(abelian(3, 2))
    assert not has_one_and_half_generation(lat).verdict


def test_gen15_K_witness_is_c(lat_K):
    rep = has_one_and_half_generation(lat_K)
    assert not rep.verdict
    assert rep.witness == {"x": [0, 0, 1]}
    assert replay_witness(lat_K, rep)


def test_gen15_sl2_f5_true(lat_sl2_5):
    assert has_one_and_half_generation(lat_sl2_5).verdict


def test_gen15_two_dim_nonabelian_true():
    lat = SubalgebraLattice.build(nonabelian2(3))
    assert has_one_and_half_generation(lat).verdict


# ---------------------------------------------------------------------------
# Cross-predicate invariants
# ---------------------------------------------------------------------------

FIXTURES = [
    simple3_char2(),
    sl2(3),
    sl2(5),
    heisenberg(3),
    almost_abelian(3, 5),
    nonabelian2(7),
    abelian(3, 3),
]


@pytest.mark.parametrize("L", FIXTURES, ids=lambda L: L.name)
def test_implication_chain(L):
    lat = SubalgebraLattice.build(L)
    modular, _ = modular_inventory(lat)
    um, lm, _ = sm_inventory(lat)
    quasi, _ = quasi_ideal_inventory(lat)
    ideal = ideal_inventory(lat)
    # ideal => quasi-ideal => (um and lm); modular => sm
    assert not (ideal & ~quasi).any()
    assert not (quasi & ~(um & lm)).any()
    assert not (modular & ~(um & lm)).any()


def test_solvable_equivalence_on_random_samples():
    for seed in range(6):
        L = random_solvable(4, 3, seed)
        lat = SubalgebraLattice.build(L)
        modular, _ = modular_inventory(lat)
        um, lm, _ = sm_inventory(lat)
        quasi, _ = quasi_ideal_inventory(lat)
        assert (modular == (um & lm)).all()
        assert (modular == quasi).all()


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10 ** 6), st.sampled_from([2, 3, 5]), st.integers(2, 4))
def test_solvable_equivalence_property(seed, p, dim):
    L = random_solvable(dim, p, seed)
    lat = SubalgebraLattice.build(L)
    modular, _ = modular_inventory(lat)
    um, lm, _ = sm_inventory(lat)
    quasi, _ = quasi_ideal_inventory(lat)
    assert (modular == (um & lm)).all() and (modular == quasi).all()


def test_local_lemma_on_fixtures(lat_K, lat_sl2_5):
    # every proper sm node is maximal and modular in <U, x> for x outside
    for lat in (lat_K, lat_sl2_5):
        um, lm, _ = sm_inventory(lat)
        sm = um & lm
        t = lat.tables()
        lines = np.nonzero(lat.dims == 1)[0]
        for u in np.nonzero(sm)[0]:
            u = int(u)
            if u == lat.top_id:
                continue
            joins = np.unique(t.join[u, lines])
            joins = joins[joins != u]
            for v in joins:
                assert lat.is_maximal_in(u, int(v))
                ids = np.nonzero(t.contain[:, int(v)])[0]
                assert is_modular(lat, u, within=ids).verdict


def test_enumerated_universe_oracle_sample():
    # spot sample here; the full sweep runs in the acceptance suite
    algs = list(enumerate_structures(3, 2))
    for alg in algs[::7]:
        lat = SubalgebraLattice.build(alg)
        quasi, _ = quasi_ideal_inventory(lat)
        for i in range(len(lat)):
            assert quasi[i] == is_quasi_ideal_bruteforce(alg, lat.nodes[i])
