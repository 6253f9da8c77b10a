"""Decision procedures for subalgebra properties of a lattice node:
modular, upper/lower/semi-modular, quasi-ideal (with an independent
brute-force oracle), strong ideal, strong quasi-ideal, modular*,
mu-algebra, and one-and-a-half generation.

Quantifiers in the modularity laws range over lattice nodes
(subalgebras); the quasi-ideal condition is the only subspace-
quantified notion, and it reduces to one-dimensional subspaces:
[Q, V] = sum over v of [Q, Fv], and each [Q, Fv] <= Q + Fv <= Q + V.
The brute-force oracle checks the literal all-subspaces definition, all
V at once by a rank comparison, and exists solely to validate that
reduction.

Quasi-ideal and ideal verdicts come from staged batch kernels: nodes
are grouped by pivot pattern, and each group's stacked bases are tested
a block of lines at a time (quasi-ideal, in `line_index` order) or one
basis vector e_i at a time (ideal, `LieAlgebra.ideal_mask`), each test
only on the bases that passed the earlier ones.  The inventories, the
line flags and the point queries all go through these kernels (a point
query is the one-base case), so a quasi-ideal witness is the first bad
line in column order wherever it is asked for.

Whole-lattice scans (the modular and sm inventories, modular*) use the
dense tables plus a pentagon argument: a node u satisfies the first
modular law iff no pair b < c has equal joins and equal meets with u;
the second law fails exactly when such a pentagon (side b, chain m < M)
exists with u <= m and join(b, u) = join(b, m).  Per-node upper, lower
and semi-modularity scan the other nodes with meet, join and
maximality point queries, and one-and-a-half generation is one
line-incidence test, so both work at every lattice size.  Witnesses
are deterministic and always re-verify against the definitions.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

import numpy as np

from .lattice import SubalgebraLattice
from .lie import BLOCK_ENTRIES, LieAlgebra
from .linalg import (
    INV_TABLE, ResourceError, Subspace, UsageError, batch_rref, line_index, subspace_stack,
)


@dataclass
class PredicateReport:
    algebra: str
    subalgebra: list[list[int]]
    predicate: str
    verdict: bool
    witness: dict | None = None

    def to_json(self) -> dict:
        return {
            "algebra": self.algebra,
            "subalgebra": self.subalgebra,
            "predicate": self.predicate,
            "verdict": self.verdict,
            "witness": self.witness,
        }


def _report(lat, u, predicate, verdict, witness=None) -> PredicateReport:
    return PredicateReport(
        algebra=lat.algebra.name,
        subalgebra=lat.nodes[u].to_digit_rows(),
        predicate=predicate,
        verdict=verdict,
        witness=witness,
    )


def node_rows(lat, i) -> list[list[int]]:
    return lat.nodes[i].to_digit_rows()


# ---------------------------------------------------------------------------
# Modular
# ---------------------------------------------------------------------------

def _first_law_chunks(t, iu, ids):
    """The first modular law for node iu, B over `ids` and C over chunks
    of `ids`: per chunk, (C ids, meet(<u, B>, C), failures B <= C with
    meet(<u, B>, C) != <B, u meet C>)."""
    ju = t.join[iu, ids]
    for start in range(0, len(ids), 512):
        c_ids = ids[start : start + 512]
        lhs = t.meet[np.ix_(ju, c_ids)]
        rhs = t.join[np.ix_(ids, t.meet[iu, c_ids])]
        yield c_ids, lhs, t.contain[np.ix_(ids, c_ids)] & (lhs != rhs)


def _law_witness(lat, law, bad, b_ids, c_ids) -> dict | None:
    """The first failing (B, C) pair of `bad`, rows B over `b_ids` and
    columns C over `c_ids`, or None."""
    if not bad.any():
        return None
    b_i, c_i = np.argwhere(bad)[0]
    return {"law": law, "b": node_rows(lat, int(b_ids[b_i])),
            "c": node_rows(lat, int(c_ids[c_i]))}


def is_modular(lat: SubalgebraLattice, u, within=None) -> PredicateReport:
    """Both displayed modularity laws, quantified over lattice nodes;
    within each chunk of C the first law is tested before the second.

    `within` restricts all quantifiers to the given node ids (the
    induced lattice of a subalgebra); joins, meets and covers inside an
    induced lattice agree with the global ones.
    """
    iu = lat.node_id(u)
    t = lat.tables()
    ids = np.arange(len(lat.nodes)) if within is None else np.asarray(within, dtype=np.int64)
    witness = None
    for c_ids, lhs, bad1 in _first_law_chunks(t, iu, ids):
        rhs2 = t.join[:, iu][t.meet[np.ix_(ids, c_ids)]]           # <B meet C, u>
        bad2 = t.contain[iu, c_ids][None, :] & (lhs != rhs2)
        witness = (_law_witness(lat, 1, bad1, ids, c_ids)
                   or _law_witness(lat, 2, bad2, ids, c_ids))
        if witness is not None:
            break
    return _report(lat, iu, "modular", witness is None, witness)


def modular_inventory(lat: SubalgebraLattice) -> tuple[np.ndarray, dict[int, dict]]:
    """Modular verdict for every node at once via a pentagon scan.

    Any pentagon (side B; chain m < M) contains one whose chain is a
    cover pair (joins and meets with B are sandwiched between equal
    values), so scanning the Hasse edges is complete: the first law
    fails for exactly the pentagon sides, the second for the nodes u
    below a pentagon bottom m with <B, u> = <B, m>.
    """
    t = lat.tables()
    n = len(lat.nodes)
    jt, mt, contain = t.join, t.meet, t.contain
    bad = np.zeros(n, dtype=bool)
    witnesses: dict[int, dict] = {}
    edges = np.argwhere(t.maximal)  # (m, M) cover pairs in lex order
    pentagons = []                  # pentagon edges (m, M), in the same order
    for start in range(0, edges.shape[0], 2048):
        chunk = edges[start : start + 2048]
        ms, tops = chunk[:, 0], chunk[:, 1]
        # join and meet are symmetric: rows, not columns, per edge
        sides = (jt[ms] == jt[tops]) & (mt[ms] == mt[tops])                # (C, n)
        pentagons.extend(chunk[sides.any(axis=1)].tolist())
        is_side = sides.any(axis=0)
        fresh = np.nonzero(is_side & ~bad)[0]
        # law 1 witness for a new side: B = bottom, C = top of its first edge
        for side, k in zip(fresh.tolist(), sides[:, fresh].argmax(axis=0).tolist()):
            witnesses[side] = {"law": 1, "b": node_rows(lat, int(ms[k])),
                               "c": node_rows(lat, int(tops[k]))}
        bad |= is_side
    # second law: u fails iff some pentagon (B; m, M) has u <= m and
    # <B, u> = <B, m>.  All pentagons on one bottom m are decided in one
    # comparison against the union of their sides; u's witness is its
    # first edge (lowest top), then that edge's first side.
    for m_id, group in itertools.groupby(pentagons, key=operator.itemgetter(0)):
        down = np.nonzero(contain[:, m_id] & ~bad)[0]
        if not down.size:
            continue
        tops = [top for _, top in group]
        sides = (jt[tops] == jt[m_id]) & (mt[tops] == mt[m_id])            # (E, n)
        side_ids = np.nonzero(sides.any(axis=0))[0]
        member = sides[:, side_ids]                                         # (E, S)
        eq = jt[np.ix_(side_ids, down)] == jt[side_ids, m_id][:, None]      # (S, D)
        hits = member @ eq                                                  # (E, D)
        hit = np.nonzero(hits.any(axis=0))[0]
        first_edge = hits[:, hit].argmax(axis=0)
        first_side = (member[first_edge] & eq[:, hit].T).argmax(axis=1)
        for d, e, b in zip(hit.tolist(), first_edge.tolist(), first_side.tolist()):
            u = int(down[d])
            bad[u] = True
            witnesses[u] = {"law": 2, "b": node_rows(lat, int(side_ids[b])),
                            "c": node_rows(lat, tops[e])}
    return ~bad, witnesses


# ---------------------------------------------------------------------------
# Upper / lower / semi-modular
# ---------------------------------------------------------------------------

def _sm_rows(lat, iu, ids):
    t = lat.tables()
    jt, mt, mx = t.join, t.meet, t.maximal
    meets = mt[iu, ids]
    joins = jt[iu, ids]
    meet_max_in_b = mx[meets, ids]       # u meet B maximal in B
    u_max_in_join = mx[iu, joins]        # u maximal in <u, B>
    um_bad = meet_max_in_b & ~u_max_in_join
    lm_bad = u_max_in_join & ~meet_max_in_b
    return um_bad, lm_bad


def _sm_side(lat, iu, b):
    """The law node iu breaks against node b: "um" (iu meet b maximal in
    b, but iu not maximal in <iu, b>), "lm" (the converse) or None."""
    mid = lat.meet(iu, b)
    prem = mid != b and lat.is_maximal_in(mid, b)
    jid = lat.join(iu, b)
    concl = jid != iu and lat.is_maximal_in(iu, jid)
    return "um" if prem and not concl else "lm" if concl and not prem else None


def _sm_scan(lat, u, predicate, sides) -> PredicateReport:
    """Point-query scan of B over the nodes in id order, stopping at the
    first B where u breaks a law in `sides`."""
    iu = lat.node_id(u)
    for b in range(len(lat.nodes)):
        side = _sm_side(lat, iu, b)
        if side in sides:
            rows = node_rows(lat, b)
            witness = {"side": side, "b": rows} if len(sides) > 1 else {"b": rows}
            return _report(lat, iu, predicate, False, witness)
    return _report(lat, iu, predicate, True)


def is_upper_modular(lat, u) -> PredicateReport:
    return _sm_scan(lat, u, "upper_modular", ("um",))


def is_lower_modular(lat, u) -> PredicateReport:
    return _sm_scan(lat, u, "lower_modular", ("lm",))


def is_semi_modular(lat, u) -> PredicateReport:
    return _sm_scan(lat, u, "semi_modular", ("um", "lm"))


def sm_inventory(lat) -> tuple[np.ndarray, np.ndarray, dict[int, dict]]:
    """(um verdicts, lm verdicts, witnesses) for every node, from the
    dense tables."""
    n = len(lat.nodes)
    ids = np.arange(n)
    um = np.ones(n, dtype=bool)
    lm = np.ones(n, dtype=bool)
    witnesses: dict[int, dict] = {}
    for u in range(n):
        um_bad, lm_bad = _sm_rows(lat, u, ids)
        if um_bad.any():
            um[u] = False
            witnesses.setdefault(u, {"side": "um", "b": node_rows(lat, int(um_bad.argmax()))})
        if lm_bad.any():
            lm[u] = False
            witnesses.setdefault(u, {"side": "lm", "b": node_rows(lat, int(lm_bad.argmax()))})
    return um, lm, witnesses


# ---------------------------------------------------------------------------
# Quasi-ideals
# ---------------------------------------------------------------------------

def line_matrix(algebra: LieAlgebra) -> np.ndarray:
    """Canonical line representatives, in the order line nodes appear
    (`line_node_ids`); one shared read-only int64 array per (dim, p)."""
    return line_index(algebra.dim, algebra.p)[0]


def _first_bad_lines(algebra: LieAlgebra, rows: np.ndarray, pivots) -> np.ndarray:
    """Per base of an (m, k, n) stack of RREF bases that share the pivot
    columns `pivots`: the column (`line_index` order) of the first line
    Fx with [U, Fx] not in U + Fx, or -1 when there is none.

    Lines are tested in column order, a block at a time, each block only
    on the bases that passed every earlier line; blocks of lines and of
    bases keep each bracket block near `BLOCK_ENTRIES` entries.  With
    rho_r = [u_r, x] and xi = x, both reduced mod U (so both vanish at
    the pivot columns), the line passes iff every rho_r equals lam_r xi,
    lam_r read off at xi's leading column (lam_r = 0 when x lies in U).
    """
    m, k, n = rows.shape
    first = np.full(m, -1, dtype=np.int64)
    if k in (0, n):
        return first
    p, piv = algebra.p, list(pivots)
    free = [c for c in range(n) if c not in pivots]
    lines, t = line_matrix(algebra), algebra.line_brackets()   # t[x, i] = [e_i, x]
    inv = INV_TABLE[p].astype(np.int64)
    r = rows.astype(np.int64)
    r_free = r[:, :, free]
    alive = np.arange(m)
    start = 0
    while alive.size and start < len(lines):
        stop = min(len(lines), start + max(16, BLOCK_ENTRIES // (alive.size * k * n)))
        x = lines[start:stop]
        step = max(1, BLOCK_ENTRIES // ((stop - start) * k * n))
        for c0 in range(0, alive.size, step):
            ids = alive[c0 : c0 + step]
            br = r[ids, None] @ t[None, start:stop] % p                        # (s, X, k, n)
            rho = (br[..., free] - br[..., piv] @ r_free[ids, None]) % p       # (s, X, k, q)
            xi = (x[:, free] - x[:, piv] @ r_free[ids]) % p                   # (s, X, q)
            lead = (xi != 0).argmax(axis=2)[..., None]
            scale = inv[np.take_along_axis(xi, lead, axis=2)]
            lam = np.take_along_axis(rho, lead[..., None], axis=3) * scale[..., None] % p
            bad = ((lam * xi[:, :, None, :] - rho) % p).any(axis=(2, 3))     # (s, X)
            hit = bad.any(axis=1)
            first[ids[hit]] = start + bad[hit].argmax(axis=1)
        alive = alive[first[alive] < 0]
        start = stop
    return first


def _by_pattern(spaces, kernel, dtype) -> np.ndarray:
    """`kernel(rows, pivots)` on the stacked bases of each pivot pattern
    among `spaces`, its results put back in the order of `spaces`."""
    groups: dict[tuple, list[int]] = {}
    for j, s in enumerate(spaces):
        groups.setdefault(s.pivots, []).append(j)
    out = np.empty(len(spaces), dtype=dtype)
    for pivots, idx in groups.items():
        out[idx] = kernel(np.stack([spaces[j].rows for j in idx]), pivots)
    return out


def _quasi_witness(algebra: LieAlgebra, space: Subspace) -> dict | None:
    """{"x": first line Fx with [U, Fx] not in U + Fx}, or None."""
    col = int(_first_bad_lines(algebra, space.rows[None], space.pivots)[0])
    return None if col < 0 else {"x": line_matrix(algebra)[col].tolist()}


def is_quasi_ideal(lat_or_algebra, u) -> PredicateReport:
    """[Q, Fx] <= Q + Fx for every line Fx (the documented reduction of
    the all-subspaces definition)."""
    if isinstance(lat_or_algebra, SubalgebraLattice):
        lat = lat_or_algebra
        iu = lat.node_id(u)
        witness = _quasi_witness(lat.algebra, lat.nodes[iu])
        return _report(lat, iu, "quasi_ideal", witness is None, witness)
    algebra = lat_or_algebra
    space = u if isinstance(u, Subspace) else Subspace.from_vectors(list(u), algebra.dim, algebra.p)
    if not algebra.is_subalgebra(space):
        raise UsageError("quasi-ideal check expects a subalgebra")
    witness = _quasi_witness(algebra, space)
    return PredicateReport(
        algebra=algebra.name,
        subalgebra=space.to_digit_rows(),
        predicate="quasi_ideal",
        verdict=witness is None,
        witness=witness,
    )


def is_quasi_ideal_bruteforce(algebra: LieAlgebra, u) -> bool:
    """The literal definition: [Q, V] <= Q + V for every subspace V.

    Exists as the independent oracle for the one-dimensional reduction;
    guarded to dim <= 4.  Every subspace V of GF(p)^n is checked in one
    batch: [Q, V] <= Q + V iff the rows of Q and V have the same rank
    as those rows together with all products [q_r, v_s].  The bases of
    V come zero-padded from `subspace_stack`, and one `batch_rref` call
    ranks both row stacks of every V.
    """
    if algebra.dim > 4:
        raise ResourceError("brute-force quasi-ideal check is guarded to dim <= 4")
    space = algebra._space(u)
    p, n, k = algebra.p, algebra.dim, space.dim
    vs = subspace_stack(n, p)                                        # (m, n, n)
    m = vs.shape[0]
    prods = np.einsum("ri,msj,ijl->msrl", space.rows.astype(np.int64), vs.astype(np.int64),
                      algebra.tensor.astype(np.int64)) % p          # [q_r, v_s]
    # stacks[0]: Q + V, zero-padded; stacks[1]: Q + V + [Q, V]
    stacks = np.zeros((2, m, k + n + k * n, n), dtype=np.int64)
    stacks[:, :, :k] = space.rows
    stacks[:, :, k : k + n] = vs
    stacks[1, :, k + n :] = prods.reshape(m, k * n, n)
    _, ranks = batch_rref(stacks.reshape(2 * m, -1, n), p)
    return bool((ranks[:m] == ranks[m:]).all())


def quasi_ideal_inventory(lat) -> tuple[np.ndarray, dict[int, dict]]:
    """Quasi-ideal verdict for every node, and the first bad line of
    each failing node as its witness."""
    alg = lat.algebra
    first = _by_pattern(lat.nodes, functools.partial(_first_bad_lines, alg), np.int64)
    lines = line_matrix(alg)
    witnesses = {int(i): {"x": lines[first[i]].tolist()}
                 for i in np.nonzero(first >= 0)[0]}
    return first < 0, witnesses


# ---------------------------------------------------------------------------
# Ideal flags, strong ideals, strong quasi-ideals
# ---------------------------------------------------------------------------

def ideal_inventory(lat) -> np.ndarray:
    return _by_pattern(lat.nodes, lat.algebra.ideal_mask, bool)


def line_node_ids(lat) -> np.ndarray:
    return np.nonzero(lat.dims == 1)[0]


def _line_flags(lat, kernel, dtype, ids=None) -> dict[int, object]:
    ids = line_node_ids(lat) if ids is None else ids
    out = _by_pattern([lat.nodes[int(i)] for i in ids], kernel, dtype)
    return dict(zip(ids.tolist(), out.tolist()))


def ideal_line_flags(lat, ids=None) -> dict[int, bool]:
    """Ideal verdict of each line node (of the line nodes `ids`, if given)."""
    return _line_flags(lat, lat.algebra.ideal_mask, bool, ids)


def quasi_line_flags(lat, ids=None) -> dict[int, bool]:
    """Quasi-ideal verdict of each line node (of the line nodes `ids`, if given)."""
    first = _line_flags(lat, functools.partial(_first_bad_lines, lat.algebra), np.int64, ids)
    return {i: f < 0 for i, f in first.items()}


def _bad_lines(lat, flags) -> np.ndarray:
    """Line-incidence mask (column order) of the lines whose flag is False."""
    return np.array([not flags[int(i)] for i in line_node_ids(lat)], dtype=bool)


def strong_inventory(lat, flags) -> np.ndarray:
    """Per node: it contains no line whose flag is False, i.e. it is a
    strong ideal or strong quasi-ideal when `flags` are the ideal or
    quasi-ideal verdicts.  `flags` is looked up by line node id: the
    dict of `ideal_line_flags`/`quasi_line_flags`, or a whole inventory."""
    bad = np.packbits(_bad_lines(lat, flags), bitorder="little")
    return ~(lat.incidence & bad).any(axis=1)


def _strong_report(lat, u, line_flags, predicate) -> PredicateReport:
    """Flags only the lines inside u; the witness is the first bad one in
    column order."""
    iu = lat.node_id(u)
    ids = line_node_ids(lat)[lat.line_rows(iu)]
    flags = line_flags(lat, ids)
    bad = [i for i in ids.tolist() if not flags[i]]
    if not bad:
        return _report(lat, iu, predicate, True)
    return _report(lat, iu, predicate, False, {"line": node_rows(lat, bad[0])})


def is_strong_ideal(lat, u) -> PredicateReport:
    return _strong_report(lat, u, ideal_line_flags, "strong_ideal")


def is_strong_quasi_ideal(lat, u) -> PredicateReport:
    return _strong_report(lat, u, quasi_line_flags, "strong_quasi_ideal")


# ---------------------------------------------------------------------------
# Modular*
# ---------------------------------------------------------------------------

def is_modular_star(lat, u) -> PredicateReport:
    """The dualised laws: the first modular law, plus
    <U meet B, C> = <B, C> meet U for all subalgebras C <= U.

    The dual law quantifies C over the down-set of U only, so it is
    checked first; a violating pair is usually found there.
    """
    iu = lat.node_id(u)
    t = lat.tables()
    ids = np.arange(len(lat.nodes))
    c_down = np.nonzero(t.contain[:, iu])[0]
    lhs2 = t.join[np.ix_(t.meet[iu], c_down)]             # <U meet B, C>
    rhs2 = t.meet[:, iu][t.join[:, c_down]]               # <B, C> meet U
    witness = _law_witness(lat, 2, lhs2 != rhs2, ids, c_down)
    if witness is None:
        for c_ids, _, bad1 in _first_law_chunks(t, iu, ids):
            witness = _law_witness(lat, 1, bad1, ids, c_ids)
            if witness is not None:
                break
    return _report(lat, iu, "modular_star", witness is None, witness)


# ---------------------------------------------------------------------------
# Mu-algebras and one-and-a-half generation
# ---------------------------------------------------------------------------

def is_mu_algebra(lat) -> bool:
    """Non-solvable with every proper subalgebra one-dimensional."""
    if lat.algebra.is_solvable():
        return False
    proper = lat.dims[:-1]  # all but the top node
    return bool((proper <= 1).all())


def has_one_and_half_generation(lat) -> PredicateReport:
    """Every nonzero x admits y with <x, y> = L; one representative per
    line suffices since <x, y> only depends on Fx and Fy.  The line of x
    has a partner iff the proper subalgebras containing x do not cover
    every line: any line outside all of them generates L with x."""
    top = lat.top_id
    proper = lat.incidence[:top]              # ids ascend with dimension
    for j, line in enumerate(line_node_ids(lat)):
        holders = proper[(proper[:, j >> 3] >> (j & 7)) & 1 == 1]
        if (np.bitwise_or.reduce(holders, axis=0) == lat.incidence[top]).all():
            return _report(
                lat, top, "one_and_half_generation", False,
                {"x": node_rows(lat, int(line))[0]},
            )
    return _report(lat, top, "one_and_half_generation", True)


# ---------------------------------------------------------------------------
# Witness replay
# ---------------------------------------------------------------------------

def replay_witness(lat, report: PredicateReport) -> bool:
    """Re-evaluate a false report's witness against the raw definition;
    True means the violation reproduces."""
    if report.verdict or report.witness is None:
        raise UsageError("only false verdicts carry a replayable witness")
    n, p = lat.algebra.dim, lat.algebra.p
    iu = lat.node_id(Subspace.from_vectors(report.subalgebra, n, p))
    w = report.witness
    if report.predicate in ("modular", "modular_star"):
        ib = lat.node_id(Subspace.from_vectors(w["b"], n, p))
        ic = lat.node_id(Subspace.from_vectors(w["c"], n, p))
        if w["law"] == 1:
            return lat.meet(lat.join(iu, ib), ic) != lat.join(ib, lat.meet(iu, ic))
        if report.predicate == "modular":
            return lat.meet(lat.join(iu, ib), ic) != lat.join(lat.meet(ib, ic), iu)
        return lat.join(lat.meet(iu, ib), ic) != lat.meet(lat.join(ib, ic), iu)
    if report.predicate in ("upper_modular", "lower_modular", "semi_modular"):
        ib = lat.node_id(Subspace.from_vectors(w["b"], n, p))
        side = w.get("side", "lm" if report.predicate == "lower_modular" else "um")
        return _sm_side(lat, iu, ib) == side
    if report.predicate == "quasi_ideal":
        x = np.array(w["x"], dtype=np.int64)
        space = lat.nodes[iu]
        line = Subspace.from_vectors([x], n, p)
        prod = lat.algebra.bracket_spaces(space, line)
        return not prod.is_subspace_of(space.sum(line))
    if report.predicate in ("strong_ideal", "strong_quasi_ideal"):
        line = Subspace.from_vectors(w["line"], n, p)
        if report.predicate == "strong_ideal":
            return not lat.algebra.is_ideal(line)
        return _quasi_witness(lat.algebra, line) is not None
    if report.predicate == "one_and_half_generation":
        il = lat.node_id(Subspace.from_vectors([w["x"]], n, p))
        return all(
            lat.join(int(il), int(m)) != lat.top_id for m in line_node_ids(lat)
        )
    raise UsageError(f"cannot replay predicate {report.predicate!r}")
