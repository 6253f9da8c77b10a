"""Complete subalgebra lattices of a LieAlgebra.

The builder sweeps every subspace of GF(p)^n in the canonical
enumeration order and keeps the bracket-closed ones, so the node list
is exactly the set of subalgebras, deterministically ordered by
(dimension, pivot pattern, free entries).  The sweep is vectorised per
pivot-pattern shard and tests one basis pair at a time, each only on
the candidates that passed the earlier pairs; the worst fixture in
range (psl3 over GF(3), 2.05 million candidates) builds in about 1.2 s
on one 2-core machine, single-threaded.

Every lattice carries one line-incidence index: a node is the union of
the lines it contains, so its set of lines (a packed bit row, one
column per line of GF(p)^n in enumeration order) identifies it.  Every
point query reads that index and nothing else, at every lattice size:
meets are ANDs of line sets, containment is a subset test, a join is
the lowest-id container of both operands, and maximality and the
maximal subalgebras come from subset tests between rows.

Lattices of at most `TABLE_NODE_LIMIT` nodes also expose dense n x n
containment, join, meet and cover tables (`tables()`).  Containment is
one product of line rows; join, meet and covers are read from each
node's up-set and down-set in it.  Only the whole-lattice predicate
scans (the modular and semi-modular inventories, modular*) read the
tables, and the harness analysis releases them once those scans are
done.
"""

from __future__ import annotations

import functools
import json
import operator
import os
from dataclasses import dataclass

import numpy as np

from .lie import LieAlgebra
from .linalg import (
    ResourceError,
    Subspace,
    UsageError,
    count_subspaces,
    batch_subspaces,
    line_index,
    subspace_shards,
)

CACHE_VERSION = 1
DEFAULT_SUBSPACE_BUDGET = 4_000_000
TABLE_NODE_LIMIT = 4096
_BATCH = 1 << 16


class CacheError(RuntimeError):
    """A lattice cache that cannot be used (wrong version or algebra)."""


def _closed_mask(tensor: np.ndarray, p: int, mats: np.ndarray, pattern) -> np.ndarray:
    """Which candidates (RREF bases sharing one pivot pattern) are
    bracket-closed.

    Basis pairs (r, s), r < s, are checked one at a time, each only on
    the candidates that passed every earlier pair.  Per row r, one
    product against the tensor gives e[m, j] = [b_r, e_j] for the
    survivors, and [b_r, b_s] = b_s @ e[m].  A bracket lies in the span
    iff it equals the combination of the basis rows with its entries at
    the pivot columns as coefficients, mod p.
    """
    m, k, n = mats.shape
    c = tensor.reshape(n, n * n).astype(np.float32)
    b = mats.astype(np.float32)
    bi = mats.astype(np.int32)
    alive = np.arange(m)
    pivots = list(pattern)
    for r in range(k - 1):
        # float32 is exact: entries are below p, so every sum stays below
        # (p-1)^3 n^2 <= 13,824 (p = 7, n = 8) < 2^24
        e = (b[:, r] @ c).reshape(-1, n, n)
        for s in range(r + 1, k):
            t = np.matmul(b[:, None, s], e)[:, 0].astype(np.int32) % p
            recon = np.matmul(t[:, None, pivots], bi)[:, 0] % p
            keep = (t == recon).all(axis=1)
            alive, b, bi, e = alive[keep], b[keep], bi[keep], e[keep]
    ok = np.zeros(m, dtype=bool)
    ok[alive] = True
    return ok


def _sweep_shard(tensor, p, n, kk, pattern, count):
    kept = []
    for start in range(0, count, _BATCH):
        stop = min(start + _BATCH, count)
        mats = batch_subspaces(n, p, pattern, start, stop)
        ok = _closed_mask(tensor, p, mats, pattern)
        if ok.any():
            kept.append(mats[ok])
    if not kept:
        return np.zeros((0, kk, n), dtype=np.uint8)
    return np.concatenate(kept)


class SubalgebraLattice:
    """All bracket-closed subspaces of a LieAlgebra, with lattice services."""

    def __init__(self, algebra: LieAlgebra, nodes: list[Subspace]):
        self.algebra = algebra
        self.nodes = nodes
        self.dims = np.array([s.dim for s in nodes], dtype=np.int64)
        self.index = {s.key: i for i, s in enumerate(nodes)}
        self.zero_id = 0
        self.top_id = len(nodes) - 1
        self._tables: LatticeTables | None = None
        top = nodes[self.top_id]
        if nodes[0].dim != 0 or top.dim != algebra.dim:
            raise UsageError("lattice must contain the zero subspace and the algebra")
        self.n_lines = len(line_index(algebra.dim, algebra.p)[0])
        self.incidence = _incidence(nodes, self.dims, algebra.dim, algebra.p)
        self.line_keys = [int.from_bytes(row.tobytes(), "little") for row in self.incidence]
        self._by_lines = {key: i for i, key in enumerate(self.line_keys)}

    # -- construction -------------------------------------------------------

    @classmethod
    def build(
        cls,
        algebra: LieAlgebra,
        budget: int = DEFAULT_SUBSPACE_BUDGET,
        threads: int | None = None,
    ) -> "SubalgebraLattice":
        n, p = algebra.dim, algebra.p
        total = count_subspaces(n, p)
        if total > budget:
            raise ResourceError(
                f"subspace sweep for dim {n} over GF({p}) needs {total} candidates, "
                f"over budget {budget}"
            )
        shards = list(subspace_shards(n, p))
        if threads and threads > 1:
            # imported here: threads and the modules they pull in are
            # only worth their import time when a build uses them
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=threads) as pool:
                blocks = list(
                    pool.map(
                        lambda sh: _sweep_shard(algebra.tensor, p, n, *sh), shards
                    )
                )
        else:
            blocks = [_sweep_shard(algebra.tensor, p, n, *sh) for sh in shards]
        nodes: list[Subspace] = []
        for (kk, pattern, _), block in zip(shards, blocks):
            block.setflags(write=False)
            nodes.extend(Subspace(rows, n, p, pattern) for rows in block)
        return cls(algebra, nodes)

    def __len__(self):
        return len(self.nodes)

    def counts_by_dim(self) -> dict[int, int]:
        out: dict[int, int] = {}
        for d in self.dims:
            out[int(d)] = out.get(int(d), 0) + 1
        return out

    # -- node lookup ---------------------------------------------------------

    def node_id(self, s) -> int:
        if isinstance(s, (int, np.integer)):
            i = int(s)
            if not 0 <= i < len(self.nodes):
                raise UsageError(f"node id {i} out of range")
            return i
        if not isinstance(s, Subspace):
            s = Subspace.from_vectors(list(s), self.algebra.dim, self.algebra.p)
        got = self.index.get(s.key)
        if got is None:
            raise UsageError("subspace is not a node of this lattice")
        return got

    def node(self, i: int) -> Subspace:
        return self.nodes[self.node_id(i)]

    def line_rows(self, ids=slice(None)) -> np.ndarray:
        """Unpacked incidence: [.., j] is True iff line j lies in the node."""
        return np.unpackbits(
            self.incidence[ids], axis=-1, count=self.n_lines, bitorder="little"
        ).astype(bool)

    def _le(self, a: int, b: int) -> bool:
        ka = self.line_keys[a]
        return ka & self.line_keys[b] == ka

    def _above(self, i: int) -> np.ndarray:
        """ids of the nodes containing the nonzero node i (i included),
        found among the containers of its first line."""
        key = self.line_keys[i]
        j = (key & -key).bit_length() - 1
        cand = np.nonzero(self.incidence[:, j >> 3] & (1 << (j & 7)))[0]
        row = self.incidence[i]
        return cand[((self.incidence[cand] & row) == row).all(axis=1)]

    # -- join and meet ---------------------------------------------------------

    def meet(self, a, b) -> int:
        ia, ib = self.node_id(a), self.node_id(b)
        got = self._by_lines.get(self.line_keys[ia] & self.line_keys[ib])
        if got is None:
            raise RuntimeError("meet of two nodes is missing from the lattice")
        return got

    def join(self, a, b) -> int:
        """The lowest-id node containing both: ids ascend with dimension,
        so it is the unique minimal upper bound."""
        ia, ib = sorted((self.node_id(a), self.node_id(b)))
        if ia == self.zero_id:
            return ib
        above = self._above(ib)
        row = self.incidence[ia]
        return int(above[((self.incidence[above] & row) == row).all(axis=1)][0])

    # -- covering relation -------------------------------------------------------

    def is_maximal_in(self, a, b) -> bool:
        """a is a maximal proper subalgebra of b (no node strictly between)."""
        ia, ib = self.node_id(a), self.node_id(b)
        if ia == ib or not self._le(ia, ib):
            raise UsageError("is_maximal_in expects nodes a strictly below b")
        da, db = int(self.dims[ia]), int(self.dims[ib])
        if db == da + 1:
            return True
        if da == 0:
            return db == 1  # every line is a node, so anything bigger has one
        above = self._above(ia)
        dw = self.dims[above]
        between = above[(dw > da) & (dw < db)]
        return bool((self.incidence[between] & ~self.incidence[ib]).any(axis=1).all())

    def covers(self, a, b) -> bool:
        """b covers a: same relation as is_maximal_in(a, b)."""
        return self.is_maximal_in(a, b)

    def maximal_subalgebras(self) -> list[int]:
        """ids of the maximal proper subalgebras, ascending.

        One pass over the dimension classes, largest first: a proper node
        is maximal iff its line set lies inside none of the maxima found
        in the larger classes, since every proper node above it lies in
        one of those.
        """
        words = -(-self.incidence.shape[1] // 8)
        rows = np.zeros((len(self.nodes), 8 * words), dtype=np.uint8)
        rows[:, : self.incidence.shape[1]] = self.incidence
        rows = rows.view(np.uint64)
        outside = ~rows[:0]                   # complements of the maxima so far
        out = []
        for d in range(int(self.dims[self.top_id]) - 1, -1, -1):
            ids = np.nonzero(self.dims == d)[0]
            inside = np.zeros(len(ids), dtype=bool)
            step = max(1, _BATCH // max(1, outside.size))   # ~_BATCH words a block
            for start in range(0, len(ids), step):
                block = rows[ids[start : start + step]]
                inside[start : start + step] = (
                    ((block[:, None, :] & outside[None]) == 0).all(axis=2).any(axis=1)
                )
            new = ids[~inside]
            out.extend(int(i) for i in new)
            outside = np.concatenate([outside, ~rows[new]])
        return sorted(out)

    def frattini(self) -> int:
        maxima = self.maximal_subalgebras()
        if not maxima:
            raise UsageError("frattini is undefined without maximal subalgebras")
        key = functools.reduce(operator.and_, (self.line_keys[m] for m in maxima))
        return self._by_lines[key]

    def induced_ids(self, v) -> np.ndarray:
        """ids of all nodes contained in the node v (the lattice of the
        subalgebra v)."""
        iv = self.node_id(v)
        return np.nonzero(~(self.incidence & ~self.incidence[iv]).any(axis=1))[0]

    # -- dense tables -----------------------------------------------------------

    def has_tables(self) -> bool:
        return len(self.nodes) <= TABLE_NODE_LIMIT

    def tables(self) -> "LatticeTables":
        if self._tables is None:
            if not self.has_tables():
                raise ResourceError(
                    f"{len(self.nodes)} nodes exceed the dense-table limit {TABLE_NODE_LIMIT}"
                )
            self._tables = LatticeTables.build(self)
        return self._tables


@dataclass
class LatticeTables:
    """Dense id-level lattice relations, all derived from containment.

    Node ids ascend with dimension, so a node's up-set starts with the
    node itself and the lowest-id common upper bound of two nodes is
    their join; dually the highest-id common lower bound is their meet.
    b covers a iff b is the only node of a's strict up-set at or below b.
    """

    contain: np.ndarray   # bool, contain[a, b] = a <= b
    join: np.ndarray      # int32 node ids
    meet: np.ndarray      # int32 node ids
    maximal: np.ndarray   # bool, maximal[a, b] = a maximal in b

    @classmethod
    def build(cls, lat: SubalgebraLattice) -> "LatticeTables":
        n_nodes = len(lat.nodes)
        # a <= b iff no line of a lies outside b
        lines = lat.line_rows().astype(np.float32)
        contain = (lines @ (1 - lines).T) == 0
        below = np.ascontiguousarray(contain.T)   # below[a] is a's down-set
        join = np.empty((n_nodes, n_nodes), dtype=np.int32)
        meet = np.empty((n_nodes, n_nodes), dtype=np.int32)
        maximal = np.empty((n_nodes, n_nodes), dtype=bool)
        for a in range(n_nodes):
            up = np.nonzero(contain[a])[0]
            join[a] = up[below[up].argmax(axis=0)]
            down = np.nonzero(below[a])[0][::-1]
            meet[a] = down[contain[down].argmax(axis=0)]
            maximal[a] = np.count_nonzero(contain[up[1:]], axis=0) == 1
        return cls(contain, join, meet, maximal)


def _incidence(nodes: list[Subspace], dims: np.ndarray, n: int, p: int,
               chunk: int = 4096) -> np.ndarray:
    """Packed line-incidence rows: bit j (little bit order) of row i is
    set iff line j of GF(p)^n lies in node i.

    Per dimension class k, the members x @ rows of every node, one per
    line x of GF(p)^k, are mapped to their lines through `line_index`.
    """
    reps, column = line_index(n, p)
    n_lines = len(reps)
    weights = p ** np.arange(n, dtype=np.int64)
    out = np.zeros((len(nodes), (n_lines + 7) // 8), dtype=np.uint8)
    for k in np.unique(dims[dims > 0]):
        coeffs = line_index(int(k), p)[0]
        ids = np.nonzero(dims == k)[0]
        for start in range(0, len(ids), chunk):
            sl = ids[start : start + chunk]
            rows = np.stack([nodes[i].rows for i in sl]).astype(np.int64)
            members = np.einsum("xk,mkn->mxn", coeffs, rows) % p
            hit = np.zeros((len(sl), n_lines), dtype=bool)
            hit[np.arange(len(sl))[:, None], column[members @ weights]] = True
            out[sl] = np.packbits(hit, axis=1, bitorder="little")
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# Disk cache
# ---------------------------------------------------------------------------

def save_cache(lat: SubalgebraLattice, path: str) -> None:
    doc = {
        "version": CACHE_VERSION,
        "algebra_sha256": lat.algebra.sha256(),
        "nodes": [s.to_digit_rows() for s in lat.nodes],
    }
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, separators=(",", ":"))
    os.replace(tmp, path)


def load_cache(path: str, algebra: LieAlgebra) -> SubalgebraLattice:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        raise CacheError(f"unreadable cache {path}: {err}") from err
    if doc.get("version") != CACHE_VERSION:
        raise CacheError(f"cache version {doc.get('version')} != {CACHE_VERSION}")
    if doc.get("algebra_sha256") != algebra.sha256():
        raise CacheError("cache was built for a different algebra")
    n, p = algebra.dim, algebra.p
    nodes = []
    try:
        for rows in doc["nodes"]:
            arr = np.array(rows, dtype=np.int64).reshape(len(rows), n)
            if rows and ((arr < 0) | (arr >= p)).any():
                raise CacheError("cache rows are not reduced mod p")
            nodes.append(Subspace.from_rref(arr.astype(np.uint8), n, p))
    except (ValueError, TypeError) as err:
        raise CacheError(f"malformed cache node data: {err}") from err
    return SubalgebraLattice(algebra, nodes)


def build_lattice(
    algebra: LieAlgebra,
    budget: int = DEFAULT_SUBSPACE_BUDGET,
    threads: int | None = None,
    cache_path: str | None = None,
) -> SubalgebraLattice:
    """Build the lattice, consulting and refreshing a cache file if given."""
    if cache_path and os.path.exists(cache_path):
        try:
            return load_cache(cache_path, algebra)
        except CacheError:
            pass  # stale cache: rebuild below
    lat = SubalgebraLattice.build(algebra, budget, threads)
    if cache_path:
        save_cache(lat, cache_path)
    return lat
