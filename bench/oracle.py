"""Independent correctness checks for the benchmark.

Everything here is computed from a structure tensor with plain numpy
GF(p) arithmetic of its own (row reduction, brackets, spans), never
through `liesublat.linalg` or `liesublat.lie`, so a fault in those
layers cannot hide itself.  Lattices arrive as plain data: the RREF
basis rows of every node, in the program's node order.

Every check returns a list of failure strings; an empty list passes.
"""

from __future__ import annotations

import itertools

import numpy as np


# ---------------------------------------------------------------------------
# GF(p) linear algebra
# ---------------------------------------------------------------------------

def rref(mat, p: int) -> np.ndarray:
    """Reduced row echelon form of one matrix over GF(p), zero rows dropped."""
    a = np.array(mat, dtype=np.int64).reshape(-1, np.shape(mat)[-1]) % p
    rows, cols = a.shape
    r = 0
    for c in range(cols):
        if r == rows:
            break
        nz = np.nonzero(a[r:, c])[0]
        if nz.size == 0:
            continue
        piv = r + int(nz[0])
        a[[r, piv]] = a[[piv, r]]
        a[r] = a[r] * pow(int(a[r, c]), p - 2, p) % p
        others = np.arange(rows) != r
        a[others] = (a[others] - np.outer(a[others, c], a[r])) % p
        r += 1
    return a[:r]


def key(rows, n: int) -> tuple:
    """Hashable identity of a subspace from its canonical RREF rows."""
    arr = np.asarray(rows, dtype=np.uint8).reshape(-1, n)
    return arr.shape[0], arr.tobytes()


def bracket_rows(tensor: np.ndarray, p: int, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """[x_r, y_s] for every row pair, shape (len(xs) * len(ys), n)."""
    t = tensor.astype(np.int64)
    prods = np.einsum("ri,sj,ijl->rsl", xs.astype(np.int64), ys.astype(np.int64), t) % p
    return prods.reshape(-1, t.shape[0])


def span_contains(basis: np.ndarray, vecs: np.ndarray, p: int) -> bool:
    k = basis.shape[0]
    if vecs.size == 0:
        return True
    return rref(np.vstack([basis, vecs]), p).shape[0] == k


def is_closed(tensor: np.ndarray, p: int, basis: np.ndarray) -> bool:
    if basis.shape[0] < 2:
        return True
    return span_contains(basis, bracket_rows(tensor, p, basis, basis), p)


def generated(tensor: np.ndarray, p: int, rows: np.ndarray) -> np.ndarray:
    """Smallest bracket-closed subspace containing the rows (by definition)."""
    n = tensor.shape[0]
    basis = rref(rows.reshape(-1, n), p)
    while True:
        grown = rref(np.vstack([basis, bracket_rows(tensor, p, basis, basis)]), p)
        if grown.shape[0] == basis.shape[0]:
            return basis
        basis = grown


def intersection(a: np.ndarray, b: np.ndarray, n: int, p: int) -> np.ndarray:
    """Zassenhaus: reduce [[a, a], [b, 0]]; rows with zero left half span a & b."""
    if a.shape[0] == 0 or b.shape[0] == 0:
        return np.zeros((0, n), dtype=np.int64)
    top = np.hstack([a, a])
    bottom = np.hstack([b, np.zeros_like(b)])
    red = rref(np.vstack([top, bottom]), p)
    meet = red[~red[:, :n].any(axis=1), n:]
    return rref(meet, p) if meet.size else np.zeros((0, n), dtype=np.int64)


def gaussian_binomial(n: int, k: int, q: int) -> int:
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def line_reps(n: int, p: int) -> np.ndarray:
    """One vector per line of GF(p)^n: first nonzero coordinate 1."""
    out = []
    for lead in range(n):
        for tail in itertools.product(range(p), repeat=n - lead - 1):
            v = [0] * lead + [1] + list(tail)
            out.append(v)
    return np.array(out, dtype=np.int64)


def closed_plane_count(tensor: np.ndarray, p: int, chunk: int = 1 << 15) -> int:
    """Number of two-dimensional subalgebras, counted independently of any
    lattice: ordered independent pairs (x, y) with [x, y] in span{x, y},
    divided by |GL_2(p)|.  Pairs are enumerated as pairs of distinct lines;
    each such pair stands for 2 (p - 1)^2 ordered vector pairs."""
    n = tensor.shape[0]
    if n < 2:
        return 0
    lines = line_reps(n, p)
    t = tensor.astype(np.int64)
    coef = np.array(list(itertools.product(range(p), repeat=2)), dtype=np.int64)  # (p^2, 2)
    iu, ju = np.triu_indices(lines.shape[0], 1)
    closed_pairs = 0
    for start in range(0, iu.size, chunk):
        x = lines[iu[start:start + chunk]]
        y = lines[ju[start:start + chunk]]
        z = np.einsum("mi,mj,ijl->ml", x, y, t) % p
        combos = (coef[None, :, 0, None] * x[:, None, :] + coef[None, :, 1, None] * y[:, None, :]) % p
        closed_pairs += int((combos == z[:, None, :]).all(axis=2).any(axis=1).sum())
    ordered = closed_pairs * 2 * (p - 1) ** 2
    gl2 = (p * p - 1) * (p * p - p)
    if ordered % gl2:
        return -1
    return ordered // gl2


# ---------------------------------------------------------------------------
# Lattice checks
# ---------------------------------------------------------------------------

def check_lattice(name: str, tensor: np.ndarray, p: int, node_rows, rng,
                  samples_per_dim: int = 3) -> list[str]:
    """The node list is exactly the set of bracket-closed subspaces, as far
    as counts and a seeded sample of random subspaces can tell."""
    n = tensor.shape[0]
    fails = []
    keys = {key(r, n) for r in node_rows}
    if len(keys) != len(node_rows):
        fails.append(f"{name}: duplicate nodes")
    dims = np.bincount([np.asarray(r).reshape(-1, n).shape[0] for r in node_rows],
                       minlength=n + 1)
    lines = (p ** n - 1) // (p - 1)
    if dims[0] != 1 or dims[n] != 1:
        fails.append(f"{name}: {dims[0]} zero and {dims[n]} full nodes")
    if dims[1] != lines:
        fails.append(f"{name}: {dims[1]} one-dimensional nodes, expected {lines}")
    if n >= 3:
        planes = closed_plane_count(tensor, p)
        if dims[2] != planes:
            fails.append(f"{name}: {dims[2]} two-dimensional nodes, independent count {planes}")
    if not tensor.any():
        expect = [gaussian_binomial(n, k, p) for k in range(n + 1)]
        if dims.tolist() != expect:
            fails.append(f"{name}: abelian counts {dims.tolist()} != Gaussian binomials {expect}")
    for k in range(1, n):
        for _ in range(samples_per_dim):
            basis = rref(rng.integers(0, p, size=(k, n)), p)
            if basis.shape[0] != k:
                continue
            if (key(basis, n) in keys) != is_closed(tensor, p, basis):
                fails.append(f"{name}: membership of {basis.tolist()} disagrees with closure")
    for i in rng.choice(len(node_rows), size=min(len(node_rows), samples_per_dim), replace=False):
        rows = np.asarray(node_rows[int(i)], dtype=np.int64).reshape(-1, n)
        if not is_closed(tensor, p, rows):
            fails.append(f"{name}: node {int(i)} is not bracket-closed")
    return fails


def check_join_meet(name: str, tensor: np.ndarray, p: int, node_rows, answers) -> list[str]:
    """answers: (a, b, join id, meet id) as the program reported them."""
    n = tensor.shape[0]
    fails = []
    for a, b, j, m in answers:
        ra = np.asarray(node_rows[a], dtype=np.int64).reshape(-1, n)
        rb = np.asarray(node_rows[b], dtype=np.int64).reshape(-1, n)
        want_j = generated(tensor, p, np.vstack([ra, rb]))
        want_m = intersection(ra, rb, n, p)
        if key(want_j, n) != key(node_rows[j], n):
            fails.append(f"{name}: join of nodes {a}, {b} is not the generated subalgebra")
        if key(want_m, n) != key(node_rows[m], n):
            fails.append(f"{name}: meet of nodes {a}, {b} is not the intersection")
    return fails


# ---------------------------------------------------------------------------
# Properties of the verdicts
# ---------------------------------------------------------------------------

def check_verdicts(name: str, verdicts: dict, solvable: bool) -> list[str]:
    """Implications the theory guarantees between verdict columns (bool
    arrays over the nodes), checked wherever both columns were computed."""
    fails = []
    implications = [("modular", "sm"), ("quasi_ideal", "sm"), ("ideal", "quasi_ideal"),
                    ("strong_ideal", "strong_quasi_ideal")]
    for lhs, rhs in implications:
        if lhs in verdicts and rhs in verdicts:
            bad = np.nonzero(verdicts[lhs] & ~verdicts[rhs])[0]
            if bad.size:
                fails.append(f"{name}: node {int(bad[0])} is {lhs} but not {rhs}")
    if solvable:
        cols = [c for c in ("modular", "sm", "quasi_ideal") if c in verdicts]
        for a, b in zip(cols, cols[1:]):
            bad = np.nonzero(verdicts[a] != verdicts[b])[0]
            if bad.size:
                fails.append(f"{name}: solvable, but {a} != {b} at node {int(bad[0])}")
    return fails


def is_solvable(tensor: np.ndarray, p: int) -> bool:
    """Derived series reaches zero, computed with this module's own spans."""
    n = tensor.shape[0]
    basis = np.eye(n, dtype=np.int64)
    while basis.shape[0]:
        nxt = rref(bracket_rows(tensor, p, basis, basis), p)
        if nxt.shape[0] == basis.shape[0]:
            return False
        basis = nxt
    return True
