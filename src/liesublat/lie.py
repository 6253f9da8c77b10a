"""Lie algebras over GF(p) given by structure constants.

An algebra of dimension n stores the full bracket tensor c[i][j][k]
(so [e_i, e_j] = sum_k c[i][j][k] e_k) with c alternating by
construction: only the entries for i < j are free, the rest are filled
in by alternation.  That guarantees [x, x] = 0 even in characteristic
two, where antisymmetry of the tensor alone would not.

The Jacobi identity is validated whenever an algebra is built; a tensor
that fails it is rejected with the violating basis triple named.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .linalg import (
    ResourceError,
    Subspace,
    UsageError,
    as_row,
    batch_rref,
    line_index,
    null_space,
    rref,
    solve_linear,
    _check_prime,
)

#: entries of int64 work per block in the batched ideal and quasi-ideal
#: kernels; blocks of bases (and of lines) are cut to stay near it
BLOCK_ENTRIES = 1 << 16


class JacobiError(ValueError):
    """Structure constants that violate the Jacobi identity."""


@dataclass(frozen=True)
class StructuralFlags:
    is_simple: bool
    is_almost_abelian: bool
    is_supersolvable: bool
    is_three_dim_split_simple: bool


def _jacobi_violation(tensor: np.ndarray, p: int) -> tuple[int, int, int] | None:
    """First basis triple i<j<k violating Jacobi, or None."""
    c = tensor.astype(np.int64)
    t = np.einsum("ijm,mkl->ijkl", c, c)
    jac = (t + t.transpose(1, 2, 0, 3) + t.transpose(2, 0, 1, 3)) % p
    n = tensor.shape[0]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                if jac[i, j, k].any():
                    return (i, j, k)
    return None


class LieAlgebra:
    """A finite-dimensional Lie algebra over GF(p), p in {2, 3, 5, 7}."""

    __slots__ = ("p", "dim", "basis_names", "tensor", "name", "_sha", "_line_brackets")

    def __init__(self, p: int, tensor: np.ndarray, basis_names=None, name=None,
                 _validate: bool = True):
        _check_prime(p)
        tensor = np.asarray(tensor, dtype=np.int64) % p
        n = tensor.shape[0]
        if tensor.shape != (n, n, n):
            raise UsageError("structure tensor must be n x n x n")
        if not 1 <= n <= 8:
            raise UsageError(f"dimension {n} outside supported range 1..8")
        if _validate:
            # alternation: zero diagonal and [e_j,e_i] = -[e_i,e_j]
            for i in range(n):
                if tensor[i, i].any():
                    raise UsageError(f"[e_{i}, e_{i}] must be zero")
            if ((tensor + tensor.transpose(1, 0, 2)) % p).any():
                raise UsageError("tensor is not alternating")
            bad = _jacobi_violation(tensor, p)
            if bad is not None:
                raise JacobiError(
                    f"Jacobi identity fails at basis triple {bad}"
                )
        self.p = p
        self.dim = n
        self.tensor = tensor.astype(np.uint8)
        self.tensor.setflags(write=False)
        self.basis_names = tuple(basis_names) if basis_names else tuple(
            f"e{i}" for i in range(n)
        )
        if len(self.basis_names) != n:
            raise UsageError("basis_names length must equal dim")
        self.name = name or f"lie({n},{p})"
        self._sha = None
        self._line_brackets = None

    # -- construction -----------------------------------------------------

    @classmethod
    def from_brackets(cls, p: int, dim: int, brackets, basis_names=None,
                      name=None) -> "LieAlgebra":
        """Build from sparse (i, j, coeffs) entries with i < j."""
        tensor = np.zeros((dim, dim, dim), dtype=np.int64)
        for i, j, coeffs in brackets:
            if not 0 <= i < j < dim:
                raise UsageError(f"bracket indices must satisfy 0 <= i < j < dim, got ({i},{j})")
            row = as_row(coeffs, p, dim)
            tensor[i, j] = row
            tensor[j, i] = (-row.astype(np.int64)) % p
        return cls(p, tensor, basis_names, name)

    def to_json(self) -> dict:
        brackets = []
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                if self.tensor[i, j].any():
                    brackets.append(
                        {"i": i, "j": j, "coeffs": [int(x) for x in self.tensor[i, j]]}
                    )
        return {
            "name": self.name,
            "p": self.p,
            "dim": self.dim,
            "basis": list(self.basis_names),
            "brackets": brackets,
        }

    @classmethod
    def from_json(cls, doc: dict) -> "LieAlgebra":
        return cls.from_brackets(
            doc["p"],
            doc["dim"],
            [(b["i"], b["j"], b["coeffs"]) for b in doc.get("brackets", [])],
            basis_names=doc.get("basis"),
            name=doc.get("name"),
        )

    def sha256(self) -> str:
        """Hash of the structural content (ignores name and basis labels)."""
        if self._sha is None:
            doc = self.to_json()
            payload = json.dumps(
                {"p": doc["p"], "dim": doc["dim"], "brackets": doc["brackets"]},
                sort_keys=True,
                separators=(",", ":"),
            )
            self._sha = hashlib.sha256(payload.encode()).hexdigest()
        return self._sha

    def __repr__(self):
        return f"LieAlgebra({self.name!r}, dim={self.dim}, p={self.p})"

    # -- basic spaces ------------------------------------------------------

    def zero_space(self) -> Subspace:
        return Subspace.zero(self.dim, self.p)

    def full_space(self) -> Subspace:
        return Subspace.full(self.dim, self.p)

    def _space(self, s) -> Subspace:
        if isinstance(s, Subspace):
            if s.n != self.dim or s.p != self.p:
                raise UsageError("subspace does not live in this algebra")
            return s
        return Subspace.from_vectors(list(s), self.dim, self.p)

    # -- bracket -----------------------------------------------------------

    def bracket(self, x, y) -> np.ndarray:
        xr = as_row(x, self.p, self.dim).astype(np.int64)
        yr = as_row(y, self.p, self.dim).astype(np.int64)
        out = np.einsum("i,j,ijl->l", xr, yr, self.tensor.astype(np.int64)) % self.p
        return out.astype(np.uint8)

    def ad(self, x) -> np.ndarray:
        """Matrix of ad x acting by v -> [x, v], rows indexed by v's basis."""
        xr = as_row(x, self.p, self.dim).astype(np.int64)
        # rows: image of e_j is [x, e_j]
        mat = np.einsum("i,ijl->jl", xr, self.tensor.astype(np.int64)) % self.p
        return mat.astype(np.uint8)

    def bracket_spaces(self, a, b) -> Subspace:
        """Span of all [x, y] with x in a, y in b (basis pairs suffice)."""
        sa, sb = self._space(a), self._space(b)
        if sa.dim == 0 or sb.dim == 0:
            return self.zero_space()
        prods = np.einsum(
            "ri,sj,ijl->rsl",
            sa.rows.astype(np.int64),
            sb.rows.astype(np.int64),
            self.tensor.astype(np.int64),
        ) % self.p
        return Subspace.from_vectors(prods.reshape(-1, self.dim), self.dim, self.p)

    def line_brackets(self) -> np.ndarray:
        """t[x, i, l] = [e_i, x]_l for the representative x of every line
        (`line_index` order); computed once per algebra, read-only."""
        if self._line_brackets is None:
            lines = line_index(self.dim, self.p)[0]
            t = np.einsum("xj,ijl->xil", lines, self.tensor.astype(np.int64)) % self.p
            t.setflags(write=False)
            self._line_brackets = t
        return self._line_brackets

    def is_subalgebra(self, s) -> bool:
        ss = self._space(s)
        if ss.dim <= 1:
            return True
        return self.bracket_spaces(ss, ss).is_subspace_of(ss)

    def is_ideal(self, s) -> bool:
        """[L, U] <= U: the one-base case of `ideal_mask`."""
        ss = self._space(s)
        return bool(self.ideal_mask(ss.rows[None], ss.pivots)[0])

    def ideal_mask(self, rows: np.ndarray, pivots: Sequence[int]) -> np.ndarray:
        """Per base of an (m, k, n) stack of RREF bases that share the
        pivot columns `pivots`: whether it spans an ideal.

        [e_i, u_r] in U is tested for one basis vector e_i at a time, each
        only on the bases that passed the earlier ones, in blocks of at
        most `BLOCK_ENTRIES` product entries.
        """
        m, k, n = rows.shape
        ok = np.ones(m, dtype=bool)
        if k in (0, n):
            return ok
        p, piv = self.p, list(pivots)
        c = self.tensor.astype(np.int64)
        step = max(1, BLOCK_ENTRIES // (k * n))
        for i in range(n):
            alive = np.nonzero(ok)[0]
            for start in range(0, len(alive), step):
                ids = alive[start : start + step]
                r = rows[ids].astype(np.int64)
                prod = r @ c[i] % p                                  # [e_i, u_r]
                ok[ids] = ~((prod - prod[:, :, piv] @ r) % p).any(axis=(1, 2))
        return ok

    def generated_subalgebra(self, seed) -> Subspace:
        """Smallest bracket-closed subspace containing the input."""
        if isinstance(seed, Subspace):
            span = self._space(seed)
        else:
            span = Subspace.from_vectors(list(seed), self.dim, self.p)
        while True:
            grown = span.sum(self.bracket_spaces(span, span))
            if grown.dim == span.dim:
                return span
            span = grown

    # -- series and classes --------------------------------------------------

    def derived_series(self, within=None) -> list[Subspace]:
        s = self.full_space() if within is None else self._space(within)
        chain = [s]
        while True:
            nxt = self.bracket_spaces(chain[-1], chain[-1])
            if nxt.dim == chain[-1].dim:
                break
            chain.append(nxt)
            if nxt.dim == 0:
                break
        return chain

    def lower_central_series(self, within=None) -> list[Subspace]:
        s = self.full_space() if within is None else self._space(within)
        chain = [s]
        while True:
            nxt = self.bracket_spaces(s, chain[-1])
            if nxt.dim == chain[-1].dim:
                break
            chain.append(nxt)
            if nxt.dim == 0:
                break
        return chain

    def series(self, kind: str, within=None) -> list[Subspace]:
        if kind == "derived":
            return self.derived_series(within)
        if kind == "lower_central":
            return self.lower_central_series(within)
        raise UsageError(f"unknown series kind {kind!r}")

    def l_infinity(self) -> Subspace:
        return self.lower_central_series()[-1]

    def _require_subalgebra(self, within):
        if within is not None:
            s = self._space(within)
            if not self.is_subalgebra(s):
                raise UsageError("expected a bracket-closed subspace")
            return s
        return None

    def is_solvable(self, within=None) -> bool:
        s = self._require_subalgebra(within)
        return self.derived_series(s)[-1].dim == 0

    def is_nilpotent(self, within=None) -> bool:
        s = self._require_subalgebra(within)
        return self.lower_central_series(s)[-1].dim == 0

    def is_abelian(self, within=None) -> bool:
        s = self._require_subalgebra(within)
        span = self.full_space() if s is None else s
        return self.bracket_spaces(span, span).dim == 0

    # -- centralisers, normalisers, cores ------------------------------------

    def center(self) -> Subspace:
        return self.centralizer(self.full_space())

    def centralizer(self, u) -> Subspace:
        """{x : [x, u] = 0 for all u in U}, by solving the linear system."""
        su = self._space(u)
        if su.dim == 0:
            return self.full_space()
        c = self.tensor.astype(np.int64)
        # constraint rows over x: for each basis u_r and output coord l
        m = np.einsum("ijl,rj->irl", c, su.rows.astype(np.int64)) % self.p
        mat = m.reshape(self.dim, -1)
        return Subspace.from_vectors(null_space(mat.T, self.p), self.dim, self.p)

    def _residual_matrix(self, s: Subspace) -> np.ndarray:
        """Matrix R with w @ R = 0 iff w lies in s (reduction residual)."""
        n = self.dim
        sel = np.zeros((n, s.dim), dtype=np.int64)
        for r, c in enumerate(s.pivots):
            sel[c, r] = 1
        return (np.eye(n, dtype=np.int64) - sel @ s.rows.astype(np.int64)) % self.p

    def normalizer(self, u) -> Subspace:
        """{x : [x, U] <= U}."""
        su = self._space(u)
        if su.dim == 0:
            return self.full_space()
        c = self.tensor.astype(np.int64)
        resid = self._residual_matrix(su)
        m = np.einsum("ijl,rj,lm->irm", c, su.rows.astype(np.int64), resid) % self.p
        mat = m.reshape(self.dim, -1)
        return Subspace.from_vectors(null_space(mat.T, self.p), self.dim, self.p)

    def core(self, u) -> Subspace:
        """Largest ideal of the algebra contained in U."""
        v = self._space(u)
        c = self.tensor.astype(np.int64)
        while v.dim > 0:
            resid = self._residual_matrix(v)
            # for x = t @ rows(v): [x, e_j] @ resid = 0 for all j
            m = np.einsum("ri,ijl,lm->rjm", v.rows.astype(np.int64), c, resid) % self.p
            mat = m.reshape(v.dim, -1)
            t = null_space(mat.T, self.p)
            if t.shape[0] == v.dim:
                return v
            v = Subspace.from_vectors(
                t.astype(np.int64) @ v.rows.astype(np.int64) % self.p,
                self.dim,
                self.p,
            )
        return v

    def ideal_closure(self, seed) -> Subspace:
        """Smallest ideal containing the given vectors or subspace."""
        v = seed if isinstance(seed, Subspace) else Subspace.from_vectors(
            list(seed), self.dim, self.p
        )
        full = self.full_space()
        while True:
            grown = v.sum(self.bracket_spaces(full, v))
            if grown.dim == v.dim:
                return v
            v = grown

    # -- quotients and products ----------------------------------------------

    def quotient(self, ideal) -> tuple["LieAlgebra", np.ndarray]:
        """Quotient by an ideal plus the projection matrix.

        The projection maps x to x @ proj; representatives are the
        standard unit vectors at the ideal's non-pivot columns.
        """
        i_space = self._space(ideal)
        if not self.is_ideal(i_space):
            raise UsageError("quotient requires an ideal")
        n, p = self.dim, self.p
        nonpiv = [c for c in range(n) if c not in i_space.pivots]
        m = len(nonpiv)
        if m == 0:
            raise UsageError("quotient by the whole algebra is empty")
        resid = self._residual_matrix(i_space)
        proj = resid[:, nonpiv]  # n x m, x @ proj = coordinates mod the ideal
        reps = np.zeros((m, n), dtype=np.int64)
        for a, c in enumerate(nonpiv):
            reps[a, c] = 1
        tensor = np.zeros((m, m, m), dtype=np.int64)
        for a in range(m):
            for b in range(a + 1, m):
                w = self.bracket(reps[a], reps[b]).astype(np.int64)
                img = w @ proj % p
                tensor[a, b] = img
                tensor[b, a] = (-img) % p
        names = tuple(self.basis_names[c] for c in nonpiv)
        quot = LieAlgebra(p, tensor, names, name=f"{self.name}/dim{i_space.dim}")
        return quot, (proj % p).astype(np.uint8)

    # -- recognisers ---------------------------------------------------------

    def is_simple(self) -> bool:
        """No proper nonzero ideals and nonabelian (dims 0, 1 excluded).

        A simple algebra is perfect, so [L, L] != L (abelian algebras
        included) settles it at once.  Otherwise the ideal closures of all
        lines grow together, a block of lines at a time with one
        `batch_rref` per round: a closure that stops growing below dim L
        is a proper nonzero ideal, and the first one found ends the test.
        """
        n, p = self.dim, self.p
        full = self.full_space()
        if self.bracket_spaces(full, full).dim != n:
            return False
        c = self.tensor.astype(np.int64)
        lines = line_index(n, p)[0]
        step = max(1, BLOCK_ENTRIES // ((n + n * n) * n))
        for start in range(0, len(lines), step):
            block = lines[start : start + step]
            span = np.zeros((len(block), n, n), dtype=np.int64)
            span[:, 0] = block
            rank = np.ones(len(block), dtype=np.int64)
            while len(span):
                prods = np.einsum("mrj,ijl->mirl", span, c).reshape(len(span), n * n, n)
                grown, new_rank = batch_rref(np.concatenate([span, prods], axis=1), p)
                if (new_rank == rank).any():
                    return False
                left = new_rank < n
                span, rank = grown[left, :n].astype(np.int64), new_rank[left]
        return True

    def acts_as_scalar(self, u, space: Subspace) -> int | None:
        """The scalar c with [u, w] = c w for all w in the space, or None."""
        if space.dim == 0:
            return 0
        first = self.bracket(u, space.rows[0])
        # candidate scalar from the first basis vector
        cand = None
        r0 = space.rows[0]
        j = int(np.argmax(r0 != 0))
        if r0[j] == 0:
            return None
        cand = int(first[j]) * pow(int(r0[j]), self.p - 2, self.p) % self.p
        for w in space.rows:
            if ((self.bracket(u, w).astype(np.int64) - cand * w.astype(np.int64)) % self.p).any():
                return None
        return cand

    def almost_abelian_generator(self) -> np.ndarray | None:
        """An x with ad x = identity on L^2, if the algebra is almost abelian."""
        der = self.bracket_spaces(self.full_space(), self.full_space())
        if der.dim != self.dim - 1:
            return None
        if self.bracket_spaces(der, der).dim != 0:
            return None
        c = self.tensor.astype(np.int64)
        # solve [x, b_r] = b_r for all rows b_r of L^2
        m = np.einsum("ijl,rj->irl", c, der.rows.astype(np.int64)) % self.p
        a = m.reshape(self.dim, -1).T
        b = der.rows.reshape(-1)
        x = solve_linear(a, b, self.p)
        if x is None:
            return None
        if der.contains(x):
            return None
        return x

    def is_almost_abelian(self) -> bool:
        """L = L^2 + Fx with L^2 abelian of codimension one and ad x = id."""
        if self.dim == 1:
            return True
        return self.almost_abelian_generator() is not None

    def is_supersolvable(self) -> bool:
        return _supersolvable(self)

    def is_three_dim_split_simple(self) -> bool:
        # over GF(p) every three-dimensional simple algebra is split,
        # so simplicity in dimension three is the whole test
        return self.dim == 3 and self.is_simple()

    def structural_flags(self) -> StructuralFlags:
        simple = self.is_simple()
        return StructuralFlags(
            is_simple=simple,
            is_almost_abelian=self.is_almost_abelian(),
            is_supersolvable=self.is_supersolvable(),
            # as in is_three_dim_split_simple, from the one simplicity test
            is_three_dim_split_simple=self.dim == 3 and simple,
        )

    def restricted_to(self, space) -> "LieAlgebra":
        """A bracket-closed subspace re-expressed as an algebra on its
        own basis (coefficients read off at the RREF pivot columns)."""
        s = self._space(space)
        if not self.is_subalgebra(s):
            raise UsageError("restriction requires a bracket-closed subspace")
        k = s.dim
        if k == 0:
            raise UsageError("cannot restrict to the zero subspace")
        rows = s.rows.astype(np.int64)
        t = np.zeros((k, k, k), dtype=np.int64)
        for a in range(k):
            for b in range(a + 1, k):
                w = self.bracket(rows[a], rows[b])
                t[a, b] = [int(w[c]) for c in s.pivots]
                t[b, a] = (-t[a, b]) % self.p
        return LieAlgebra(self.p, t, name=f"{self.name}|dim{k}")


_SUPERSOLVABLE_MEMO: dict = {}


def _supersolvable(L: LieAlgebra) -> bool:
    """Recursive search for a flag of ideals with one-dimensional steps."""
    key = (L.p, L.dim, L.tensor.tobytes())
    hit = _SUPERSOLVABLE_MEMO.get(key)
    if hit is not None:
        return hit
    if L.dim == 1:
        _SUPERSOLVABLE_MEMO[key] = True
        return True
    if not L.is_solvable():
        _SUPERSOLVABLE_MEMO[key] = False
        return False
    result = False
    for x in L.full_space().line_reps():
        line = Subspace.from_vectors([x], L.dim, L.p)
        if L.is_ideal(line):
            quot, _ = L.quotient(line)
            if _supersolvable(quot):
                result = True
                break
    _SUPERSOLVABLE_MEMO[key] = result
    return result


def new_algebra(p: int, dim: int, brackets, basis_names=None, name=None) -> LieAlgebra:
    """Validated algebra from sparse (i, j, coefficient-vector) entries."""
    return LieAlgebra.from_brackets(p, dim, brackets, basis_names, name)


def direct_sum(a: LieAlgebra, b: LieAlgebra, name=None) -> LieAlgebra:
    if a.p != b.p:
        raise UsageError("direct sum requires algebras over the same field")
    n = a.dim + b.dim
    tensor = np.zeros((n, n, n), dtype=np.int64)
    tensor[: a.dim, : a.dim, : a.dim] = a.tensor
    tensor[a.dim :, a.dim :, a.dim :] = b.tensor
    names = tuple(a.basis_names) + tuple(f"{nm}'" for nm in b.basis_names)
    return LieAlgebra(a.p, tensor, names, name or f"{a.name}(+){b.name}")


def is_derivation(L: LieAlgebra, d) -> bool:
    """Check D[x,y] = [Dx,y] + [x,Dy] on basis pairs; rows of d are images."""
    dm = np.asarray(d, dtype=np.int64) % L.p
    if dm.shape != (L.dim, L.dim):
        raise UsageError("derivation matrix must be dim x dim")
    c = L.tensor.astype(np.int64)
    lhs = np.einsum("ijm,ml->ijl", c, dm) % L.p
    rhs = (np.einsum("im,mjl->ijl", dm, c) + np.einsum("jm,iml->ijl", dm, c)) % L.p
    return not ((lhs - rhs) % L.p).any()


def derivation_space(L: LieAlgebra) -> np.ndarray:
    """Basis of the derivation algebra, rows = flattened dim x dim matrices."""
    n, p = L.dim, L.p
    c = L.tensor.astype(np.int64)
    # unknowns d[m, l]; constraints indexed by (i, j, l) with i < j
    rows = []
    for i in range(n):
        for j in range(i + 1, n):
            for l in range(n):
                coeff = np.zeros((n, n), dtype=np.int64)
                # lhs: sum_m c[i,j,m] d[m,l]
                coeff[:, l] += c[i, j, :]
                # rhs: sum_m d[i,m] c[m,j,l] + d[j,m] c[i,m,l]
                coeff[i, :] -= c[:, j, l]
                coeff[j, :] -= c[i, :, l]
                rows.append(coeff.reshape(-1) % p)
    if not rows:
        return np.eye(n * n, dtype=np.uint8)
    return null_space(np.stack(rows), p)


def semidirect_extend(L: LieAlgebra, d, name=None) -> LieAlgebra:
    """Adjoin a generator x acting on L by the derivation d ([x, v] = v @ d)."""
    dm = np.asarray(d, dtype=np.int64) % L.p
    if not is_derivation(L, dm):
        raise UsageError("matrix is not a derivation of the algebra")
    n = L.dim
    tensor = np.zeros((n + 1, n + 1, n + 1), dtype=np.int64)
    tensor[:n, :n, :n] = L.tensor
    for i in range(n):
        tensor[i, n, :n] = (-dm[i]) % L.p
        tensor[n, i, :n] = dm[i]
    names = tuple(L.basis_names) + ("x",)
    return LieAlgebra(L.p, tensor, names, name or f"{L.name}:x")
