"""Named verification suites over catalog fixtures, exhaustively
enumerated small tensor universes, and seeded random solvable samples.

A suite is one claims function, registered in `SUITES` by the `_suite`
decorator with its description, its universe (a callable on the
`HarnessContext`, usually one of its memoised universe methods) and
whether psl3's analysis is appended when the config includes psl3.
`run_suite` alone fetches the context, the universe and its analyses,
starts the clock and builds the `SuiteReport`; the claims function
reads the analyses and appends its claims with `_claim` (the psl3 suite
also records stage timings and, past the time budget, `truncated`).
Reports are deterministic for a fixed config and seed; `report_digest`
hashes everything except wall-clock timings and the config fields that
only change how a suite runs (`RUN_FIELDS`).

A claim's status is "pass" or "fail" when the underlying statement is
asserted, and "reported" for computations whose outcome is recorded but
deliberately not asserted (finite-field cases the theory leaves open).
"""

from __future__ import annotations

import functools
import hashlib
import json
import time
from collections.abc import Callable
from dataclasses import dataclass, field, asdict

import numpy as np

from . import predicates as P
from .catalog import (
    catalog_build,
    enumerate_structures,
    psl3_char3,
    random_solvable,
    simple3_char2,
)
from .lattice import SubalgebraLattice
from .lie import LieAlgebra
from .linalg import Subspace, UsageError, count_subspaces, enumerate_subspaces


@dataclass(frozen=True)
class HarnessConfig:
    seed: int = 1
    random_per_cell: int = 25
    random_dims: tuple = (2, 3, 4, 5)
    random_primes: tuple = (2, 3, 5)
    enum_cells: tuple = ((1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3))
    include_psl3: bool = True
    max_subspaces: int = 4_000_000
    time_budget_secs: float = 600.0
    threads: int = 1

    def to_json(self) -> dict:
        doc = asdict(self)
        doc["random_dims"] = list(self.random_dims)
        doc["random_primes"] = list(self.random_primes)
        doc["enum_cells"] = [list(c) for c in self.enum_cells]
        return doc


DEFAULT_CONFIG = HarnessConfig()

#: config fields that change how a suite runs but not what it finds; a
#: report shows them beside its timings, outside the digest (a run cut
#: short by the time budget says so in `truncated`, which is hashed)
RUN_FIELDS = ("threads", "time_budget_secs")

#: results the suites deliberately do not chase: their hypotheses have
#: no instances over the finite prime fields this library supports.
OMITTED_TOPICS = {
    "toral-rank-and-restricted-structure": "needs an algebraically closed base field",
    "mu-algebra-witnesses": "mu-algebras do not exist over finite fields",
    "non-split-simple-3dim-ambients": "every 3-dim simple algebra over GF(p) is split",
    "split-solvable-sm-classification": "needs infinite perfect fields and Jordan decompositions",
    "pairwise-non-split-generation": "no finite-field algebra has all pairs generating non-split simples",
}


# ---------------------------------------------------------------------------
# Per-algebra analysis (computed once, shared by all suites)
# ---------------------------------------------------------------------------

class AlgebraAnalysis:
    """Everything the suites need about one algebra, computed once.

    Every algebra gets the stages that read only the structure tensor
    and the line incidence: quasi-ideal and ideal inventories (staged
    batch kernels over the nodes of each pivot pattern, see
    `predicates`), the mu test, strong flags (read from those
    inventories at the lines), atom scalars, the maximal subalgebras
    (`maxima`, `maximal_top`) with the Frattini subalgebra, and
    one-and-a-half generation.  The stages that
    read the modular and sm inventories or the dense tables run only
    when the lattice has tables (at most `TABLE_NODE_LIMIT` nodes);
    without them (`heavy`, psl3) `modular` and `sm` are not set and
    `core_free`, `local` and `star` stay empty.  The tables are released
    after those stages, at every size: nothing reads them afterwards.
    `analysis_secs` is the wall time of the whole analysis.
    """

    def __init__(self, algebra: LieAlgebra, config: HarnessConfig):
        self.algebra = algebra
        self.name = algebra.name
        start = t0 = time.monotonic()
        lat = SubalgebraLattice.build(
            algebra, budget=config.max_subspaces,
            threads=config.threads if config.threads > 1 else None,
        )
        self.build_secs = time.monotonic() - t0
        self.lat = lat
        self.n_nodes = len(lat)
        self.heavy = not lat.has_tables()
        self.solvable = algebra.is_solvable()
        self.flags = algebra.structural_flags()
        self.derived = algebra.bracket_spaces(algebra.full_space(), algebra.full_space())
        self.quasi, _ = P.quasi_ideal_inventory(lat)
        self.ideal = P.ideal_inventory(lat)
        self.mu = P.is_mu_algebra(lat)
        self.line_ids = P.line_node_ids(lat)
        self._strong_flags()
        self._atom_scalars()
        t0 = time.monotonic()
        self.maxima = lat.maximal_subalgebras()
        self.maximal_secs = time.monotonic() - t0
        self.maximal_top = np.zeros(self.n_nodes, dtype=bool)
        self.maximal_top[self.maxima] = True
        self.frattini_id = functools.reduce(lat.meet, self.maxima)
        self.gen15 = P.has_one_and_half_generation(lat).verdict
        self.core_free: dict[int, bool] = {}
        self.local: dict[int, dict] = {}
        self.star: dict[int, bool] = {}
        if lat.has_tables():
            self.modular, _ = P.modular_inventory(lat)
            self.um, self.lm, _ = P.sm_inventory(lat)
            self.sm = self.um & self.lm
            self._core_free_sm()
            self._local_lemma(lat.tables())
            self._modular_star_checks()
            lat._tables = None
        self.quasi_not_sm = self._quasi_not_sm()
        self.analysis_secs = time.monotonic() - start

    def _strong_flags(self):
        """A node is a strong (quasi-)ideal iff it contains no line that
        fails to be an ideal (quasi-ideal): its incidence row against
        the bad lines of the ideal (quasi-ideal) inventory."""
        self.strong_ideal = P.strong_inventory(self.lat, self.ideal)
        self.strong_quasi = P.strong_inventory(self.lat, self.quasi)

    def _atom_scalars(self):
        # action of each atom's representative on the derived subalgebra
        self.atom_scalar: dict[int, int | None] = {}
        for i in self.line_ids:
            rep = self.lat.nodes[int(i)].rows[0]
            self.atom_scalar[int(i)] = self.algebra.acts_as_scalar(rep, self.derived)

    def _core_free_sm(self):
        for u in np.nonzero(self.sm)[0]:
            self.core_free[int(u)] = (
                self.algebra.core(self.lat.nodes[int(u)]).dim == 0
            )

    def _local_lemma(self, t):
        """For every proper sm node U and every x outside it: U is
        maximal in <U, x>, and modular inside the lattice of <U, x>."""
        lat = self.lat
        jt, mx = t.join, t.maximal
        lines = self.line_ids
        for u in np.nonzero(self.sm)[0]:
            u = int(u)
            if u == lat.top_id:
                continue
            jv = jt[u, lines]
            vs = np.unique(jv[jv != u])  # distinct <U, x> over lines x outside U
            max_ok = bool(mx[u, vs].all()) if vs.size else True
            entry = {"maximal_ok": max_ok, "joins": int(vs.size)}
            if not max_ok:
                entry["bad_join"] = P.node_rows(lat, int(vs[np.argmin(mx[u, vs])]))
            if self.modular[u]:
                entry["modular_ok"] = True
                entry["modular_mode"] = "global"
            else:
                mode_ok = True
                for v in vs:
                    ids = np.nonzero(t.contain[:, int(v)])[0]
                    rep = P.is_modular(lat, u, within=ids)
                    if not rep.verdict:
                        mode_ok = False
                        entry["bad_join"] = P.node_rows(lat, int(v))
                        entry["witness"] = rep.witness
                        break
                entry["modular_ok"] = mode_ok
                entry["modular_mode"] = "induced"
            self.local[u] = entry

    def _modular_star_checks(self):
        """Prop-style check: a proper quasi-ideal that is modular* must
        be a strong quasi-ideal, so modular* only needs computing for
        quasi-ideals that fail strong quasi-ideality."""
        for u in np.nonzero(self.quasi & ~self.strong_quasi)[0]:
            u = int(u)
            if u == self.lat.top_id:
                continue
            self.star[u] = P.is_modular_star(self.lat, u).verdict

    def _quasi_not_sm(self) -> int | None:
        """The first proper quasi-ideal that is not semi-modular, if any:
        read from the sm inventory, or scanned node by node without one."""
        lat = self.lat
        for u in np.nonzero(self.quasi)[0]:
            u = int(u)
            if u in (lat.zero_id, lat.top_id):
                continue
            if not (P.is_semi_modular(lat, u).verdict if self.heavy else self.sm[u]):
                return u
        return None


def _universe(build):
    """A universe method, built once per context and memoised in
    `_universes` under the method's name."""
    @functools.wraps(build)
    def memo(self) -> list[LieAlgebra]:
        if build.__name__ not in self._universes:
            self._universes[build.__name__] = build(self)
        return self._universes[build.__name__]
    return memo


class HarnessContext:
    """Shared, memoised universe of analysed algebras for one config.
    Analyses are keyed by name and structure tensor, so two algebras
    that share a name but not a tensor get an analysis each."""

    def __init__(self, config: HarnessConfig):
        self.config = config
        self._analyses: dict[tuple[str, str], AlgebraAnalysis] = {}
        self._universes: dict[str, list[LieAlgebra]] = {}

    def analysis(self, algebra: LieAlgebra) -> AlgebraAnalysis:
        key = (algebra.name, algebra.sha256())
        got = self._analyses.get(key)
        if got is None:
            got = AlgebraAnalysis(algebra, self.config)
            self._analyses[key] = got
        return got

    def analyses(self, algebras) -> list[AlgebraAnalysis]:
        # analysis is Python-heavy, so the per-algebra map stays serial;
        # worker threads act inside the numpy lattice sweeps instead
        return [self.analysis(a) for a in algebras]

    # -- universes -----------------------------------------------------------

    @_universe
    def catalog_solvables(self):
        out = []
        for p in (2, 3, 5, 7):
            for d in (1, 2, 3):
                out.append(catalog_build("abelian", dim=d, p=p))
            out.append(catalog_build("nonabelian2", p=p))
            out.append(catalog_build("heisenberg", p=p))
            out.append(catalog_build("almost_abelian", dim=3, p=p))
            out.append(catalog_build("upper_triangular", n=2, p=p))
        for p in (2, 3):
            out.append(catalog_build("abelian", dim=4, p=p))
            out.append(catalog_build("strictly_upper", n=4, p=p))
        for p in (2, 3, 5):
            out.append(catalog_build("almost_abelian", dim=4, p=p))
        out.append(catalog_build("upper_triangular", n=3, p=2))
        return out

    @_universe
    def enumerated(self):
        return [a for d, p in self.config.enum_cells for a in enumerate_structures(d, p)]

    @_universe
    def randoms(self):
        out = []
        for p in self.config.random_primes:
            for d in self.config.random_dims:
                for i in range(self.config.random_per_cell):
                    seed = int(
                        np.random.SeedSequence([self.config.seed, d, p, i]).generate_state(1)[0]
                    )
                    alg = random_solvable(d, p, seed)
                    alg.name = f"random({d},{p},{i})"
                    out.append(alg)
        return out

    @_universe
    def solvable_universe(self):
        solvable = [a for a in self.enumerated() if a.is_solvable()]
        return self.catalog_solvables() + solvable + self.randoms()

    @_universe
    def nonsolvable_fixtures(self):
        return [
            catalog_build("K"),
            catalog_build("sl2", p=3),
            catalog_build("sl2", p=5),
            catalog_build("sl2", p=7),
            catalog_build("witt", p=5),
        ]

    @_universe
    def full_universe(self):
        return (self.catalog_solvables() + self.enumerated() + self.randoms()
                + self.nonsolvable_fixtures())

    @_universe
    def p57_universe(self):
        return [a for a in self.full_universe() if a.p in (5, 7)]


_CONTEXTS: dict[HarnessConfig, HarnessContext] = {}


def context(config: HarnessConfig | None = None) -> HarnessContext:
    config = config or DEFAULT_CONFIG
    ctx = _CONTEXTS.get(config)
    if ctx is None:
        ctx = HarnessContext(config)
        _CONTEXTS[config] = ctx
    return ctx


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

@dataclass
class SuiteReport:
    suite: str
    universe: dict
    assertions: list[dict]
    timings: dict
    truncated: str | None = None
    run: dict = field(default_factory=dict)   # the config's RUN_FIELDS

    @property
    def passed(self) -> bool:
        return all(a["status"] != "fail" for a in self.assertions)

    def to_json(self, include_timings: bool = True) -> dict:
        doc = {
            "suite": self.suite,
            "universe": self.universe,
            "assertions": self.assertions,
            "truncated": self.truncated,
        }
        if include_timings:
            doc["timings"] = self.timings
            doc["run"] = self.run
        return doc


def report_to_json(report: SuiteReport) -> dict:
    return report.to_json(include_timings=True)


def report_digest(report: SuiteReport) -> str:
    payload = json.dumps(
        report.to_json(include_timings=False), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode()).hexdigest()


def _universe_doc(config, algebras) -> dict:
    return {
        "description": f"{len(algebras)} algebras",
        "algebras": sorted(a.name for a in algebras),
        "seed": config.seed,
        "config": {k: v for k, v in config.to_json().items() if k not in RUN_FIELDS},
    }


def _claim(report, name, ok, details=None, status=None):
    report.assertions.append(
        {
            "claim": name,
            "status": status or ("pass" if ok else "fail"),
            "details": details or {},
        }
    )


def _node(an, u, **extra) -> dict:
    """A violation entry: the algebra, the basis rows of its node u, and `extra`."""
    return {"algebra": an.name, "node": P.node_rows(an.lat, u), **extra}


# ---------------------------------------------------------------------------
# Suites
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Suite:
    claims: Callable        # (report, analyses, deadline) -> None
    description: str
    universe: Callable      # HarnessContext -> list[LieAlgebra]
    psl3: bool = False      # append psl3's analysis when the config includes it


SUITES: dict[str, Suite] = {}


def _suite(name, description, universe, psl3=False):
    """Register the decorated claims function as the suite `name`."""
    def register(claims):
        SUITES[name] = Suite(claims, description, universe, psl3)
        return claims
    return register


@_suite("solvable-equivalence",
        "modular, semi-modular and quasi-ideal coincide on solvable algebras",
        HarnessContext.solvable_universe)
def _solvable_equivalence(report, analyses, deadline):
    pairs = {
        "modular-iff-sm": lambda an: an.modular != an.sm,
        "sm-iff-quasi-ideal": lambda an: an.sm != an.quasi,
        "modular-iff-quasi-ideal": lambda an: an.modular != an.quasi,
    }
    nodes = sum(an.n_nodes for an in analyses)
    for name, mismatch in pairs.items():
        bad = [_node(an, int(m.argmax())) for an in analyses if (m := mismatch(an)).any()]
        _claim(
            report,
            name,
            not bad,
            {"algebras": len(analyses), "nodes_checked": nodes, "violations": sorted(bad, key=str)},
        )


@_suite("solvable-corefree",
        "core-free sm subalgebras of solvable algebras are atoms of almost abelian algebras",
        HarnessContext.solvable_universe)
def _solvable_corefree(report, analyses, deadline):
    bad = []
    checked = 0
    for an in analyses:
        for u in np.nonzero(an.sm)[0]:
            u = int(u)
            d = int(an.lat.dims[u])
            if u == an.lat.top_id or d == 0 or not an.core_free.get(u, False):
                continue
            checked += 1
            if d != 1 or not an.flags.is_almost_abelian:
                bad.append(_node(an, u))
    _claim(report, "corefree-sm-is-atom-of-almost-abelian", not bad,
           {"corefree_sm_nodes": checked, "violations": sorted(bad, key=str)})


@_suite("psl3",
        "psl3 over GF(3): triple subalgebras and absence of maximal sm subalgebras",
        lambda ctx: [psl3_char3()])
def _psl3(report, analyses, deadline):
    an = analyses[0]
    lat = an.lat
    timings = report.timings
    timings["analysis_secs"] = an.analysis_secs
    timings["enumeration_secs"] = an.build_secs
    timings["candidates"] = count_subspaces(7, 3)
    timings["throughput_per_sec"] = (
        timings["candidates"] / an.build_secs if an.build_secs else None
    )

    _claim(
        report,
        "node-count",
        True,
        {"nodes": an.n_nodes, "by_dim": {str(k): v for k, v in sorted(lat.counts_by_dim().items())}},
        status="reported",
    )

    # the nine opposite-sign triples span{e0, ei, ej}
    t0 = time.monotonic()
    eye = np.eye(7, dtype=np.int64)
    slot = lambda s: s + 3
    b_ids = {}
    missing = []
    for i in range(1, 4):
        for j in range(-3, 0):
            s = Subspace.from_vectors([eye[slot(0)], eye[slot(i)], eye[slot(j)]], 7, 3)
            try:
                b_ids[(i, j)] = lat.node_id(s)
            except UsageError:
                missing.append([i, j])
    _claim(report, "opposite-sign-triples-are-subalgebras", not missing,
           {"count": len(b_ids), "missing": missing})

    two_dim_not_maximal = []
    non_2dim_maximal = []
    for (i, j), bid in sorted(b_ids.items()):
        span2 = Subspace.from_vectors([eye[slot(0)], eye[slot(i)]], 7, 3)
        if not lat.is_maximal_in(lat.node_id(span2), bid):
            two_dim_not_maximal.append([i, j])
        for m in lat.induced_ids(bid):
            m = int(m)
            if m == bid:
                continue
            if lat.is_maximal_in(m, bid) and int(lat.dims[m]) != 2:
                non_2dim_maximal.append(
                    {"pair": [i, j], "node": P.node_rows(lat, m), "dim": int(lat.dims[m])}
                )
    _claim(report, "two-dim-span-maximal-in-triple", not two_dim_not_maximal,
           {"failures": two_dim_not_maximal})
    # over GF(3) this one is genuinely false: the triple algebras contain
    # maximal one-dimensional subalgebras spanned by elements whose adjoint
    # action has an irreducible quadratic factor (non-split tori)
    _claim(report, "triple-maximal-subalgebras-all-two-dim", not non_2dim_maximal,
           {"counterexamples": sorted(non_2dim_maximal, key=str)[:4],
            "count": len(non_2dim_maximal)})
    timings["structure_secs"] = time.monotonic() - t0
    if time.monotonic() > deadline:
        report.truncated = "time budget exceeded after structure checks"
        return

    maxima = an.maxima
    timings["maximal_secs"] = an.maximal_secs
    _claim(report, "maximal-count", True,
           {"count": len(maxima), "dims": sorted({int(lat.dims[m]) for m in maxima})},
           status="reported")

    # no maximal subalgebra is semi-modular: every maximal M is um for free
    # (all joins with outside nodes hit the top, which covers M), so refute
    # lower modularity: some B not inside M has M meet B non-maximal in B
    t0 = time.monotonic()
    unrefuted = []
    for M in maxima:
        witness = None
        for B in range(len(lat.nodes)):
            mid = lat.meet(M, B)
            if mid != B and not lat.is_maximal_in(mid, B):  # mid == B: B inside M
                witness = B
                break
        if witness is None:
            unrefuted.append(P.node_rows(lat, M))
    timings["refutation_secs"] = time.monotonic() - t0
    _claim(report, "no-maximal-sm", not unrefuted,
           {"maximal_checked": len(maxima), "sm_maximal": unrefuted})


@_suite("K-example",
        "the three-dimensional simple algebra over GF(2) and its distinguished line",
        lambda ctx: [simple3_char2()])
def _k_example(report, analyses, deadline):
    an = analyses[0]
    algebra, lat = an.algebra, an.lat

    # independent oracle: closure under the bracket on all vector pairs
    expected = []
    for s in enumerate_subspaces(3, 2):
        vecs = list(s.vectors())
        if all(s.contains(algebra.bracket(x, y)) for x in vecs for y in vecs):
            expected.append(s.key)
    _claim(
        report,
        "lattice-is-the-12-predicted-nodes",
        [s.key for s in lat.nodes] == expected and len(expected) == 12,
        {"nodes": an.n_nodes, "by_dim": {str(k): v for k, v in sorted(lat.counts_by_dim().items())}},
    )

    fc = lat.node_id(Subspace.from_vectors([(0, 0, 1)], 3, 2))
    quasi_atoms = [int(i) for i in an.line_ids if an.quasi[i]]
    _claim(report, "unique-one-dim-quasi-ideal-is-Fc", quasi_atoms == [fc],
           {"quasi_atoms": [P.node_rows(lat, i) for i in quasi_atoms]})
    _claim(report, "simple", an.flags.is_simple, {})
    _claim(report, "Fc-is-core-free", algebra.core(lat.nodes[fc]).dim == 0, {})
    _claim(report, "frattini-is-Fc", an.frattini_id == fc,
           {"frattini": P.node_rows(lat, an.frattini_id)})

    # the Frattini property in person: two vectors that are independent
    # modulo Fc (so they generate together with the non-generator line)
    # already generate the whole algebra on their own
    bad_pairs = []
    pair_count = 0
    vecs = [v for v in algebra.full_space().vectors() if v.any()]
    for x in vecs:
        for y in vecs:
            if Subspace.from_vectors([x, y, (0, 0, 1)], 3, 2).dim != 3:
                continue
            pair_count += 1
            if algebra.generated_subalgebra([x, y]).dim != 3:
                bad_pairs.append([x.tolist(), y.tolist()])
    _claim(report, "pairs-independent-mod-Fc-generate", not bad_pairs,
           {"pairs": pair_count, "failures": bad_pairs})

    # characteristic two leaves the sm verdict for Fc outside the asserted
    # theory: computed and reported, never asserted
    _claim(report, "sm-verdict-of-Fc", True,
           {"semi_modular": bool(an.sm[fc]), "modular": bool(an.modular[fc])},
           status="reported")


@_suite("sm-implies-local",
        "proper sm subalgebras are maximal and modular in every join with an outside line",
        lambda ctx: ctx.solvable_universe() + ctx.nonsolvable_fixtures(), psl3=True)
def _sm_implies_local(report, analyses, deadline):
    bad_max = []
    bad_mod = []
    quasi_not_sm = []
    checked = 0
    for an in analyses:
        # quasi-ideals are always semi-modular, solvable or not
        if an.quasi_not_sm is not None:
            quasi_not_sm.append(_node(an, an.quasi_not_sm))
        for u, entry in an.local.items():
            checked += 1
            if not entry["maximal_ok"]:
                bad_max.append(_node(an, u, join=entry.get("bad_join")))
            if not entry["modular_ok"]:
                bad_mod.append(_node(an, u, join=entry.get("bad_join"),
                                     witness=entry.get("witness")))
    _claim(report, "proper-sm-node-maximal-in-every-join-with-a-line", not bad_max,
           {"sm_nodes_checked": checked, "violations": sorted(bad_max, key=str)})
    _claim(report, "proper-sm-node-modular-in-every-such-join", not bad_mod,
           {"violations": sorted(bad_mod, key=str)})
    _claim(report, "quasi-ideals-are-semi-modular", not quasi_not_sm,
           {"violations": sorted(quasi_not_sm, key=str)})


def _is_K_case(an, u) -> bool:
    """The documented recogniser for the exceptional branch: GF(2),
    three-dimensional simple, and the node is the one-dim Frattini
    subalgebra (necessarily the unique one-dimensional quasi-ideal)."""
    if an.algebra.p != 2 or an.algebra.dim != 3 or not an.flags.is_simple:
        return False
    return u == an.frattini_id and int(an.lat.dims[u]) == 1


@_suite("strong-quasi-ideal",
        "strong quasi-ideal trichotomy and the modular* strengthening",
        HarnessContext.full_universe, psl3=True)
def _strong_quasi_ideal(report, analyses, deadline):
    tri_bad = []
    star_bad = []
    strong_count = 0
    k_branch_hits = 0
    for an in analyses:
        for u in np.nonzero(an.strong_quasi)[0]:
            u = int(u)
            if an.lat.dims[u] == 0 or u == an.lat.top_id:
                continue
            strong_count += 1
            if an.strong_ideal[u] or an.flags.is_almost_abelian:
                continue
            if _is_K_case(an, u):
                k_branch_hits += 1
                continue
            tri_bad.append(_node(an, u))
        # a proper quasi-ideal that is modular* must be a strong quasi-ideal
        star_bad += [_node(an, u) for u, star in an.star.items() if star and not an.strong_quasi[u]]
    _claim(
        report,
        "strong-quasi-ideal-trichotomy",
        not tri_bad,
        {
            "strong_quasi_nodes": strong_count,
            "exceptional_branch_hits": k_branch_hits,
            "violations": sorted(tri_bad, key=str),
        },
    )
    _claim(report, "modular-star-quasi-ideal-is-strong", not star_bad,
           {"violations": sorted(star_bad, key=str)})


@_suite("sm-atoms", "one-dimensional sm subalgebras over GF(5) and GF(7)",
        HarnessContext.full_universe)
def _sm_atoms(report, analyses, deadline):
    fwd_bad = []
    back_bad = []
    char23_exceptions = []
    atoms_checked = 0
    mu_hits = [an.name for an in analyses if an.mu]
    for an in analyses:
        asserted = an.algebra.p in (5, 7)
        aa = an.flags.is_almost_abelian
        for i in an.line_ids:
            u = int(i)
            if u == an.lat.top_id:
                continue
            scalar = an.atom_scalar[u]
            case_i = bool(an.ideal[u])
            case_ii = aa and scalar not in (None, 0)
            if asserted:
                atoms_checked += 1
                if an.sm[u] and not (case_i or case_ii):
                    fwd_bad.append(_node(an, u))
                if (case_i or case_ii) and not an.sm[u]:
                    back_bad.append(_node(an, u))
            elif an.sm[u] and not (case_i or case_ii):
                char23_exceptions.append(_node(an, u))
    _claim(report, "sm-atom-is-ideal-or-almost-abelian-scalar", not fwd_bad,
           {"atoms_checked": atoms_checked, "violations": sorted(fwd_bad, key=str)})
    _claim(report, "ideal-or-scalar-atom-is-sm", not back_bad,
           {"violations": sorted(back_bad, key=str)})
    _claim(report, "no-mu-algebras", not mu_hits, {"mu_algebras": mu_hits})
    _claim(report, "char-2-3-sm-atoms-outside-both-cases", True,
           {"count": len(char23_exceptions),
            "examples": sorted(char23_exceptions, key=str)[:5]},
           status="reported")


@_suite("two-dim",
        "two-dimensional core-free sm subalgebras force a split simple ambient",
        HarnessContext.p57_universe)
def _two_dim(report, analyses, deadline):
    bad = []
    hits = 0
    for an in analyses:
        for u in np.nonzero(an.sm)[0]:
            u = int(u)
            if int(an.lat.dims[u]) != 2 or u == an.lat.top_id:
                continue
            if not an.core_free.get(u, False):
                continue
            hits += 1
            if not an.flags.is_three_dim_split_simple:
                bad.append(_node(an, u))
    _claim(report, "corefree-two-dim-sm-forces-split-simple-ambient", not bad,
           {"instances": hits, "violations": sorted(bad, key=str)})

    # positive control: a Borel of sl2 over GF(5) is sm and core-free
    an5 = next(an for an in analyses if an.name == "sl2(5)")
    borel = an5.lat.node_id(Subspace.from_vectors([(1, 0, 0), (0, 1, 0)], 3, 5))
    borel_ok = bool(an5.sm[borel]) and an5.algebra.core(an5.lat.nodes[borel]).dim == 0
    _claim(report, "sl2-borel-is-sm-and-corefree", borel_ok,
           {"sm": bool(an5.sm[borel]), "modular": bool(an5.modular[borel])})


@_suite("gen15",
        "one-and-a-half generation makes every sm subalgebra modular and maximal",
        HarnessContext.full_universe, psl3=True)
def _gen15(report, analyses, deadline):
    bad = []
    holders = []
    for an in analyses:
        if not an.gen15:
            continue
        holders.append(an.name)
        if an.heavy:
            continue  # no dense sm inventory; holders list is still reported
        for u in np.nonzero(an.sm)[0]:
            u = int(u)
            if u == an.lat.top_id or an.lat.dims[u] == 0:
                continue
            if not (an.modular[u] and an.maximal_top[u]):
                bad.append(_node(an, u, modular=bool(an.modular[u]),
                                 maximal=bool(an.maximal_top[u])))
    _claim(report, "sm-nodes-of-generating-algebras-are-modular-maximal", not bad,
           {"holders": len(holders), "violations": sorted(bad, key=str)})
    fixture_verdicts = {
        an.name: bool(an.gen15)
        for an in analyses
        if an.name in ("K", "sl2(3)", "sl2(5)", "sl2(7)", "witt(5)", "psl3_char3")
    }
    _claim(report, "one-and-half-generation-verdicts", True,
           {"fixtures": fixture_verdicts}, status="reported")


@_suite("witt", "the Witt algebra over GF(5): its non-negative part and sm inventory",
        lambda ctx: [catalog_build("witt", p=5)])
def _witt(report, analyses, deadline):
    an = analyses[0]
    algebra, lat = an.algebra, an.lat
    l0 = Subspace.from_vectors(np.eye(5, dtype=np.int64)[1:], 5, 5)
    try:
        l0_id = lat.node_id(l0)
    except UsageError:
        l0_id = None
    _claim(report, "nonnegative-part-is-a-node", l0_id is not None, {})
    if l0_id is not None:
        _claim(report, "nonnegative-part-codim-one",
               int(lat.dims[l0_id]) == algebra.dim - 1, {})
        _claim(report, "nonnegative-part-solvable",
               algebra.is_solvable(lat.nodes[l0_id]), {})
        _claim(report, "nonnegative-part-supersolvable",
               algebra.restricted_to(lat.nodes[l0_id]).is_supersolvable(), {})
    proper_sm = [int(i) for i in np.nonzero(an.sm)[0] if i not in (lat.zero_id, lat.top_id)]
    _claim(report, "modular-and-sm-inventory", True,
           {
               "modular_count": int(an.modular.sum()),
               "sm_count": int(an.sm.sum()),
               "proper_sm_nodes": [P.node_rows(lat, i) for i in proper_sm],
               "nonnegative-part-is-unique-proper-sm":
                   l0_id is not None and proper_sm == [l0_id],
           },
           status="reported")


def run_suite(name: str, config: HarnessConfig | None = None) -> SuiteReport:
    """Run one suite in the config's context: analyse its universe (and
    psl3, when the suite asks for it and the config includes it), then
    let its claims function fill the report.  The clock and the time
    budget's deadline start before the universe is fetched."""
    config = config or DEFAULT_CONFIG
    suite = SUITES.get(name)
    if suite is None:
        raise UsageError(f"unknown suite {name!r}; known: {sorted(SUITES)}")
    ctx = context(config)
    t0 = time.monotonic()
    algebras = suite.universe(ctx)
    if suite.psl3 and config.include_psl3:
        algebras = algebras + [psl3_char3()]
    analyses = ctx.analyses(algebras)
    report = SuiteReport(name, _universe_doc(config, algebras), [], {},
                         run={k: getattr(config, k) for k in RUN_FIELDS})
    suite.claims(report, analyses, t0 + config.time_budget_secs)
    report.timings["total_secs"] = time.monotonic() - t0
    return report


def suite_names() -> list[str]:
    return sorted(SUITES)
