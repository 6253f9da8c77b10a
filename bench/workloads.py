"""The benchmark's workloads.

A workload builds its inputs from the seed when it is created (the
set-up), then `run_round()` performs one round of its operations (the
timed part) and returns what `check()` needs to judge the outputs.  An
operation is one algebra analysed, one suite run, one CLI command or one
library query.  Every round of a workload performs the same operations.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass, field

import numpy as np

import oracle
from liesublat import catalog, cli, harness, lattice, predicates
from liesublat.harness import AlgebraAnalysis, HarnessConfig, HarnessContext
from liesublat.lattice import SubalgebraLattice
from liesublat.lie import LieAlgebra

#: claims known to be false by design (README): over GF(3) the triple
#: subalgebras of psl3 have maximal one-dimensional subalgebras
EXPECTED_FAIL = {("psl3", "triple-maximal-subalgebras-all-two-dim")}

ALL_PREDICATES = "modular,um,lm,sm,quasi_ideal,strong_ideal,strong_quasi_ideal,modular_star"
#: analyze columns the property checks compare
_CLI_COLUMNS = ("modular", "sm", "quasi_ideal", "strong_ideal", "strong_quasi_ideal")


def _rng(seed: int, *tags) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def change_basis(alg: LieAlgebra, rng: np.random.Generator) -> LieAlgebra:
    """The same algebra written in a random basis: an isomorphic lattice
    (same node counts, same work) on a different structure tensor."""
    n, p = alg.dim, alg.p
    while True:
        g = rng.integers(0, p, size=(n, n))
        if oracle.rref(g, p).shape[0] == n:
            break
    ginv = oracle.rref(np.hstack([g, np.eye(n, dtype=np.int64)]), p)[:, n:]
    t = np.einsum("ia,jb,abl,lk->ijk", g, g, alg.tensor.astype(np.int64), ginv) % p
    return LieAlgebra(p, t, name=f"{alg.name}^g")


@dataclass
class Round:
    ops: int = 0
    nodes: int = 0
    data: dict = field(default_factory=dict)


@dataclass
class Verdict:
    """Outcome of checking one round: operations that failed, and why."""
    failed: set = field(default_factory=set)
    reasons: list = field(default_factory=list)

    def add(self, op, fails) -> None:
        if fails:
            self.failed.add(op)
            self.reasons.extend(fails)


def _check_analysis(v: Verdict, an: AlgebraAnalysis, rng, pairs: int, brute: int) -> None:
    """Lattice, join/meet and verdict checks for one harness analysis."""
    lat, alg = an.lat, an.algebra
    rows = [s.rows for s in lat.nodes]
    fails = oracle.check_lattice(an.name, alg.tensor, alg.p, rows, rng)
    ids = rng.integers(0, len(rows), size=(pairs, 2))
    answers = [(int(a), int(b), lat.join(int(a), int(b)), lat.meet(int(a), int(b))) for a, b in ids]
    fails += oracle.check_join_meet(an.name, alg.tensor, alg.p, rows, answers)
    if hasattr(an, "modular"):
        cols = {"modular": an.modular, "sm": an.sm, "quasi_ideal": an.quasi, "ideal": an.ideal}
        fails += oracle.check_verdicts(an.name, cols, oracle.is_solvable(alg.tensor, alg.p))
    if alg.dim <= 4:
        for u in rng.choice(len(rows), size=min(brute, len(rows)), replace=False):
            if predicates.is_quasi_ideal_bruteforce(alg, lat.nodes[int(u)]) != bool(an.quasi[int(u)]):
                fails.append(f"{an.name}: quasi-ideal verdict of node {int(u)} != brute force")
    v.add(("analysis", an.name), fails)


def _check_claims(v: Verdict, report) -> None:
    fails = []
    for claim in report.assertions:
        want = "fail" if (report.suite, claim["claim"]) in EXPECTED_FAIL else "pass"
        if claim["status"] != "reported" and claim["status"] != want:
            fails.append(f"suite {report.suite}: claim {claim['claim']} is {claim['status']}")
    if report.truncated:
        fails.append(f"suite {report.suite} truncated: {report.truncated}")
    v.add(("suite", report.suite), fails)


# ---------------------------------------------------------------------------
# small-universe
# ---------------------------------------------------------------------------

class SmallUniverse:
    """Every suite except psl3 and witt over many small algebras: the
    catalog solvables below 1,000 nodes, every enumerated tensor of
    dim <= 2, every 4th of dim 3 over GF(2) and every 24th of dim 3 over
    GF(3), one seeded random solvable per (dim 2..4, p 2/3/5) cell, and
    the non-solvable fixtures except witt(5)."""

    #: 1,000+-node algebras; mid-lattices covers that size (witt(5) there
    #: through the witt suite)
    MID_SIZED = ("n(4,3)", "almost_abelian(4,5)", "witt(5)")
    SKIPPED_SUITES = ("psl3", "witt")
    #: every k-th enumerated tensor of these (dim, p) cells
    STRIDES = {(3, 2): 4, (3, 3): 24}
    PER_CELL = 1

    def __init__(self, seed: int, tracer, workdir: str):
        self.config = HarnessConfig(seed=seed, random_dims=(2, 3, 4),
                                    random_per_cell=self.PER_CELL, include_psl3=False)
        self.seed = seed
        stock = HarnessContext(self.config)
        enumerated = []
        for d, p in self.config.enum_cells:
            with tracer.span("catalog.enumerate_structures"):
                cell = list(catalog.enumerate_structures(d, p))
            tracer.count("catalog.enumerate_structures.tensors", catalog.structure_count(d, p))
            enumerated += cell[:: self.STRIDES.get((d, p), 1)]
        self.universes = {
            "catalog_solvables": [a for a in stock.catalog_solvables() if a.name not in self.MID_SIZED],
            "enumerated": enumerated,
            "randoms": stock.randoms(),
            "nonsolvable_fixtures": [a for a in stock.nonsolvable_fixtures()
                                     if a.name not in self.MID_SIZED],
        }
        self.suites = [s for s in harness.suite_names() if s not in self.SKIPPED_SUITES]

    def run_round(self) -> Round:
        ctx = HarnessContext(self.config)
        ctx._universes.update(self.universes)
        harness._CONTEXTS[self.config] = ctx   # the suites look their context up here
        try:
            reports = [harness.run_suite(s, self.config) for s in self.suites]
        finally:
            harness._CONTEXTS.pop(self.config, None)
        analyses = list(ctx._analyses.values())
        return Round(ops=len(analyses) + len(reports),
                     nodes=sum(an.n_nodes for an in analyses),
                     data={"reports": reports, "analyses": analyses})

    def check(self, r: Round) -> Verdict:
        v = Verdict()
        rng = _rng(self.seed, 1)
        for report in r.data["reports"]:
            _check_claims(v, report)
        for an in r.data["analyses"]:
            _check_analysis(v, an, rng, pairs=2, brute=2)
        return v


# ---------------------------------------------------------------------------
# mid-lattices
# ---------------------------------------------------------------------------

class MidLattices:
    """The witt suite (the analysis of witt(5), 1,026 nodes, and its
    claims) on a fresh harness context, and the full harness analysis of
    random(5,5,7) of the default universe (1,336 nodes) in a basis drawn
    from the seed."""

    SAMPLES = (7,)

    def __init__(self, seed: int, tracer, workdir: str):
        rs = HarnessContext(HarnessConfig(random_dims=(5,), random_primes=(5,),
                                          random_per_cell=max(self.SAMPLES) + 1)).randoms()
        rng = _rng(seed, 2)
        self.algebras = [change_basis(rs[i], rng) for i in self.SAMPLES]
        self.config = HarnessConfig()
        self.seed = seed

    def run_round(self) -> Round:
        ctx = HarnessContext(self.config)
        harness._CONTEXTS[self.config] = ctx
        try:
            report = harness.run_suite("witt", self.config)
        finally:
            harness._CONTEXTS.pop(self.config, None)
        analyses = list(ctx._analyses.values()) + [AlgebraAnalysis(a, self.config)
                                                   for a in self.algebras]
        return Round(ops=1 + len(analyses), nodes=sum(an.n_nodes for an in analyses),
                     data={"reports": [report], "analyses": analyses})

    def check(self, r: Round) -> Verdict:
        v = Verdict()
        rng = _rng(self.seed, 3)
        for report in r.data["reports"]:
            _check_claims(v, report)
        for an in r.data["analyses"]:
            _check_analysis(v, an, rng, pairs=20, brute=0)
        return v


# ---------------------------------------------------------------------------
# psl3
# ---------------------------------------------------------------------------

class Psl3:
    """psl3 over GF(3), in a basis drawn from the seed: the 2,052,656-
    candidate sweep to 16,474 nodes (above the dense-table limit, so
    lattice queries take the lazy bitset path), the line flags, and a
    seeded sample of per-node quasi-ideal and ideal checks and lazy
    joins and meets."""

    NODES = 300
    PAIRS = 300

    def __init__(self, seed: int, tracer, workdir: str):
        self.seed = seed
        self.algebra = change_basis(catalog.psl3_char3(), _rng(seed, 4))

    def run_round(self) -> Round:
        alg = self.algebra
        lat = SubalgebraLattice.build(alg)
        ideal_lines = predicates.ideal_line_flags(lat)
        quasi_lines = predicates.quasi_line_flags(lat)
        rng = _rng(self.seed, 5)
        sample = rng.choice(len(lat), size=self.NODES, replace=False)
        quasi = np.array([predicates.is_quasi_ideal(lat, int(u)).verdict for u in sample])
        ideal = np.array([alg.is_ideal(lat.nodes[int(u)]) for u in sample])
        answers = [(int(a), int(b), lat.join(int(a), int(b)), lat.meet(int(a), int(b)))
                   for a, b in rng.integers(0, len(lat), size=(self.PAIRS, 2))]
        return Round(ops=2 + 2 * self.NODES + self.PAIRS, nodes=len(lat),
                     data={"lat": lat, "ideal_lines": ideal_lines, "quasi_lines": quasi_lines,
                           "sample": sample, "quasi": quasi, "ideal": ideal, "answers": answers})

    def check(self, r: Round) -> Verdict:
        v = Verdict()
        d = r.data
        lat, alg = d["lat"], self.algebra
        rows = [s.rows for s in lat.nodes]
        v.add("build", oracle.check_lattice(alg.name, alg.tensor, alg.p, rows, _rng(self.seed, 6),
                                            samples_per_dim=10))
        lines = sorted(d["quasi_lines"])
        v.add("line_flags", oracle.check_verdicts(
            alg.name, {"ideal": np.array([d["ideal_lines"][i] for i in lines]),
                       "quasi_ideal": np.array([d["quasi_lines"][i] for i in lines])}, False))
        for u, ideal, quasi in zip(d["sample"], d["ideal"], d["quasi"]):
            v.add(("quasi_ideal", int(u)),
                  [f"{alg.name}: node {int(u)} is an ideal but not a quasi-ideal"] if ideal and not quasi else [])
        for a, b, j, m in d["answers"]:
            v.add(("join_meet", a, b), oracle.check_join_meet(alg.name, alg.tensor, alg.p, rows, [(a, b, j, m)]))
        return v


# ---------------------------------------------------------------------------
# analyze
# ---------------------------------------------------------------------------

def _cli(argv) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    return code, json.loads(buf.getvalue()) if code == 0 else {}


class Analyze:
    """One user's point queries through the CLI and the library, in a
    basis drawn from the seed: `analyze --json` with all eight predicates,
    `lattice --cache` written then read back, and a per-node
    `is_quasi_ideal(lat, u)` over every node of the analysed lattices."""

    ANALYZED = (("strictly_upper", {"n": 4, "p": 2}),
                ("upper_triangular", {"n": 3, "p": 2}),
                ("abelian", {"dim": 4, "p": 3}))
    CACHED = ("strictly_upper", {"n": 4, "p": 3})

    def __init__(self, seed: int, tracer, workdir: str):
        self.seed = seed
        self.workdir = workdir
        rng = _rng(seed, 7)
        self.algebras = [change_basis(catalog.catalog_build(n, **kw), rng) for n, kw in self.ANALYZED]
        self.cached = change_basis(catalog.catalog_build(self.CACHED[0], **self.CACHED[1]), rng)
        self.files = []
        for k, alg in enumerate(self.algebras + [self.cached]):
            path = os.path.join(workdir, f"algebra{k}.json")
            with open(path, "w") as fh:
                json.dump(alg.to_json(), fh)
            self.files.append(path)
        self.rounds = 0

    def run_round(self) -> Round:
        self.rounds += 1
        common = ["--json", "--threads", "1"]
        docs, codes = [], []
        for path in self.files[:-1]:
            code, doc = _cli(["analyze", "--file", path, "--predicates", ALL_PREDICATES] + common)
            codes.append(code)
            docs.append(doc)
        cache = os.path.join(self.workdir, f"round{self.rounds}.lat.json")
        lattice_docs = []
        for _ in range(2):
            code, doc = _cli(["lattice", "--file", self.files[-1], "--cache", cache] + common)
            codes.append(code)
            lattice_docs.append(doc)
        library = []
        for alg in self.algebras:
            lat = lattice.build_lattice(alg)
            library.append((lat, [predicates.is_quasi_ideal(lat, u).verdict for u in range(len(lat))]))
        queries = sum(len(lat) for lat, _ in library)
        # nodes: every lattice a command or build produced, plus one per query
        nodes = (sum(d.get("lattice", {}).get("nodes", 0) for d in docs)
                 + sum(d.get("nodes", 0) for d in lattice_docs) + queries + queries)
        return Round(ops=len(codes) + len(library) + queries, nodes=nodes,
                     data={"codes": codes, "docs": docs, "lattice_docs": lattice_docs,
                           "cache": cache, "library": library})

    def check(self, r: Round) -> Verdict:
        v = Verdict()
        d = r.data
        rng = _rng(self.seed, 8)
        for k, (alg, doc) in enumerate(zip(self.algebras, d["docs"])):
            op = ("analyze", alg.name)
            if d["codes"][k] != 0:
                v.add(op, [f"analyze {alg.name} exited {d['codes'][k]}"])
                continue
            n = alg.dim
            rows = [np.array(nd["rows"], dtype=np.uint8).reshape(-1, n) for nd in doc["nodes"]]
            fails = oracle.check_lattice(alg.name, alg.tensor, alg.p, rows, rng)
            cols = {c: np.array([nd["predicates"][c] for nd in doc["nodes"]]) for c in _CLI_COLUMNS}
            fails += oracle.check_verdicts(alg.name, cols, oracle.is_solvable(alg.tensor, alg.p))
            lat, verdicts = d["library"][k]
            same = [oracle.key(s.rows, n) for s in lat.nodes] == [oracle.key(b, n) for b in rows]
            v.add(("build_lattice", alg.name), [] if same else [f"{alg.name}: library lattice != CLI lattice"])
            if alg.dim <= 4 and same:
                for u in rng.choice(len(rows), size=4, replace=False):
                    if predicates.is_quasi_ideal_bruteforce(alg, lat.nodes[int(u)]) != cols["quasi_ideal"][int(u)]:
                        fails.append(f"{alg.name}: quasi-ideal verdict of node {int(u)} != brute force")
            v.add(op, fails)
            for u, verdict in enumerate(verdicts):
                if verdict != cols["quasi_ideal"][u]:
                    v.add(("is_quasi_ideal", alg.name, u), [f"{alg.name}: library and CLI disagree at node {u}"])
        alg = self.cached
        first, second = d["lattice_docs"]
        fails = [f"lattice --cache exited {c}" for c in d["codes"][-2:] if c != 0]
        if not fails:
            if first["cache_hit"] or not second["cache_hit"]:
                fails.append("lattice --cache: expected a write then a hit")
            fresh = SubalgebraLattice.build(alg)
            cached = lattice.load_cache(d["cache"], alg)
            if [s.key for s in fresh.nodes] != [s.key for s in cached.nodes]:
                fails.append("cache-read lattice differs from a fresh sweep")
            if second["nodes"] != len(fresh) or first["nodes"] != len(fresh):
                fails.append("lattice --cache reports another node count")
            fails += oracle.check_lattice(alg.name, alg.tensor, alg.p, [s.rows for s in fresh.nodes], rng)
        v.add(("lattice", alg.name), fails)
        if os.path.exists(d["cache"]):
            os.remove(d["cache"])
        return v


WORKLOADS = {
    "small-universe": SmallUniverse,
    "mid-lattices": MidLattices,
    "psl3": Psl3,
    "analyze": Analyze,
}
