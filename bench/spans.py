"""Spans around calls into liesublat's layers, recorded from outside.

`Tracer.install()` replaces public functions and methods of the library
with wrappers that record a span (name, start, end, parent span,
algebra) for every call, and `uninstall()` puts the originals back.
Spans stay in memory; `write()` saves them at the end of a run.  Self
time is a span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import json
import os
import time
from array import array
from contextlib import contextmanager

import numpy as np

from liesublat import cli, harness, lattice, lie, linalg, predicates
from liesublat.harness import AlgebraAnalysis
from liesublat.lattice import LatticeTables, SubalgebraLattice
from liesublat.lie import LieAlgebra

#: harness stages measured per call; each is a method of AlgebraAnalysis
STAGES = ("strong_flags", "atom_scalars", "core_free_sm", "local_lemma", "modular_star_checks")


def _algebra_of(args):
    """Name of the algebra a call works on, when its first argument shows it."""
    if not args:
        return None
    first = args[0]
    if isinstance(first, LieAlgebra):
        return first.name
    alg = getattr(first, "algebra", None)
    if isinstance(alg, LieAlgebra):
        return alg.name
    if len(args) > 1 and isinstance(args[1], LieAlgebra):
        return args[1].name
    return None


def _targets():
    """(owner, attribute, span name, counter) for every traced entry point.
    A name imported into another module is patched there as well."""
    def rows(args, out):
        return {"linalg.batch_rref.matrices": int(np.shape(args[0])[0])}

    def build(args, out):
        alg = args[1]                        # args[0] is the class
        return {"lattice.build.candidates": linalg.count_subspaces(alg.dim, alg.p),
                "lattice.build.nodes": len(out)}

    def tables(args, out):
        arrays = (out.contain, out.join, out.meet, out.maximal)
        return {"lattice.tables.bytes": sum(a.nbytes for a in arrays)}

    def cache_file(args, out):
        return {"lattice.cache.bytes": os.path.getsize(args[1])}

    t = [
        (linalg, "rref", "linalg.rref", None),
        (lie, "rref", "linalg.rref", None),
        (linalg, "batch_rref", "linalg.batch_rref", rows),     # the calls inside rref
        (predicates, "batch_rref", "linalg.batch_rref", rows),
        (LieAlgebra, "structural_flags", "lie.structural_flags", None),
        (LieAlgebra, "is_ideal", "lie.is_ideal", None),
        (LieAlgebra, "core", "lie.core", None),
        (SubalgebraLattice, "build", "lattice.build", build),
        (LatticeTables, "build", "lattice.tables", tables),
        (SubalgebraLattice, "maximal_subalgebras", "lattice.maximal_subalgebras", None),
        (SubalgebraLattice, "join", "lattice.lazy_queries", None),
        (SubalgebraLattice, "meet", "lattice.lazy_queries", None),
        (SubalgebraLattice, "is_maximal_in", "lattice.lazy_queries", None),
        (lattice, "save_cache", "lattice.cache_write", cache_file),
        (cli, "save_cache", "lattice.cache_write", cache_file),
        (lattice, "load_cache", "lattice.cache_read", None),
        (cli, "load_cache", "lattice.cache_read", None),
        (predicates, "modular_inventory", "predicates.modular_inventory", None),
        (predicates, "sm_inventory", "predicates.sm_inventory", None),
        (predicates, "quasi_ideal_inventory", "predicates.quasi_ideal_inventory", None),
        (predicates, "ideal_inventory", "predicates.ideal_inventory", None),
        (predicates, "ideal_line_flags", "predicates.line_flags", None),
        (predicates, "quasi_line_flags", "predicates.line_flags", None),
        (predicates, "is_modular_star", "predicates.is_modular_star", None),
        (predicates, "is_quasi_ideal", "predicates.is_quasi_ideal", None),
        (predicates, "has_one_and_half_generation", "predicates.gen15", None),
        (AlgebraAnalysis, "__init__", "harness.analysis", None),
        (harness, "run_suite", "harness.suite_checks", None),
        (cli, "cmd_analyze", "cli.analyze", None),
        (cli, "cmd_lattice", "cli.lattice", None),
    ]
    t += [(AlgebraAnalysis, f"_{s}", f"harness.stage.{s}", None) for s in STAGES]
    return t


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.algebras: list[str] = []
        self._algebra_ids: dict[str, int] = {}
        self.name = array("H")
        self.parent = array("i")
        self.algebra = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self.durations: dict[str, list[float]] = {}
        self._stack: list[list] = []      # [span index, algebra id, child time]
        self._saved: list[tuple] = []

    # -- recording -----------------------------------------------------------

    def _id(self, table: dict, items: list, value) -> int:
        got = table.get(value)
        if got is None:
            got = table[value] = len(items)
            items.append(value)
        return got

    def _open(self, name: str, algebra) -> int:
        idx = len(self.start)
        self.name.append(self._id(self._name_ids, self.names, name))
        if algebra is not None:
            alg = self._id(self._algebra_ids, self.algebras, algebra)
        else:
            alg = self._stack[-1][1] if self._stack else -1
        self.algebra.append(alg)
        self.parent.append(self._stack[-1][0] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append([idx, alg, 0.0])
        self.start.append(time.perf_counter())
        return idx

    def _close(self, name: str) -> float:
        now = time.perf_counter()
        idx, _, child = self._stack.pop()
        self.end[idx] = now
        dur = now - self.start[idx]
        if self._stack:
            self._stack[-1][2] += dur
        self.self_s[name] = self.self_s.get(name, 0.0) + dur - child
        self.calls[name] = self.calls.get(name, 0) + 1
        return dur

    def count(self, key: str, value: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    @contextmanager
    def span(self, name: str, algebra=None):
        self._open(name, algebra)
        try:
            yield
        finally:
            self._close(name)

    def _wrap(self, fn, name, counter):
        tracer = self

        def traced(*args, **kwargs):
            tracer._open(name, _algebra_of(args))
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = tracer._close(name)
                if name == "harness.analysis":
                    tracer.durations.setdefault(name, []).append(dur)
            if counter is not None:
                for k, v in counter(args, out).items():
                    tracer.count(k, v)
            return out

        traced.__wrapped__ = fn
        return traced

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        if self._saved:
            return
        for owner, attr, name, counter in _targets():
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(raw.__func__, name, counter))
            else:
                new = self._wrap(raw, name, counter)
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, new)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, raw = self._saved.pop()
            setattr(owner, attr, raw)

    @contextmanager
    def paused(self):
        """The originals in place for the block, and the wrappers back after."""
        installed = bool(self._saved)
        self.uninstall()
        try:
            yield
        finally:
            if installed:
                self.install()

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as parallel arrays plus the name and algebra tables."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(
            path,
            name=np.frombuffer(self.name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            algebra=np.frombuffer(self.algebra, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            tables=np.array(json.dumps({"names": self.names, "algebras": self.algebras})),
        )

    def top_level_s(self, first: int = 0) -> float:
        """Time covered by spans without a parent, from span `first` on."""
        top = np.frombuffer(self.parent, dtype=np.int32)[first:] == -1
        ends = np.frombuffer(self.end)[first:][top]
        return float((ends - np.frombuffer(self.start)[first:][top]).sum())


def tail(samples_ms: list[float]) -> tuple[float, float, float]:
    """(median, tail value, tail percentile): the highest of the usual
    percentiles with at least ten samples beyond it; below forty samples
    the median alone, reported as percentile 50."""
    if not samples_ms:
        return 0.0, 0.0, 0.0
    arr = np.asarray(samples_ms)
    p50 = float(np.median(arr))
    pct = 50.0
    for q in (90.0, 95.0, 99.0, 99.9):
        if arr.size >= 40 and arr.size * (1 - q / 100) >= 10:
            pct = q
    return p50, float(np.percentile(arr, pct)), pct
