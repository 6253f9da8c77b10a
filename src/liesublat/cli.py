"""Command-line front end: load or build algebras, build and cache
subalgebra lattices, evaluate predicates, and run verification suites.

Exit codes: 0 all requested work passed, 1 a suite assertion failed,
2 usage, schema or resource-budget errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import predicates as P
from .catalog import CATALOG, catalog_build, catalog_names, enumerate_structures, structure_count
from .harness import (
    OMITTED_TOPICS,
    SUITES,
    HarnessConfig,
    report_digest,
    report_to_json,
    run_suite,
    suite_names,
)
from .lattice import TABLE_NODE_LIMIT, CacheError, build_lattice, load_cache, save_cache
from .lie import JacobiError, LieAlgebra
from .linalg import ResourceError, Subspace, UsageError


class SchemaError(ValueError):
    """Algebra file rejected; the message names the first bad field."""


def validate_algebra_doc(doc) -> LieAlgebra:
    if not isinstance(doc, dict):
        raise SchemaError("$: expected a JSON object")
    for key in ("p", "dim", "brackets"):
        if key not in doc:
            raise SchemaError(f"$.{key}: missing required field")
    if not isinstance(doc["p"], int) or doc["p"] not in (2, 3, 5, 7):
        raise SchemaError("$.p: must be one of 2, 3, 5, 7")
    if not isinstance(doc["dim"], int) or not 1 <= doc["dim"] <= 8:
        raise SchemaError("$.dim: must be an integer in 1..8")
    p, dim = doc["p"], doc["dim"]
    basis = doc.get("basis")
    if basis is not None:
        if not isinstance(basis, list) or len(basis) != dim or not all(
            isinstance(b, str) for b in basis
        ):
            raise SchemaError(f"$.basis: must be a list of {dim} strings")
    if not isinstance(doc["brackets"], list):
        raise SchemaError("$.brackets: must be a list")
    for idx, entry in enumerate(doc["brackets"]):
        loc = f"$.brackets[{idx}]"
        if not isinstance(entry, dict):
            raise SchemaError(f"{loc}: expected an object")
        for key in ("i", "j", "coeffs"):
            if key not in entry:
                raise SchemaError(f"{loc}.{key}: missing required field")
        i, j, coeffs = entry["i"], entry["j"], entry["coeffs"]
        if not isinstance(i, int) or not isinstance(j, int) or not 0 <= i < j < dim:
            raise SchemaError(f"{loc}: indices must satisfy 0 <= i < j < dim")
        if not isinstance(coeffs, list) or len(coeffs) != dim:
            raise SchemaError(f"{loc}.coeffs: must be a list of {dim} integers")
        for k, c in enumerate(coeffs):
            if not isinstance(c, int) or not 0 <= c < p:
                raise SchemaError(f"{loc}.coeffs[{k}]: must be an integer in [0, {p})")
    return LieAlgebra.from_json(doc)


def _load_algebra(args) -> LieAlgebra:
    if args.file:
        try:
            with open(args.file) as fh:
                doc = json.load(fh)
        except OSError as err:
            raise UsageError(f"cannot read {args.file}: {err}") from err
        except json.JSONDecodeError as err:
            raise SchemaError(f"$: invalid JSON ({err})") from err
        return validate_algebra_doc(doc)
    if not args.algebra:
        raise UsageError("give --algebra <catalog name> or --file <algebra.json>")
    entry = CATALOG.get(args.algebra)
    if entry is None:
        raise UsageError(f"unknown catalog algebra {args.algebra!r}; see `liesublat catalog`")
    params = {}
    for name in entry.params:
        value = {"p": args.p, "dim": args.dim, "n": args.dim}.get(name)
        if value is None:
            flag = "--p" if name == "p" else "--dim"
            raise UsageError(f"{args.algebra} needs {flag}")
        params[name] = value
    return catalog_build(args.algebra, **params)


def _cache_dir() -> str:
    return os.environ.get(
        "LIESUBLAT_CACHE_DIR",
        os.path.join(os.path.expanduser("~"), ".cache", "liesublat"),
    )


def _emit(doc, as_json: bool, human_lines) -> None:
    if as_json:
        print(json.dumps(doc, sort_keys=True, indent=2))
    else:
        for line in human_lines:
            print(line)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_catalog(args) -> int:
    doc = {
        "algebras": [
            {"name": e.name, "params": list(e.params), "provenance": e.provenance}
            for e in catalog_names()
        ],
        "suites": {name: SUITES[name].description for name in suite_names()},
        "omitted_topics": OMITTED_TOPICS,
    }
    lines = ["catalog algebras:"]
    for e in catalog_names():
        params = f"({', '.join(e.params)})" if e.params else ""
        lines.append(f"  {e.name}{params}  - {e.provenance}")
    lines.append("verification suites:")
    for name in suite_names():
        lines.append(f"  {name}  - {doc['suites'][name]}")
    lines.append("topics with no finite-field instances (not verified):")
    for topic, why in OMITTED_TOPICS.items():
        lines.append(f"  {topic}: {why}")
    _emit(doc, args.json, lines)
    return 0


_ANALYZE_PREDICATES = ("modular", "um", "lm", "sm", "quasi_ideal",
                       "strong_ideal", "strong_quasi_ideal", "modular_star")


def cmd_analyze(args) -> int:
    wanted = [p.strip() for p in args.predicates.split(",") if p.strip()]
    unknown = [p for p in wanted if p not in _ANALYZE_PREDICATES]
    if unknown:
        raise UsageError(f"unknown predicates {unknown}; choose from {_ANALYZE_PREDICATES}")
    algebra = _load_algebra(args)
    lat = build_lattice(algebra, budget=args.max_subspaces, threads=args.threads)
    needs_tables = {"modular", "um", "lm", "sm", "modular_star"} & set(wanted)
    if needs_tables and not lat.has_tables():
        raise ResourceError(
            f"{len(lat)} nodes exceed the dense-table limit {TABLE_NODE_LIMIT}; "
            "only quasi_ideal/strong_* are available at this size"
        )
    columns = {}
    if {"modular"} & set(wanted):
        columns["modular"], _ = P.modular_inventory(lat)
    if {"um", "lm", "sm"} & set(wanted):
        um, lm, _ = P.sm_inventory(lat)
        columns["um"], columns["lm"], columns["sm"] = um, lm, um & lm
    if "quasi_ideal" in wanted:
        columns["quasi_ideal"], _ = P.quasi_ideal_inventory(lat)
    if "strong_ideal" in wanted:
        columns["strong_ideal"] = P.strong_inventory(lat, P.ideal_line_flags(lat))
    if "strong_quasi_ideal" in wanted:
        columns["strong_quasi_ideal"] = P.strong_inventory(lat, P.quasi_line_flags(lat))
    if "modular_star" in wanted:
        columns["modular_star"] = np.array(
            [P.is_modular_star(lat, u).verdict for u in range(len(lat))], dtype=bool
        )
    node_ids = [
        i for i in range(len(lat))
        if args.node_dim is None or int(lat.dims[i]) == args.node_dim
    ]
    nodes_doc = [
        {
            "id": i,
            "dim": int(lat.dims[i]),
            "rows": lat.nodes[i].to_digit_rows(),
            "predicates": {k: bool(columns[k][i]) for k in wanted},
        }
        for i in node_ids
    ]
    doc = {
        "algebra": algebra.to_json(),
        "lattice": {"nodes": len(lat), "by_dim": {str(k): v for k, v in sorted(lat.counts_by_dim().items())}},
        "nodes": nodes_doc,
    }
    lines = [
        f"{algebra.name}: {len(lat)} subalgebras {lat.counts_by_dim()}",
        "id  dim  " + "  ".join(wanted),
    ]
    for nd in nodes_doc:
        verdicts = "  ".join(str(int(nd["predicates"][k])) for k in wanted)
        lines.append(f"{nd['id']:>3}  {nd['dim']:>3}  {verdicts}  rows={nd['rows']}")
    _emit(doc, args.json, lines)
    return 0


def cmd_lattice(args) -> int:
    algebra = _load_algebra(args)
    if args.cache:
        path = args.cache
    else:
        os.makedirs(_cache_dir(), exist_ok=True)
        path = os.path.join(_cache_dir(), f"{algebra.name}-{algebra.sha256()[:12]}.lat.json")
    hit = False
    if os.path.exists(path):
        try:
            lat = load_cache(path, algebra)
            hit = True
        except CacheError:
            lat = build_lattice(algebra, budget=args.max_subspaces, threads=args.threads)
            save_cache(lat, path)
    else:
        lat = build_lattice(algebra, budget=args.max_subspaces, threads=args.threads)
        save_cache(lat, path)
    doc = {
        "algebra": algebra.name,
        "cache": path,
        "cache_hit": hit,
        "nodes": len(lat),
        "by_dim": {str(k): v for k, v in sorted(lat.counts_by_dim().items())},
    }
    _emit(doc, args.json, [
        f"{algebra.name}: {len(lat)} subalgebras {lat.counts_by_dim()}",
        f"cache {'hit' if hit else 'written'}: {path}",
    ])
    return 0


def cmd_verify(args) -> int:
    config = HarnessConfig(
        seed=args.seed,
        max_subspaces=args.max_subspaces,
        time_budget_secs=args.time_budget_secs,
        threads=args.threads,
    )
    names = suite_names() if args.suite == "all" else [args.suite]
    worst = 0
    docs = []
    for name in names:
        report = run_suite(name, config)
        doc = report_to_json(report)
        doc["digest"] = report_digest(report)
        docs.append(doc)
        if report.truncated:
            worst = max(worst, 2)
        elif not report.passed:
            worst = max(worst, 1)
        if not args.json:
            print(f"suite {name}: {'PASS' if report.passed else 'FAIL'}"
                  + (f" (truncated: {report.truncated})" if report.truncated else ""))
            for a in report.assertions:
                print(f"  [{a['status']:>8}] {a['claim']}")
            print(f"  digest {doc['digest']}")
    if args.json:
        print(json.dumps(docs if len(docs) > 1 else docs[0], sort_keys=True, indent=2))
    return worst


def cmd_enumerate(args) -> int:
    if args.dim is None or args.p is None:
        raise UsageError("enumerate needs --dim and --p")
    total = structure_count(args.dim, args.p)
    valid = 0
    solvable = 0
    for alg in enumerate_structures(args.dim, args.p):
        valid += 1
        if alg.is_solvable():
            solvable += 1
    doc = {"dim": args.dim, "p": args.p, "candidates": total,
           "jacobi_valid": valid, "solvable": solvable}
    _emit(doc, args.json, [
        f"dim {args.dim} over GF({args.p}): {total} candidate tensors, "
        f"{valid} satisfy Jacobi, {solvable} solvable"
    ])
    return 0


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def _thread_count(text: str) -> int:
    return int(text) or os.cpu_count() or 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="liesublat",
        description="Subalgebra lattices of Lie algebras over GF(p), with "
                    "lattice-theoretic predicates and verification suites.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, algebra=False, shape=False, sweep=False):
        if algebra:
            sp.add_argument("--algebra", help="catalog algebra name")
            sp.add_argument("--file", help="algebra JSON file")
        if algebra or shape:
            sp.add_argument("--p", type=int, help="field size parameter")
            sp.add_argument("--dim", type=int, help="dimension parameter")
        sp.add_argument("--json", action="store_true", help="machine-readable output")
        if sweep:
            sp.add_argument("--threads", type=_thread_count, default="0",
                            help="worker threads (0 = hardware count)")
            sp.add_argument("--max-subspaces", type=int, default=4_000_000,
                            dest="max_subspaces")

    sp = sub.add_parser("catalog", help="list algebras, suites and omissions")
    common(sp)
    sp.set_defaults(func=cmd_catalog)

    sp = sub.add_parser("analyze", help="predicate verdicts per subalgebra")
    common(sp, algebra=True, sweep=True)
    sp.add_argument("--predicates", default="modular,sm,quasi_ideal")
    sp.add_argument("--node-dim", type=int, default=None,
                    help="only list nodes of this dimension")
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("lattice", help="build (and cache) a subalgebra lattice")
    common(sp, algebra=True, sweep=True)
    sp.add_argument("--cache", help="cache file path (default: cache dir)")
    sp.set_defaults(func=cmd_lattice)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, sweep=True)
    sp.add_argument("--seed", type=int, default=1)
    sp.add_argument("--time-budget-secs", type=float, default=600.0,
                    dest="time_budget_secs")
    sp.add_argument("--suite", required=True,
                    help="suite name or 'all'; see `liesublat catalog`")
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("enumerate", help="count structure tensors with Jacobi filter")
    common(sp, shape=True)
    sp.set_defaults(func=cmd_enumerate)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SchemaError, JacobiError) as err:
        print(f"schema error: {err}", file=sys.stderr)
        return 2
    except (UsageError, ResourceError, CacheError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
