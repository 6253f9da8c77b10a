import json

import numpy as np
import pytest

from liesublat.harness import (
    DEFAULT_CONFIG,
    OMITTED_TOPICS,
    SUITES,
    HarnessConfig,
    HarnessContext,
    context,
    report_digest,
    report_to_json,
    run_suite,
    suite_names,
)
from liesublat.lie import LieAlgebra
from liesublat.linalg import UsageError

# small deterministic config so harness tests stay fast; the acceptance
# suite runs the published defaults
SMALL = HarnessConfig(
    seed=7,
    random_per_cell=2,
    random_dims=(2, 3),
    random_primes=(2, 3),
    enum_cells=((2, 2), (3, 2)),
    include_psl3=False,
)


def test_registry_complete():
    assert suite_names() == sorted(SUITES)
    assert len(SUITES) == 10
    assert OMITTED_TOPICS


def test_unknown_suite():
    with pytest.raises(UsageError):
        run_suite("nope", SMALL)


@pytest.mark.parametrize(
    "name",
    [n for n in sorted(SUITES) if n != "psl3"],
)
def test_suites_run_and_serialize(name):
    report = run_suite(name, SMALL)
    doc = report_to_json(report)
    json.dumps(doc)  # serialisable
    assert doc["suite"] == name
    assert doc["universe"]["seed"] == 7
    assert {a["status"] for a in doc["assertions"]} <= {"pass", "fail", "reported"}
    # these suites all pass on the small universe
    assert report.passed, [a for a in report.assertions if a["status"] == "fail"]


def test_digest_deterministic_and_ignores_timings():
    a = run_suite("K-example", SMALL)
    b = run_suite("K-example", SMALL)
    assert report_digest(a) == report_digest(b)
    assert a.timings != {} and "timings" not in json.dumps(
        report_to_json(a) if False else {}
    )
    # timings differ between runs but the digest does not depend on them
    a.timings["total_secs"] = 123456.0
    assert report_digest(a) == report_digest(b)


DEFAULT_DIGESTS = [
    ("K-example", "d8eff87934e9073bf7a3971093d5a22c13a4df96300abc6190aa853c647068ff"),
    ("gen15", "0e6e4c2b458f067f2df07b7564142292f35c3eb1d606fb88a60371c79bb3b0ac"),
    ("psl3", "dbe455e12109a1690d51d7eb1862c950f7274518d5038d120b2920013af7a399"),
    ("sm-atoms", "bbe4ddc21aeffadde83fca3d9c5c20479d8196906e0b8f5e1cba117a9b43cfc5"),
    ("sm-implies-local", "730fbf822e1c3071342ff1a7468c46dd7c1c89e9b269580c767e77eae224819c"),
    ("solvable-corefree", "f5580790969ace811afc2e1b3a04b420db0ef32aaa0079073fb43991a5cb229d"),
    ("solvable-equivalence", "39b61eaba525b9ba13a6d4ed4dd776386f8cc03dc41ebb5dbd64cd81c084c7c6"),
    ("strong-quasi-ideal", "edadb71f0f1bf43c9425b7d9ecf21cb040d6ad207c341e7e04333769afb63b91"),
    ("two-dim", "a91776dc59abdf2342f8a6a5403ed14f0490c6e45b807049f226a86c364f5476"),
    ("witt", "c76885fcff3d38ff78ae4855032e3d950c54998e50afa4452b2fa5b38d56100a"),
]


@pytest.mark.parametrize("name, digest", DEFAULT_DIGESTS, ids=[n for n, _ in DEFAULT_DIGESTS])
def test_default_config_digests_are_pinned(name, digest):
    # a change to any digest has to be deliberate: update the pin and say
    # why in CHANGES.md (the default analyses are shared with the
    # acceptance tests through the default context)
    assert report_digest(run_suite(name, HarnessConfig())) == digest


def test_digest_ignores_threads():
    one = run_suite("K-example", HarnessConfig(threads=1))
    two = run_suite("K-example", HarnessConfig(threads=2))
    assert report_digest(one) == report_digest(two)
    assert report_to_json(two)["run"] == {"threads": 2, "time_budget_secs": 600.0}
    assert "threads" not in one.universe["config"]


def test_failing_assertion_carries_details():
    # run the psl3 suite on demand in acceptance; here just verify the
    # report structure invariant on a small suite
    report = run_suite("sm-atoms", SMALL)
    for a in report.assertions:
        if a["status"] == "fail":
            assert a["details"], "failures must carry details"


def test_context_caches_analyses():
    ctx = context(SMALL)
    a1 = ctx.analysis(ctx.nonsolvable_fixtures()[0])
    a2 = ctx.analysis(ctx.nonsolvable_fixtures()[0])
    assert a1 is a2


def test_context_keys_analyses_by_name_and_tensor():
    # two unnamed algebras of one shape share the default name lie(3,5);
    # each must get its own analysis, not the first one's
    abelian = LieAlgebra(5, np.zeros((3, 3, 3), dtype=np.int64))
    t = np.zeros((3, 3, 3), dtype=np.int64)
    t[0, 1, 1], t[1, 0, 1] = 1, 4          # [e0, e1] = e1
    nonabelian = LieAlgebra(5, t)
    assert abelian.name == nonabelian.name == "lie(3,5)"
    ctx = HarnessContext(SMALL)
    a, b = ctx.analysis(abelian), ctx.analysis(nonabelian)
    assert a.algebra is abelian and b.algebra is nonabelian
    assert a.ideal.all() and not b.ideal.all()
    assert ctx.analysis(LieAlgebra(5, t.copy())) is b


def test_universe_is_deterministic():
    ctx = context(SMALL)
    names1 = [a.name for a in ctx.solvable_universe()]
    names2 = [a.name for a in ctx.solvable_universe()]
    assert names1 == names2
    assert len(names1) == len(set(names1)), "universe ids must be unique"


def test_reported_statuses_present():
    k = run_suite("K-example", SMALL)
    reported = [a for a in k.assertions if a["status"] == "reported"]
    assert any(a["claim"] == "sm-verdict-of-Fc" for a in reported)
    w = run_suite("witt", SMALL)
    inv = next(a for a in w.assertions if a["claim"] == "modular-and-sm-inventory")
    assert inv["status"] == "reported"
    assert inv["details"]["nonnegative-part-is-unique-proper-sm"] is True


def test_gen15_fixture_verdicts():
    r = run_suite("gen15", SMALL)
    verdicts = next(
        a for a in r.assertions if a["claim"] == "one-and-half-generation-verdicts"
    )["details"]["fixtures"]
    assert verdicts["K"] is False
    assert verdicts["sl2(5)"] is True


def test_seed_changes_universe():
    other = HarnessConfig(
        seed=8,
        random_per_cell=2,
        random_dims=(2, 3),
        random_primes=(2, 3),
        enum_cells=((2, 2), (3, 2)),
        include_psl3=False,
    )
    r7 = run_suite("solvable-equivalence", SMALL)
    r8 = run_suite("solvable-equivalence", other)
    assert r7.universe["seed"] != r8.universe["seed"]
    assert r7.passed and r8.passed
