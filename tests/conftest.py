import numpy as np
import pytest

from liesublat.harness import HarnessConfig, HarnessContext


@pytest.fixture(scope="session")
def default_context():
    """The harness context of the default config, shared by the tests
    that sample its universe."""
    return HarnessContext(HarnessConfig())


@pytest.fixture(scope="session")
def universe_sample(default_context):
    """A seeded sample of each part of the default harness universe, plus
    every non-solvable fixture except psl3 (too large for dense tables)."""
    ctx = default_context
    rng = np.random.default_rng(17)
    algebras = []
    for part in (ctx.catalog_solvables(), ctx.enumerated(), ctx.randoms()):
        algebras += [part[int(i)] for i in sorted(rng.choice(len(part), size=25, replace=False))]
    return algebras + ctx.nonsolvable_fixtures()
