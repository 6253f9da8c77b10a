"""The benchmark's tracer still finds every library name it wraps.

`bench/spans.py` patches functions and methods by name (the analysis
stage methods, `run_suite`, `cli.save_cache`, ...).  A rename fails
here instead of as a KeyError in `bench/run.py --trace 1`.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from spans import Tracer, _targets  # noqa: E402


def test_tracer_installs_and_uninstalls_every_target():
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _, _ in _targets()]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(owner.__dict__[attr] is not raw for owner, attr, raw in originals)
    finally:
        tracer.uninstall()
    assert all(owner.__dict__[attr] is raw for owner, attr, raw in originals)
