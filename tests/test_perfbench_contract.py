"""The names the benchmark under perfbench/ binds in hermlat still work.

perfbench/tracing.py wraps hermlat functions and methods by name, and
perfbench/gate.py swaps ``transference.BundleChecks`` for a subclass and
re-checks the profiles it computed.  A rename or removal in hermlat that
breaks them fails here rather than only in a traced benchmark run.
"""

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import gate  # noqa: E402
import tracing  # noqa: E402
from hermlat import shipped_field, transference  # noqa: E402
from hermlat.transference import random_bundle  # noqa: E402


def test_traced_check_all_passes_the_gate():
    bundle = random_bundle(shipped_field("gaussian"), 2, np.random.default_rng(1))
    sink: list = []
    tracer = tracing.Tracer()
    tracer.install()
    transference.BundleChecks = gate.capturing_checks(sink)
    try:
        tracer.bundle = 0
        reports = transference.check_all(bundle)
    finally:
        transference.BundleChecks = gate.BundleChecks
        tracer.uninstall()
    assert gate.check_bundle(sink[-1], reports) == []
    assert tracing.layer_metrics(tracer, 1)["minima.nodes"] > 0
