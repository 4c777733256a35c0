"""Run the doc examples embedded in module docstrings.

Keeps every ``>>>`` snippet in the API documentation honest.
"""

import doctest

import pytest

import repro.analysis.fairness
import repro.analysis.queueing
import repro.analysis.theory
import repro.cluster.costmodel
import repro.core.engine
import repro.core.rng
import repro.core.units
import repro.data.cache
import repro.data.dataspace
import repro.data.intervals
import repro.perf.baseline
import repro.perf.report
import repro.perf.scale
import repro.sim.simulator
import repro.sim.streaming

MODULES = [
    repro.core.units,
    repro.core.rng,
    repro.core.engine,
    repro.data.intervals,
    repro.data.dataspace,
    repro.data.cache,
    repro.cluster.costmodel,
    repro.analysis.theory,
    repro.analysis.queueing,
    repro.analysis.fairness,
    repro.sim.simulator,
    repro.sim.streaming,
    repro.perf.report,
    repro.perf.baseline,
    repro.perf.scale,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{result.failed} doctest failures in {module.__name__}"
    # Most of these modules advertise examples; make sure they ran.
    if module is not repro.sim.simulator:
        assert result.attempted >= 0
