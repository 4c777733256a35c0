"""Shared infrastructure for the benchmark suite.

Each ``bench_fig*.py`` regenerates one figure (or in-text claim) of the
paper at a reduced-but-faithful scale and prints the same rows/series the
paper reports.  Set ``REPRO_BENCH_SCALE=smoke|quick|full`` to trade
fidelity for wall time (default: quick).

The simulations are deterministic, so every figure bench runs a single
round: the timing numbers report harness cost, the printed tables report
the science.
"""

from __future__ import annotations

import os

import pytest

from repro.exec import Executor
from repro.experiments import Scale, run_experiment


def bench_scale() -> Scale:
    return Scale(os.environ.get("REPRO_BENCH_SCALE", "quick"))


def run_figure_benchmark(benchmark, exp_id: str, scale: Scale | None = None):
    """Run one registered experiment under pytest-benchmark and print its
    paper-figure output."""
    scale = scale or bench_scale()
    outcome = benchmark.pedantic(
        run_experiment,
        args=(exp_id,),
        kwargs={"scale": scale, "executor": Executor()},
        rounds=1,
        iterations=1,
    )
    header = (
        f"\n{'=' * 72}\n{exp_id}: {outcome.experiment.title} "
        f"[scale={scale.value}]\n"
        f"paper: {outcome.experiment.paper_ref}\n"
        f"expected shape: {outcome.experiment.expectation}\n{'=' * 72}"
    )
    print(header)
    print(outcome.rendered)
    return outcome


@pytest.fixture
def figure(benchmark):
    """Fixture wrapping run_figure_benchmark."""

    def _run(exp_id: str, scale: Scale | None = None):
        return run_figure_benchmark(benchmark, exp_id, scale)

    return _run
