"""Kernel-throughput smoke via the ``repro.perf`` harness.

The committed-baseline regression check lives in ``repro bench`` (see
docs/PERFORMANCE.md); this wrapper makes the same micro-benchmarks
runnable from the legacy ``benchmarks/`` suite so one ``pytest
benchmarks/`` sweep still covers figures, obs overhead *and* kernel
throughput.  It runs the quick variant (small workloads, few repeats)
and asserts structural sanity — every record present, positive work,
positive throughput — rather than absolute numbers, which belong to the
baseline comparison in CI.

Run as a script (``PYTHONPATH=src python benchmarks/bench_perf_harness.py``)
or under pytest (``pytest benchmarks/bench_perf_harness.py``).
"""

from __future__ import annotations

from repro.perf import render_report, run_kernel_bench
from repro.perf.bench import KERNEL_BENCHES


def bench_perf_kernel_quick():
    report = run_kernel_bench(quick=True)
    print("\n" + render_report(report))
    names = [record.name for record in report.records]
    assert names == [name for name, _, _ in KERNEL_BENCHES], names
    for record in report.records:
        assert record.work > 0, record
        assert record.wall_seconds > 0, record
        assert record.throughput > 0, record


if __name__ == "__main__":
    bench_perf_kernel_quick()
    print("OK")
