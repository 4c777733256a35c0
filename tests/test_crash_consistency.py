"""Crash-consistency tests for the execution layer.

A sweep process can die at any instant — SIGKILL admits no cleanup — and
the one durable artifact it leaves behind, the content-addressed result
cache, must never poison a later run:

* a partially written cache entry is a plain miss, never a bad payload;
* rerunning the sweep after any such death re-runs exactly the missing
  work and produces byte-identical sweep output.
"""

import os
import signal
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.core import units
from repro.exec import Executor, make_cache, spec_fingerprint
from repro.sim.config import quick_config
from repro.sim.runner import load_sweep, run_sweep

#: The ``src`` directory the killed subprocess imports ``repro`` from.
_SRC = Path(__file__).resolve().parents[1] / "src"

#: The workload every test (and the killed subprocess) sweeps — small
#: enough for milliseconds, three points so a partial run is visible.
_LOADS = [0.5, 1.0, 1.5]
_SEED = 5


def _specs():
    return load_sweep(
        quick_config(duration=units.DAY, seed=_SEED), "farm", _LOADS
    )


def _reference_json(tmp_path):
    """The byte-exact sweep output of an uninterrupted run."""
    sweep = run_sweep(
        _specs(), executor=Executor(jobs=1, cache=make_cache(tmp_path / "ref"))
    )
    return sweep.to_json()


class TestSigkillMidSweep:
    def test_resume_after_sigkill_is_bit_identical(self, tmp_path):
        cache_dir = tmp_path / "store"
        child = textwrap.dedent(
            f"""
            import os, signal
            from repro.core import units
            from repro.exec import Executor, make_cache
            from repro.sim.config import quick_config
            from repro.sim.runner import load_sweep

            specs = load_sweep(
                quick_config(duration=units.DAY, seed={_SEED}),
                "farm", {_LOADS!r},
            )

            def kill_after_first(progress):
                # The first slot's cache payload is already durable; die
                # the hard way mid-sweep.
                os.kill(os.getpid(), signal.SIGKILL)

            Executor(jobs=1, cache=make_cache({str(cache_dir)!r})).run(
                specs, progress=kill_after_first
            )
            """
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = str(_SRC)
        proc = subprocess.run(
            [sys.executable, "-c", child], env=env, cwd=tmp_path,
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == -signal.SIGKILL, proc.stderr

        # The kill left exactly one completed payload behind.
        assert len(list(make_cache(cache_dir).store_dir.rglob("*.pkl"))) == 1

        # Running the same sweep again continues it from the cache.
        sweep = run_sweep(
            _specs(), executor=Executor(jobs=1, cache=make_cache(cache_dir))
        )
        assert sweep.stats.cache_hits == 1
        assert sweep.stats.executed == 2
        assert sweep.to_json() == _reference_json(tmp_path)


class TestPartialCacheEntry:
    def test_truncated_pickle_is_a_miss_and_rerun_identical(self, tmp_path):
        cache_dir = tmp_path / "store"
        cache = make_cache(cache_dir)
        specs = _specs()
        run_sweep(specs, executor=Executor(jobs=1, cache=cache))

        # Truncate one stored payload to half its bytes — the artifact
        # of a write that died without reaching the atomic rename (or of
        # a torn copy from another filesystem).
        victim = cache.path_for(
            spec_fingerprint(specs[1], cache.schema_version)
        )
        blob = victim.read_bytes()
        victim.write_bytes(blob[: len(blob) // 2])

        sweep = run_sweep(
            specs, executor=Executor(jobs=1, cache=make_cache(cache_dir))
        )
        assert sweep.stats.cache_hits == 2
        assert sweep.stats.executed == 1
        assert sweep.to_json() == _reference_json(tmp_path)

    def test_stray_tmp_file_from_killed_put_is_invisible(self, tmp_path):
        cache = make_cache(tmp_path / "store")
        fp = "ab" + "0" * 62
        path = cache.path_for(fp)
        path.parent.mkdir(parents=True)
        # A put() killed before os.replace leaves only the temp file.
        path.with_suffix(".tmp.12345").write_bytes(b"half a pickle")
        assert cache.get(fp) is None
        cache.put(fp, {"ok": True})
        assert cache.get(fp) == {"ok": True}
