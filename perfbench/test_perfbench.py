"""Self-tests of the benchmark harness, kept apart from walklab's tests.

    python3 -m pytest -q perfbench/test_perfbench.py

They run the smoke size, which finishes in seconds.
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import tracing  # noqa: E402
import walklab  # noqa: E402
import workloads  # noqa: E402

SMOKE_LIMIT_S = 60


def run(workload, trace, *extra, cwd=ROOT):
    t0 = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0", "--trace", str(trace),
         "--size", "smoke", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300)
    return done, time.perf_counter() - t0


def result(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload,trace", [
    ("exact", 0), ("float", 0), ("bridges", 0), ("exact", 1), ("bridges", 1)])
def test_metrics_match_benchmark_json(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = {m["name"]: m["unit"]
                for m in spec["per_layer" if trace else "end_to_end"]}
    done, elapsed = run(workload, trace)
    out = result(done)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(isinstance(v["value"], (int, float))
               for v in out["metrics"].values())
    assert out["attempted"] >= 1 and out["correct"] is True
    # the tree b=10 NaN a_n cells, pinned in workloads.KNOWN_DEFECTS
    assert ("# KNOWN" in done.stdout) == (workload == "float")
    assert elapsed < SMOKE_LIMIT_S


def test_corrupted_digest_is_a_failure():
    ref = json.loads((HERE / "reference.json").read_text())
    reference = {**ref["exact_u"], **ref["digests"]["smoke"]}
    reference["exact/series-dl/n,u_n,f_n"] = "0" * 64
    p = workloads.run_pass("exact", "smoke", 3, 0, reference)
    assert [op for op, _ in p.failures] == [
        "exact/series-dl: n,u_n,f_n digest"]


class Recorder(workloads.Pass):
    def __init__(self):
        super().__init__("bridges", {}, record={})
        self.argvs = []

    def cli(self, argv):
        self.argvs.append(argv)
        return super().cli(argv)


def test_seed_reaches_both_levels_jobs():
    sizes = workloads.SIZES["bridges"]["smoke"]
    passed = {}
    for seed in (5, 6):
        p = Recorder()
        for job, fn in workloads.JOBS["bridges"]:
            p.job = job
            fn(p, sizes, lambda name: workloads.derived_seed(seed, 0, name))
        assert not p.failures, p.failures  # includes the header seed check
        passed[seed] = [int(a[a.index("--seed") + 1]) for a in p.argvs]
        assert len(passed[seed]) == 2
    assert passed[5] == [workloads.derived_seed(5, 0, j)
                         for j in ("levels-gp", "levels-dl")]
    assert set(passed[5]).isdisjoint(passed[6])


def test_tracer_restores_the_program():
    def snapshot():
        mods = [walklab] + [getattr(walklab, m) for m in tracing.LAYERS]
        out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
        for mod, classes in tracing.METHODS.items():
            for cls in classes:
                c = getattr(getattr(walklab, mod), cls)
                out.update({(cls, k): v for k, v in vars(c).items()})
        quad = walklab.qfield.QuadExt
        out.update({("QuadExt", k): v for k, v in vars(quad).items()})
        return out

    before = snapshot()
    tracer = tracing.Tracer()
    tracer.install(walklab)
    assert snapshot() != before
    tracer.uninstall()
    assert snapshot() == before


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done, _ = run("exact", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
