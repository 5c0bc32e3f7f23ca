"""walklab benchmark: closed-loop workloads with checked outputs.

    python3 perfbench/run.py --workload exact --seed 7 --seconds 30 --trace 0

Run from the root of a walklab source tree; the program is imported
from `src/`.  One process runs one workload with one client: the
workload's jobs run back to back, and the job list repeats until
`--seconds` have passed.  `--workload all` runs the three workloads one
after another, each in its own process.

With `--trace 0` every pass runs the unmodified program and the last
line of standard output is a JSON object whose metrics are the
end-to-end ones.  With `--trace 1` untraced and traced passes
alternate; the traced ones run with the wrappers of `tracing.py`
installed and the metrics are the per-layer ones, including the
tracing overhead (traced minus untraced median pass time).

`--size` picks input sizes: `bench` (default) fits the run length,
`full` is the size the workloads were first specified at, `smoke`
finishes in seconds.  A record of every run, with the environment and
the spans of the last traced pass, is written under `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

# BLAS and OpenMP pools, pinned before numpy is first imported (here and
# in every child); nproc is 2 on the sandbox the sizes were chosen on
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference.json"
NAMES = ("exact", "float", "bridges")
# fresh interpreters timed for `setup_s`, half before the passes and
# half after them, so that one slow stretch of the host skews fewer
SETUP_RUNS = 16
READY = ("import numpy, scipy, scipy.sparse, mpmath, walklab, walklab.cli; "
         "import time; print(repr(time.time())); "
         "from run import reference_time; print(repr(reference_time()[0]))")
# `setup_s` is rescaled to a machine on which the reference loop takes
# this long, about its fastest time on the sandbox the sizes were
# chosen on
REF_LOOP_S = 0.007
# the metrics of BENCHMARK.json, then raw times reported alongside them
END_TO_END = (("wall_ref", "refloop"), ("cpu_ref", "refloop"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
RAW_TIMES = (("wall_s", "s"), ("cpu_s", "s"), ("setup_raw_s", "s"))
CLI_COMMAND_NOTE = (
    "walklab's provenance header records sys.argv[1:] rather than the argv "
    "given to main() (src/walklab/cli.py, _provenance), so in-process CLI "
    "jobs show this process's own arguments, or \"\" when it has none")


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("bench", "full", "smoke"),
                    default="bench")
    return ap.parse_args(argv)


def child_env():
    return {**os.environ, "PYTHONPATH": os.pathsep.join((str(SRC), str(HERE)))}


def reference_loop():
    """Fixed pure-Python integer work, about 7 ms on a 2-core Xeon
    sandbox.  Timed around every job of an untraced pass and after every
    set-up, it tracks the speed the shared machine currently gives."""
    acc = 0
    for i in range(70_000):
        acc += i * i % 7
    return acc


def reference_time():
    """(wall, CPU) seconds of the fastest of three reference loops run
    back to back: a preemption inside one loop says nothing about the
    machine's speed."""
    times = []
    for _ in range(3):
        t0, c0 = time.perf_counter(), time.process_time()
        reference_loop()
        times.append((time.perf_counter() - t0, time.process_time() - c0))
    return min(w for w, _ in times), min(c for _, c in times)


def measure_setup():
    """Seconds from starting a fresh interpreter until walklab, numpy,
    scipy and mpmath are imported and ready, and the reference-loop
    time that interpreter measures next."""
    t0 = time.time()
    done = subprocess.run([sys.executable, "-c", READY], cwd=ROOT,
                          env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    ready, ref = (float(x) for x in done.stdout.split()[-2:])
    return ready - t0, ref


def stats(values):
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "n": len(values)}


def load_reference(size):
    """Reference digests for `size` plus the exact u_n values; an
    unreadable file gives an empty reference, so every digest check
    fails instead of the run."""
    try:
        with open(REFERENCE) as fh:
            ref = json.load(fh)
        return {**ref["exact_u"], **ref["digests"][size]}, None
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return {}, f"reference {REFERENCE.name} unreadable: {exc!r}"


def environment(cli_commands):
    import mpmath
    import numpy
    import scipy
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(str(f.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__, "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "thread_pins": THREAD_PINS,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "src_lines": lines,
        "src_files": len(files),
        "cli_header_command": sorted(set(map(str, cli_commands))),
        "cli_header_note": CLI_COMMAND_NOTE,
    }


def run_all(args):
    """Each workload in its own process, one after another."""
    code = 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()),
                "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--size", args.size]
        sys.stdout.flush()
        code = max(code, subprocess.run(argv, cwd=ROOT).returncode)
    return code


def run_workload(args):
    if not (SRC / "walklab" / "__init__.py").is_file():
        print(f"error: no walklab sources under {SRC}", file=sys.stderr)
        return 2
    measure_setup()  # warm-up: byte-compiles a fresh checkout
    setup = [measure_setup() for _ in range(SETUP_RUNS // 2)]

    sys.path.insert(0, str(SRC))
    import walklab
    if Path(walklab.__file__).resolve().parent != SRC / "walklab":
        print(f"error: imported walklab from {walklab.__file__}",
              file=sys.stderr)
        return 2
    import tracing
    import workloads

    reference, ref_error = load_reference(args.size)
    passes, tracers, failures = [], [], {}
    attempted = failed = 0
    cli_commands = []
    probes = []

    def probe():
        probes.append(reference_time())

    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        tracer = tracing.Tracer() if traced else None
        probes.clear()
        gc.collect()
        if tracer is not None:
            tracer.install(walklab)
        try:
            p = workloads.run_pass(args.workload, args.size, args.seed,
                                   len(passes), reference, tracer=tracer,
                                   probe=None if traced else probe)
        finally:
            if tracer is not None:
                tracer.uninstall()
        wall, cpu = sum(p.job_walls.values()), sum(p.job_cpus.values())
        if ref_error:
            p.attempted += 1
            p.failures.append(("reference", ref_error))
        attempted += p.attempted
        failed += len(p.failures)
        for failure in p.failures:
            failures[failure] = failures.get(failure, 0) + 1
        cli_commands += p.cli_commands
        entry = {"traced": traced, "wall_s": wall, "cpu_s": cpu,
                 "attempted": p.attempted, "failed": len(p.failures),
                 "jobs_s": p.job_walls}
        if probes:
            # each job in units of the mean of the probes either side of it
            brackets = list(zip(probes, probes[1:]))
            entry["wall_ref"] = sum(
                w / ((a[0] + b[0]) / 2)
                for w, (a, b) in zip(p.job_walls.values(), brackets))
            entry["cpu_ref"] = sum(
                c / ((a[1] + b[1]) / 2)
                for c, (a, b) in zip(p.job_cpus.values(), brackets))
        passes.append(entry)
        if tracer is not None:
            tracers.append((tracer, wall))
        enough = (any(not q["traced"] for q in passes)
                  and (tracers or not args.trace))
        typical = statistics.median(q["wall_s"] for q in passes)
        elapsed = time.perf_counter() - start
        if enough and elapsed + typical / 2 >= args.seconds:
            break
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += [measure_setup() for _ in range(SETUP_RUNS - len(setup))]

    plain = [q for q in passes if not q["traced"]]
    e2e = {name: stats([q[name] for q in plain])
           for name in ("wall_ref", "cpu_ref", "wall_s", "cpu_s")}
    e2e["setup_s"] = stats([raw * REF_LOOP_S / ref for raw, ref in setup])
    e2e["setup_raw_s"] = stats([raw for raw, _ in setup])
    e2e["peak_rss_mb"] = stats([rss_mb])
    units = dict(END_TO_END + RAW_TIMES)
    layer_units = dict(tracing.PER_LAYER)
    per_layer = {}
    if tracers:
        overhead = (statistics.median(w for _, w in tracers)
                    - e2e["wall_s"]["median"])
        rows = [t.metrics(w, overhead) for t, w in tracers]
        per_layer = {name: stats([r[name] for r in rows])
                     for name, _ in tracing.PER_LAYER}
    known = workloads.KNOWN_DEFECTS
    correct = all(failure in known for failure in failures)
    env = environment(cli_commands)

    print(f"# walklab perfbench: workload={args.workload} seed={args.seed} "
          f"size={args.size} seconds={args.seconds:g} trace={args.trace} "
          f"passes={len(plain)} untraced + {len(tracers)} traced")
    print("# env: " + json.dumps(env))
    shown = [(n, units[n], e2e[n]) for n in units]
    shown += [(n, layer_units[n], per_layer[n]) for n in per_layer]
    for name, unit, st in shown:
        print(f"# {name:32s} {unit:6s} median={st['median']:.6g} "
              f"q1={st['q1']:.6g} q3={st['q3']:.6g} n={st['n']}")
    print(f"# {'failed_ratio':32s} {'1':6s} value={failed / attempted:.6g} "
          f"(failed {failed} / attempted {attempted})")
    for (op, detail), count in failures.items():
        why = known.get((op, detail))
        tag = f"KNOWN ({why})" if why else "FAIL"
        print(f"# {tag} {op}: {detail} [{count} of {len(passes)} passes]")
    jobs = {j: statistics.median(q["jobs_s"][j] for q in plain)
            for j in plain[0]["jobs_s"]}
    print("# median job seconds: "
          + " ".join(f"{j}={t:.3f}" for j, t in jobs.items()))

    OUT.mkdir(exist_ok=True)
    record = OUT / (f"{args.workload}-{args.size}-seed{args.seed}"
                    f"-trace{args.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(args), "env": env, "end_to_end": e2e,
                   "per_layer": per_layer, "passes": passes,
                   "failures": [{"op": op, "detail": detail,
                                 "passes": count,
                                 "known": known.get((op, detail))}
                                for (op, detail), count in failures.items()],
                   "spans": tracers[-1][0].span_records() if tracers else []},
                  fh, indent=1)
    print(f"# record: {record.relative_to(ROOT)}")

    if args.trace:
        metrics = {n: {"value": per_layer[n]["median"], "unit": u}
                   for n, u in tracing.PER_LAYER}
    else:
        metrics = {n: {"value": e2e[n]["median"], "unit": u}
                   for n, u in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


def main(argv=None):
    args = parse_args(argv)
    os.environ.update(THREAD_PINS)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
