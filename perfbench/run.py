"""Closed-loop end-to-end and per-layer benchmark of srcox.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

One client in one process runs the workload's ops one after another,
each starting when the previous one ends, in whole rounds until
``--seconds`` of wall time have passed (see workloads.py for the
rounds).  No srcox thread option is used.  Every answer is checked
outside its timed interval; an op fails if it raises, exits with an
unexpected code or fails its check.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` installs the
wrappers of layers.py and prints the per-layer metrics instead.  The last
line of standard output is the JSON result; the line before it holds
the details (environment, shape counts of the first round, failures).

``setup_s`` is the median over seven set-ups (this process and six
fresh ones) of the time to import srcox and to generate and write the
first round's inputs.  ``--workload all`` runs every workload untraced
and traced, each in a fresh process, and prints one summary with the
tracing overhead.
"""

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("scan", "props", "quotient")
SETUP_SAMPLES = 7

E2E_UNITS = {
    "ops_per_s": "ops/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def import_srcox():
    """Import srcox from this checkout's src/, never from elsewhere."""
    if not (SRC / "srcox" / "__init__.py").is_file():
        sys.exit(f"perfbench: no srcox sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import srcox
    if Path(srcox.__file__).resolve().parent != SRC / "srcox":
        sys.exit(f"perfbench: imported srcox from {srcox.__file__}")
    return srcox


def set_up(name, seed, workdir):
    """Import srcox, create the workload and its first round."""
    t0 = time.perf_counter()
    import_srcox()
    import workloads
    workload = workloads.WORKLOADS[name](seed, str(workdir))
    first = workload.round(0)
    return workload, first, time.perf_counter() - t0


def fresh_workdir(tag):
    path = WORK / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=False)
    return path


def remove_workdir(path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


def setup_in_fresh_process(name, seed):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def measure(workload, first, seconds, tracer):
    """Run whole rounds until `seconds` of wall time have passed."""
    latencies, failures = [], []
    attempted = 0
    construct_s = 0.0
    keys_seen = set()
    shape = {"ops_by_kind": {}, "repeats": 0, "ball_elements": 0,
             "image_group_orders": [], "construct_vertices": 0}
    ops = first
    rounds = 0
    start = time.perf_counter()
    while True:
        for op in ops:
            attempted += 1
            if tracer is not None:
                tracer.begin(op.kind)
            error = None
            t0 = time.perf_counter()
            try:
                result = op.run()
            except Exception as e:  # any raise is a failed op
                error = e
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.end()
            latencies.append(dt)
            if op.kind == "construct":
                construct_s += dt
            counts = {}
            if error is None:
                try:
                    counts = op.check(result)
                except Exception as e:  # a failed check, or a malformed answer
                    error = e
            if error is not None:
                failures.append(f"{op.kind}: {type(error).__name__}: {error}")
            if rounds == 0:
                kinds = shape["ops_by_kind"]
                kinds[op.kind] = kinds.get(op.kind, 0) + 1
                shape["repeats"] += op.key in keys_seen
                keys_seen.add(op.key)
                shape["ball_elements"] += counts.get("ball_elements", 0)
                if "image_group_order" in counts:
                    shape["image_group_orders"].append(
                        counts["image_group_order"])
                shape["construct_vertices"] += counts.get(
                    "construct_vertices", 0)
        rounds += 1
        if rounds == 1:
            shape["ops"] = attempted
            shape["repeat_share"] = shape.pop("repeats") / attempted
            shape["image_group_orders"].sort()
            if tracer is not None:
                shape["subsets_scanned"] = tracer.counts.get(
                    "homology.integral_subset_scan.subsets", 0)
                shape["snf_calls"] = tracer.calls(
                    "exact_linalg.smith_normal_form")
                shape["snf_entries"] = tracer.snf[0]
        if time.perf_counter() - start >= seconds:
            break
        ops = workload.round(rounds)
    return {
        "latencies": latencies,
        "attempted": attempted,
        "failures": failures,
        "rounds": rounds,
        "wall_s": time.perf_counter() - start,
        "construct_s": construct_s,
        "shape": shape,
    }


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    import platform
    return platform.processor() or platform.machine()


def git_commit():
    """Commit of the checkout, read from .git without running git; None
    when the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = ROOT / ".git" / ref
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(
                encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "srcox").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def python_loop_s():
    """Best of three timings of a fixed pure-Python loop: a probe of how
    fast this machine ran Python during the run, which does not depend on
    srcox."""
    best = None
    for _ in range(3):
        t0 = time.perf_counter()
        total = 0
        for i in range(1_000_000):
            total += i
        dt = time.perf_counter() - t0
        best = dt if best is None else min(best, dt)
    return best


def environment(seed):
    import numpy
    try:
        import numba  # noqa: F401
        numba_imports = True
    except ImportError:
        numba_imports = False
    kernels = sys.modules.get("srcox._kernels")
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "numba_imports": numba_imports,
        "srcox_use_jit": getattr(kernels, "USE_JIT", None),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "seed": seed,
        "git_commit": git_commit(),
        "srcox_sha256": source_digest(),
        "python_loop_s": python_loop_s(),
    }


def layer_unit(metric):
    stat = metric.rsplit(".", 1)[-1]
    if stat.endswith("_s"):
        return "s"
    if stat.endswith(("share", "ratio")):
        return "ratio"
    return "count"


def run_workload(args):
    workdir = fresh_workdir(args.workload)
    try:
        workload, first, own_setup = set_up(args.workload, args.seed, workdir)
        import layers
        tracer = None
        if args.trace:
            tracer = layers.Tracer()
            tracer.install()
        run = measure(workload, first, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        wrapped = layers.wrapped_bindings()
        if tracer is None and wrapped:
            run["failures"].append(
                f"untraced run sees wrapped bindings: {wrapped}")
        setups = [own_setup] + [setup_in_fresh_process(args.workload,
                                                       args.seed)
                                for _ in range(SETUP_SAMPLES - 1)]
    finally:
        remove_workdir(workdir)

    lat = run["latencies"]
    failed = len(run["failures"])
    attempted = run["attempted"]
    op_time = sum(lat)
    ops_per_s = (attempted - failed) / op_time
    deciles = statistics.quantiles(lat, n=10, method="inclusive")
    e2e = {
        "ops_per_s": ops_per_s,
        "latency_p50_s": statistics.median(lat),
        "latency_p90_s": deciles[8],
        "setup_s": statistics.median(setups),
        "peak_rss_mb": peak_rss_mb,
    }
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": run["rounds"],
        "samples": len(lat),
        "beyond_p90": sum(1 for x in lat if x > deciles[8]),
        "wall_s": run["wall_s"],
        "op_time_s": op_time,
        "ops_per_s": ops_per_s,
        "failed_frac": failed / attempted,
        "setup_samples_s": setups,
        "environment": environment(args.seed),
        "shape_first_round": run["shape"],
        "failures": run["failures"][:20],
    }
    if tracer is None:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in e2e.items()}
    else:
        values = tracer.layer_metrics(op_time, run["construct_s"])
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in values.items()}
        detail["traced_bindings"] = wrapped
        detail["missing_traced_functions"] = tracer.missing
    detail["end_to_end"] = e2e

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"rounds {run['rounds']}  wall {run['wall_s']:.1f} s")
    for k, v in e2e.items():
        note = ""
        if k == "ops_per_s":
            note = f"{attempted - failed} ops / {op_time:.3f} s op time"
        elif k.startswith("latency"):
            note = f"{len(lat)} samples"
            if k == "latency_p90_s":
                note += f", {detail['beyond_p90']} beyond"
        elif k == "setup_s":
            note = f"median of {len(setups)} set-ups"
        print(f"  {k:<16}{v:>12.4f}  {E2E_UNITS[k]:<6} {note}")
    print(f"  {'failed_frac':<16}{failed / attempted:>12.4f}  ratio  "
          f"{failed} failed / {attempted} attempted")
    for msg in run["failures"][:5]:
        print(f"  FAILED {msg}")
    if tracer is not None:
        for k, v in metrics.items():
            if v["value"]:
                print(f"  {k:<52}{v['value']:>14.6g} {v['unit']}")
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


def run_child(name, seed, seconds, trace_on):
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace_on)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{name} run failed: {proc.stderr.strip()}")
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def run_all(args):
    summary = {}
    ok = True
    for name in WORKLOAD_NAMES:
        plain, plain_res = run_child(name, args.seed, args.seconds, 0)
        traced, traced_res = run_child(name, args.seed, args.seconds, 1)
        per_layer = {k: v["value"] for k, v in traced_res["metrics"].items()}
        overhead = 1 - traced["ops_per_s"] / plain["ops_per_s"]
        ok = ok and plain_res["correct"] and traced_res["correct"]
        print(f"{name}: {plain['samples']} ops in {plain['rounds']} rounds, "
              f"{plain_res['failed']} failed of {plain_res['attempted']}")
        for k, v in plain["end_to_end"].items():
            print(f"  {k:<16}{v:>12.4f}  {E2E_UNITS[k]}")
        print(f"  {'failed_frac':<16}{plain['failed_frac']:>12.4f}  ratio")
        print(f"  {'trace_overhead':<16}{overhead:>12.4f}  ratio  "
              f"traced {traced['ops_per_s']:.4f} ops/s")
        snf = per_layer["exact_linalg.smith_normal_form.self_s"]
        op_time = per_layer["ops.time_s"]
        print(f"  traced shares of op time {op_time:.2f} s: "
              f"smith_normal_form {snf / op_time:.3f}, "
              f"exact_linalg {per_layer['exact_linalg.op_share']:.4f}, "
              f"largeness+minimal_nonfaces of construct op time "
              f"{per_layer['complex_core.construct_share']:.3f}")
        print(f"  shape of round 0: {json.dumps(traced['shape_first_round'])}")
        summary[name] = {"end_to_end": plain["end_to_end"],
                         "failed_frac": plain["failed_frac"],
                         "samples": plain["samples"],
                         "trace_overhead": overhead,
                         "per_layer": per_layer,
                         "shape_first_round": traced["shape_first_round"],
                         "environment": plain["environment"]}
    print(json.dumps({"correct": ok, "workloads": summary}, sort_keys=True))


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.workload == "all":
        run_all(args)
    elif args.setup_only:
        workdir = fresh_workdir(f"setup-{args.workload}")
        try:
            _, _, seconds = set_up(args.workload, args.seed, workdir)
        finally:
            remove_workdir(workdir)
        print(json.dumps({"setup_s": seconds}))
    else:
        run_workload(args)


if __name__ == "__main__":
    main()
