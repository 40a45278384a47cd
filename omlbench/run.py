"""omlkit benchmark: one workload, one seed, one run.

    python3 omlbench/run.py --workload enumerate --seed 1 --seconds 20 --trace 0

Workloads (see NOTES.md for why each was chosen):

* ``enumerate``: Sub, BSub and reconstruct calls on freshly relabeled
  lattices, in one process;
* ``search``: lift, determination and recovery queries from two relabeled
  lattices to a checked answer, in one process;
* ``cli-cold``: one fresh ``python -m omlkit.cli`` process per verb.

The run spawns the workload process several times to time set-up, then
lets the last one run a fixed number of passes over its fixed job list.
Every timing is converted to reference seconds with a probe of the same
process type taken right before and after it (``probes.py``).  Every answer
is checked against facts computed without omlkit; a wrong answer, an
exception or a non-zero CLI exit counts as failed and makes the exit code 1.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With --trace 0 the metrics are the end-to-end
metrics of BENCHMARK.json, with --trace 1 its per-layer metrics, taken from
one extra pass run under the outside-in tracer (``tracer.py``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import inputs
import probes
from tracer import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_REPS = 5
IMPORT_REPS = 5
WORKER_TIMEOUT_S = 150
IMPORT_PROBES = (("cli.import_s", "omlkit.cli"),
                 ("cli.import_sympy_s", "sympy.utilities.iterables"),
                 ("cli.import_networkx_s", "networkx"))


def fail(message: str) -> int:
    print(f"omlbench: {message}", file=sys.stderr)
    return 2


def time_setups(cmd: list, env: dict):
    """Spawn the worker SETUP_REPS times; return (reference set-up seconds,
    raw set-up seconds, the last worker, still waiting for ``go``)."""
    setups, raws = [], []
    proc = None
    for rep in range(SETUP_REPS):
        before = probes.subprocess_probe(env)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, env=env, stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "ready":
            proc.kill()
            proc.wait()
            raise RuntimeError("workload process did not start")
        raw = float(line[1]) - start
        after = probes.subprocess_probe(env)
        setups.append(probes.normalize(raw, before, after, probes.SUBPROCESS_REF_S))
        raws.append(raw)
        if rep < SETUP_REPS - 1:
            proc.communicate("stop\n", timeout=60)
    return setups, raws, proc


def import_probes(env: dict) -> dict:
    """Median reference seconds of each import in fresh interpreters."""
    times = {name: [] for name, _ in IMPORT_PROBES}
    for _ in range(IMPORT_REPS):
        for name, module in IMPORT_PROBES:
            code = (f"import time; t = time.perf_counter(); import {module}; "
                    "print(repr(time.perf_counter() - t))")
            before = probes.subprocess_probe(env)
            out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                                 capture_output=True, text=True).stdout
            after = probes.subprocess_probe(env)
            times[name].append(probes.normalize(float(out), before, after,
                                                probes.SUBPROCESS_REF_S))
    return {name: statistics.median(v) for name, v in times.items()}


def normalized(records, ref_s: float) -> list[float]:
    return [probes.normalize(r["raw_s"], r["before_s"], r["after_s"], ref_s) for r in records]


def pass_sums(records, values) -> list[float]:
    sums: dict = {}
    for r, v in zip(records, values):
        sums[r["pass"]] = sums.get(r["pass"], 0.0) + v
    return list(sums.values())


def tail(values) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it: returns
    (value, percentile).  Below eleven samples, the maximum."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def end_to_end(records, setups, peak_rss_kb, ref_s) -> tuple[dict, list[str]]:
    values = normalized(records, ref_s)
    tail_value, pct = tail(values)
    passes = pass_sums(records, values)
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(passes),
        "job_s_p50": statistics.median(values),
        "job_s_tail": tail_value,
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    notes = [f"setup_s: median of {len(setups)} set-ups",
             f"pass_s: median of {len(passes)} passes",
             f"job_s_p50: median of {len(values)} jobs",
             f"job_s_tail: p{pct:.1f} of {len(values)} jobs "
             f"({round(len(values) * (100 - pct) / 100)} above it)"]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="omlkit benchmark: one workload, one run")
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "omlkit", "__init__.py")):
        return fail(f"no omlkit sources under {os.path.join(ROOT, 'src')}")
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    env = probes.child_env(ROOT)
    # compile and cache omlkit's bytecode and warm the file cache, so that
    # the first timed set-up pays no more than the later ones
    if subprocess.run([sys.executable, "-c", "import omlkit.cli"], env=env).returncode:
        return fail("omlkit does not import")
    probes.subprocess_probe(env)

    cli = args.workload == "cli-cold"
    ref_s = probes.SUBPROCESS_REF_S if cli else probes.IN_PROCESS_REF_S
    passes = inputs.passes_for(args.workload, args.seconds)
    out_dir = os.path.join(HERE, "out", f"{args.workload}-s{args.seed}-t{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--passes", str(passes), "--trace", str(args.trace),
           "--out-dir", out_dir]

    try:
        setups, raw_setups, proc = time_setups(cmd, env)
    except RuntimeError as exc:
        return fail(str(exc))
    try:
        stdout, _ = proc.communicate("go\n", timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return fail(f"workload process took more than {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0 or not stdout.strip():
        return fail(f"workload process exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])

    records = result["records"]
    traced = result["traced"]["records"] if result["traced"] else []
    failures = [r for r in records + traced if r["error"]]
    for r in failures:
        print(f"FAILED pass {r['pass']} {r['job']}: {r['error']}", file=sys.stderr)

    values, notes = end_to_end(records, setups, result["peak_rss_kb"], ref_s)
    raw = [r["raw_s"] for r in records]
    values.update({
        "bench.probe_s": statistics.median(
            [r["before_s"] for r in records] + [r["after_s"] for r in records]),
        "bench.raw_pass_s": statistics.median(pass_sums(records, raw)),
    })
    notes.append(f"raw set-up {statistics.median(raw_setups):.4f} s, "
                 f"raw pass {values['bench.raw_pass_s']:.4f} s, "
                 f"probe {values['bench.probe_s']:.4f} s (reference {ref_s} s)")
    if traced:
        probe_means = [(r["before_s"] + r["after_s"]) / 2 for r in traced]
        scale = ref_s / statistics.median(probe_means)
        values.update(layer_metrics(result["traced"]["aggregate"], scale))
        values["bench.trace_overhead"] = sum(normalized(traced, ref_s)) / values["pass_s"]
        values.update(import_probes(env))

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        return fail(f"metrics not measured: {', '.join(missing)}")
    print(f"omlbench {args.workload} seed {args.seed}: {passes} passes of "
          f"{len(records) // passes} jobs, "
          f"{len(failures)} of {len(records) + len(traced)} jobs failed")
    for note in notes:
        print("  " + note)
    for m in spec["end_to_end"] + (spec["per_layer"] if args.trace else []):
        print(f"  {m['name']} = {values[m['name']]!r} {m['unit']}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(records) + len(traced),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
