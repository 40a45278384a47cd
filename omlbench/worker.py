"""The workload process: set up, wait for the go signal, run the passes.

Started by ``run.py``, which times set-up from the spawn to the ``ready``
line printed here.  Set-up is interpreter start, ``import omlkit`` and the
inputs of the first pass.  After ``go`` on stdin the worker runs the
untraced passes, then (with --trace 1) one traced pass on its own
labelings, and prints one JSON line with every job's raw seconds, the
probes around it and the outcome of its answer check.

One job at a time, one client, closed loop: the next job starts when the
previous answer has been checked.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import omlkit  # noqa: E402,F401  (part of the timed set-up)

import inputs  # noqa: E402
import jobs  # noqa: E402
import probes  # noqa: E402
from tracer import Tracer, merge  # noqa: E402

RUNNER = os.path.join(HERE, "cli_runner.py")


class Worker:
    def __init__(self, workload: str, seed: int, out_dir: str):
        self.cli = workload == "cli-cold"
        self.stream = inputs.JobStream(workload, seed)
        self.out_dir = out_dir
        self.env = probes.child_env(ROOT)
        self.peak_child_rss_kb = 0
        self._prepared: set = set()

    def prepare(self, pass_index) -> list:
        """Generate a pass's jobs (and for the CLI, write their files)."""
        batch = self.stream.jobs(pass_index)
        if self.cli and pass_index not in self._prepared:
            for j, job in enumerate(batch):
                jobs.write_cli_files(job, self._job_dir(pass_index, j, job))
        self._prepared.add(pass_index)
        return batch

    def _job_dir(self, pass_index, j, job) -> str:
        return os.path.join(self.out_dir, f"{pass_index}-{j}-{job.name}")

    def run_pass(self, pass_index, tracer=None) -> list[dict]:
        return [self._run_one(pass_index, j, job, tracer)
                for j, job in enumerate(self.prepare(pass_index))]

    def _run_one(self, pass_index, j, job, tracer) -> dict:
        if self.cli:
            return self._run_cli(pass_index, j, job, tracer)
        gc.collect()
        before = probes.in_process_probe()
        if tracer is not None:
            tracer.install()
        start = time.perf_counter()
        try:
            result = jobs.run(job)
            error = None
        except Exception as exc:   # a failing job is counted, not fatal
            error = f"{type(exc).__name__}: {exc}"
        raw = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
        after = probes.in_process_probe()
        if error is None:
            try:
                error = jobs.check(job, result)
            except Exception as exc:
                error = f"answer unreadable: {type(exc).__name__}: {exc}"
        return {"pass": pass_index, "job": job.name, "raw_s": raw,
                "before_s": before, "after_s": after, "error": error}

    def _run_cli(self, pass_index, j, job, tracer) -> dict:
        directory = self._job_dir(pass_index, j, job)
        argv = ["-m", "omlkit.cli", *job.inputs[0]]
        agg_path = os.path.join(directory, "trace.json")
        if tracer is not None:
            if os.path.exists(agg_path):
                os.remove(agg_path)
            argv = [RUNNER, agg_path, os.path.join(directory, "spans.json.gz"),
                    *job.inputs[0]]
        before = probes.subprocess_probe(self.env)
        raw, code, rss_kb, stdout, stderr = jobs.run_cli(argv, directory, self.env)
        after = probes.subprocess_probe(self.env)
        error = jobs.check_cli(job, code, stdout, stderr)
        record = {"pass": pass_index, "job": job.name, "raw_s": raw,
                  "before_s": before, "after_s": after, "error": error}
        if tracer is None:
            self.peak_child_rss_kb = max(self.peak_child_rss_kb, rss_kb)
        elif error is None:
            with open(agg_path, encoding="utf-8") as fh:
                record["trace"] = json.load(fh)
        return record


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--passes", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)

    worker = Worker(args.workload, args.seed, args.out_dir)
    worker.prepare(0)
    print(f"ready {time.perf_counter()!r}", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    records = []
    for p in range(args.passes):
        records.extend(worker.run_pass(p))
    rss_kb = worker.peak_child_rss_kb if worker.cli else \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"records": records, "peak_rss_kb": rss_kb, "traced": None}
    if args.trace:
        tracer = Tracer()
        traced = worker.run_pass(inputs.TRACE_PASS, tracer)
        if worker.cli:
            agg = merge(r.pop("trace") for r in traced if "trace" in r)
        else:
            agg = tracer.aggregate()
            tracer.write_spans(os.path.join(args.out_dir, "spans.json.gz"))
        out["traced"] = {"records": traced, "aggregate": agg}
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
