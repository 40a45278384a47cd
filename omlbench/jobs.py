"""Running one job against omlkit, and checking its answer.

``run`` is the timed part: it starts from the job's raw inputs (bit-set
rows, or files for the CLI) and goes through omlkit's public API to an
answer, as a user would.  ``check`` compares that answer with the facts in
``job.expect``, which ``inputs`` computed without omlkit.  It returns None
for a correct answer and a short reason otherwise.

omlkit names are looked up on the package at call time, so a traced pass
goes through the tracer's wrappers.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time
from collections import Counter
from typing import Optional

import omlkit

from inputs import Job, map_mask


def run(job: Job):
    kind = job.kind
    if kind in ("sub", "bsub"):
        L = omlkit.FiniteOrtholattice(*job.inputs[0])
        return (omlkit.sub if kind == "sub" else omlkit.bsub)(L)
    if kind == "reconstruct":
        return omlkit.reconstruct(omlkit.AbstractPoset(job.inputs[0]))
    L = omlkit.FiniteOrtholattice(*job.inputs[0])
    M = omlkit.FiniteOrtholattice(*job.inputs[1])
    if kind in ("lift_sub", "lift_bsub"):
        boolean = kind == "lift_bsub"
        psi = job.inputs[2]
        sub_l = omlkit.enumerate_subalgebras(L, boolean_only=boolean)
        sub_m = omlkit.enumerate_subalgebras(M, boolean_only=boolean)
        phi = [sub_m.node_index(map_mask(node.members, psi)) for node in sub_l.nodes]
        lift = omlkit.lift_bsub_iso if boolean else omlkit.lift_sub_iso
        return lift(L, M, phi, sub_l, sub_m)
    if kind == "determination":
        return omlkit.verify_determination(L, M)
    if kind == "classify":
        return omlkit.classify_recovery(omlkit.morphism(L, M, job.inputs[2]))
    raise ValueError(f"unknown job kind {kind!r}")


def check(job: Job, result) -> Optional[str]:
    kind = job.kind
    if kind in ("sub", "bsub"):
        got = Counter(zip(result.heights, (node.members.bit_count() for node in result.nodes)))
        if tuple(sorted(got.items())) != job.expect:
            return f"{result.size} nodes with (height, size) profile {sorted(got.items())}"
        return None
    if kind == "reconstruct":
        size, atoms = job.expect
        if (result.n, result.is_orthomodular, len(result.atoms())) != (size, True, atoms):
            return f"rebuilt {result.n} elements, {len(result.atoms())} atoms, {result.flavor}"
        return None
    if kind in ("lift_sub", "lift_bsub"):
        got = [f.mapping for f in result]
        if len(got) != len(job.expect[0]) or set(got) != job.expect[0] \
                or any(f.kind != "iso" for f in result):
            return f"{len(got)} lifts, not the {len(job.expect[0])} expected"
        return None
    if kind == "determination":
        got = (result.posets_isomorphic, result.lattices_isomorphic,
               result.both_orthomodular, result.lifted_count, result.consistent)
        return None if got == job.expect else f"report {got}"
    if kind == "classify":
        got = (result.kind.value, result.image_size, result.unique)
        return None if got == job.expect and result.witness is None else f"report {got}"
    raise ValueError(f"unknown job kind {kind!r}")


# -- CLI jobs -----------------------------------------------------------------------

def write_cli_files(job: Job, directory: str):
    os.makedirs(directory, exist_ok=True)
    for name, text in job.inputs[1]:
        with open(os.path.join(directory, name), "w", encoding="utf-8") as fh:
            fh.write(text)


def run_cli(argv, directory: str, env: dict) -> tuple[float, int, int, str, str]:
    """Run one fresh interpreter; returns (seconds, exit code, peak RSS in KiB,
    stdout, stderr).  The child is reaped with wait4 to read its own peak RSS."""
    out_path = os.path.join(directory, "stdout.txt")
    err_path = os.path.join(directory, "stderr.txt")
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *argv], cwd=directory, env=env,
                                stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(out_path, encoding="utf-8") as fh:
        stdout = fh.read()
    with open(err_path, encoding="utf-8") as fh:
        stderr = fh.read()
    return seconds, proc.returncode, usage.ru_maxrss, stdout, stderr


def _lines(text: str) -> tuple[str, ...]:
    return tuple(text.splitlines())


def _label_masks(obj) -> tuple[int, ...]:
    return tuple(sorted(sum(1 << e for e in label) for label in obj["labels"]))


def _inclusion_pairs(masks) -> int:
    return sum(1 for s in masks for t in masks if not s & ~t)


def check_cli(job: Job, code: int, stdout: str, stderr: str) -> Optional[str]:
    if code != 0:
        return f"exit {code}: {stderr.strip()[-200:]}"
    verb, expect = job.name, job.expect
    try:
        if verb in ("validate", "check-sachs", "check-determination", "classify-hom"):
            ok = _lines(stdout) == expect
        elif verb == "catalog":
            obj = json.loads(stdout)
            ortho = obj["ortho"]
            ok = ((obj["size"], len(obj["leq"]), obj["name"]) == expect
                  and all(ortho[ortho[a]] == a != ortho[a] for a in range(obj["size"])))
        elif verb in ("sub", "bsub"):
            obj = json.loads(stdout)
            masks = _label_masks(obj)
            ok = masks == expect and len(obj["leq"]) == _inclusion_pairs(masks)
        elif verb == "blocks":
            got = tuple(sorted(sum(1 << int(e) for e in line.strip("{}").split(","))
                               for line in _lines(stdout)))
            ok = got == expect
        elif verb == "reconstruct":
            obj = json.loads(stdout)
            ok = (obj["size"], len(obj["leq"])) == expect
        elif verb in ("lift-bsub", "lift-sub"):
            got = [tuple(f["map"]) for f in json.loads(stdout)]
            ok = tuple(sorted(got)) == expect
        else:
            raise ValueError(f"unknown verb {verb!r}")
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {exc!r}"
    return None if ok else f"wrong output: {stdout[:200]!r}"

