"""Machine-speed probes and the conversion to reference seconds.

The machine this benchmark was tuned on drifts by about 20% within a
minute, because other tenants share its two cores.  Every end-to-end timing
is therefore divided by a fixed probe timed just before and just after it:

    reference seconds = raw seconds * PROBE_REF / mean(probe before, probe after)

The probe never imports omlkit and is the same kind of process as the work
it normalizes: a fixed pure-Python computation for work done inside one
interpreter, and a fresh interpreter importing a fixed set of stdlib modules
for work that starts interpreters (CLI jobs, set-up).  An in-process probe
tracks interpreter start-up badly, so the two are never mixed.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# Reference probe times: the medians measured on the tuning machine
# (2 cores, Python 3.11).  They only fix the unit; any constant would do, but
# it must never change, or every stored result changes scale with it.
IN_PROCESS_REF_S = 0.022
SUBPROCESS_REF_S = 0.130

STDLIB_PROBE = ("import asyncio, email.mime.multipart, http.client, unittest, "
                "xml.dom.minidom, decimal, json, argparse, logging, pydoc")

# The in-process probe closes sets of elements of the Boolean algebra 2^5
# under meet, join and complement, with tables and a growing member list:
# the same kind of work as omlkit's inner loops, written here so that it
# never depends on omlkit.  A plain arithmetic loop tracked omlkit's jobs
# worse: across runs it moved more than they did.
_N = 32
_MEET = tuple(tuple(a & b for b in range(_N)) for a in range(_N))
_JOIN = tuple(tuple(a | b for b in range(_N)) for a in range(_N))
_COMPLEMENT = tuple(_N - 1 - a for a in range(_N))
_PROBE_ROUNDS = 9


def _closure(mask: int) -> int:
    members = [e for e in range(_N) if mask >> e & 1]
    i = 0
    while i < len(members):
        e = members[i]
        i += 1
        o = _COMPLEMENT[e]
        if not mask >> o & 1:
            mask |= 1 << o
            members.append(o)
        me, je = _MEET[e], _JOIN[e]
        for k in range(i):
            m = members[k]
            v = me[m]
            if not mask >> v & 1:
                mask |= 1 << v
                members.append(v)
            v = je[m]
            if not mask >> v & 1:
                mask |= 1 << v
                members.append(v)
    return mask


def in_process_probe() -> float:
    """Seconds for a fixed set of closures over 2^5's operation tables."""
    start = time.perf_counter()
    bounds = 1 | 1 << (_N - 1)
    seen = set()
    for _ in range(_PROBE_ROUNDS):
        for g in range(1, _N - 1):
            for h in range(g + 1, _N - 1, 3):
                seen.add(_closure(bounds | 1 << g | 1 << h))
    return time.perf_counter() - start


def subprocess_probe(env: dict) -> float:
    """Seconds for a fresh interpreter that imports a fixed stdlib set."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", STDLIB_PROBE], env=env, check=True,
                   stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def normalize(raw_s: float, before_s: float, after_s: float, ref_s: float) -> float:
    return raw_s * ref_s / ((before_s + after_s) / 2)


def child_env(root: str) -> dict:
    """Environment for every interpreter the benchmark starts: omlkit from
    the checkout's src/, nothing from the caller's PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env.pop("PYTHONSTARTUP", None)
    return env
