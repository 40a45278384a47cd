"""Inputs, job lists and expected answers for the omlkit benchmark.

Nothing here imports omlkit.  Lattices are built from their definitions as
bit-set rows, every job gets its own random relabeling, and every expected
answer comes from combinatorics that do not run the code under test: Bell
and Stirling numbers for Sub and BSub, products over horizontal summands,
2^(four-element blocks) lift multiplicities built from the known relabeling,
and recovery kinds read off the image size.

A run's job list is a pure function of (workload, seed, pass index): the
random generator of job j in pass p is seeded from those values only, and a
relabeling already used earlier in the run is redrawn, so no input repeats
within a run.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

WORKLOADS = ("enumerate", "search", "cli-cold")
TRACE_PASS = "trace"


# -- combinatorics -------------------------------------------------------------

@lru_cache(maxsize=None)
def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind: partitions of n items into k blocks."""
    if n == k:
        return 1
    if k == 0 or k > n:
        return 0
    return k * stirling2(n - 1, k) + stirling2(n - 1, k - 1)


def bell(n: int) -> int:
    return sum(stirling2(n, k) for k in range(n + 1))


def set_partitions(n: int) -> list[tuple[int, ...]]:
    """All partitions of {0..n-1}, each as a tuple of block bit masks.

    Restricted growth strings: item i goes to an existing block or opens the
    next one.
    """
    out = []

    def grow(i: int, blocks: list[int]):
        if i == n:
            out.append(tuple(blocks))
            return
        for b in range(len(blocks)):
            blocks[b] |= 1 << i
            grow(i + 1, blocks)
            blocks[b] &= ~(1 << i)
        blocks.append(1 << i)
        grow(i + 1, blocks)
        blocks.pop()

    grow(0, [])
    return out


def bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


# -- horizontal sums of Boolean algebras ----------------------------------------

@dataclass(frozen=True)
class HSum:
    """hsum(2^k1, ..., 2^km): Boolean blocks glued at their bounds.

    ``2^k`` alone is the one-summand case and ``MOk`` is k summands 2^2.
    Element 0 is the bottom, n-1 the top; summand i's inner elements (the
    atom subsets other than empty and full) follow each other in subset order.
    """

    atoms: tuple[int, ...]

    @property
    def label(self) -> str:
        if len(self.atoms) == 1:
            return f"2^{self.atoms[0]}"
        if set(self.atoms) == {2}:
            return f"MO{len(self.atoms)}"
        return "hsum(" + ",".join(f"2^{k}" for k in self.atoms) + ")"

    @property
    def n(self) -> int:
        return 2 + sum((1 << k) - 2 for k in self.atoms)

    def element(self, summand: int, subset: int) -> int:
        k = self.atoms[summand]
        if subset == 0:
            return 0
        if subset == (1 << k) - 1:
            return self.n - 1
        return 1 + sum((1 << j) - 2 for j in self.atoms[:summand]) + subset - 1

    @lru_cache(maxsize=None)
    def rows(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        n, top = self.n, self.n - 1
        up = [0] * n
        ortho = [0] * n
        up[0], ortho[0] = (1 << n) - 1, top
        up[top], ortho[top] = 1 << top, 0
        for i, k in enumerate(self.atoms):
            full = (1 << k) - 1
            for s in range(1, full):
                row = 1 << top
                for t in range(1, full):
                    if s & t == s:
                        row |= 1 << self.element(i, t)
                up[self.element(i, s)] = row
                ortho[self.element(i, s)] = self.element(i, full ^ s)
        return tuple(up), tuple(ortho)

    def _part_mask(self, summand: int, partition: tuple[int, ...]) -> int:
        """Inner elements of the subalgebra of summand ``summand`` whose atoms
        are the joins of the partition's blocks."""
        mask = 0
        for choice in range(1, (1 << len(partition)) - 1):
            subset = 0
            for b in bits(choice):
                subset |= partition[b]
            mask |= 1 << self.element(summand, subset)
        return mask

    @lru_cache(maxsize=None)
    def sub_nodes(self) -> tuple[int, ...]:
        """Element masks of all subalgebras: one subalgebra per summand, glued."""
        bounds = 1 | 1 << (self.n - 1)
        per_summand = [[self._part_mask(i, p) for p in set_partitions(k)]
                       for i, k in enumerate(self.atoms)]
        return tuple(sorted(bounds | sum(parts)
                            for parts in itertools.product(*per_summand)))

    @lru_cache(maxsize=None)
    def bsub_nodes(self) -> tuple[int, ...]:
        """Element masks of the Boolean subalgebras: each lies in one summand."""
        bounds = 1 | 1 << (self.n - 1)
        out = {bounds}
        for i, k in enumerate(self.atoms):
            out.update(bounds | self._part_mask(i, p) for p in set_partitions(k))
        return tuple(sorted(out))

    def sub_profile(self) -> Counter:
        """(height, size) -> node count of Sub, from Stirling numbers only.

        A subalgebra picks b_i atoms in summand i; it has height sum(b_i - 1)
        and 2 + sum(2^b_i - 2) elements.
        """
        out = Counter()
        for bs in itertools.product(*(range(1, k + 1) for k in self.atoms)):
            count = 1
            for k, b in zip(self.atoms, bs):
                count *= stirling2(k, b)
            out[(sum(b - 1 for b in bs), 2 + sum((1 << b) - 2 for b in bs))] += count
        return out

    def bsub_profile(self) -> Counter:
        out = Counter({(0, 2): 1})
        for k in self.atoms:
            for b in range(2, k + 1):
                out[(b - 1, 1 << b)] += stirling2(k, b)
        return out

    def four_blocks(self) -> list[tuple[int, int]]:
        """The atom pair of every four-element block (2^2 summand)."""
        return [(self.element(i, 1), self.element(i, 2))
                for i, k in enumerate(self.atoms) if k == 2]


def example22_rows() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Two 8-element blocks {a,b,c} and {c,d,e} pasted along the pair c, c'.

    Atoms a..e are 1..5, their complements 6..10, top 11.  An atom x lies
    below the coatom y' exactly when x and y are distinct atoms of one block.
    """
    blocks = ({1, 2, 3}, {3, 4, 5})
    n = 12
    up = [(1 << n) - 1] + [0] * (n - 1)
    for x in range(1, 11):
        up[x] = 1 << x | 1 << 11
    up[11] = 1 << 11
    for x in range(1, 6):
        for y in range(1, 6):
            if x != y and any(x in b and y in b for b in blocks):
                up[x] |= 1 << (y + 5)
    ortho = [11] + [x + 5 for x in range(1, 6)] + [x - 5 for x in range(6, 11)] + [0]
    return tuple(up), tuple(ortho)


EXAMPLE22_BLOCKS = tuple(sum(1 << e for e in block) for block in (
    (0, 1, 2, 3, 6, 7, 8, 11), (0, 3, 4, 5, 8, 9, 10, 11)))


def example22_bsub_nodes() -> tuple[int, ...]:
    bounds = 1 | 1 << 11
    pairs = [bounds | 1 << x | 1 << (x + 5) for x in range(1, 6)]
    return tuple(sorted([bounds, *pairs, *EXAMPLE22_BLOCKS]))


# -- relabeling ----------------------------------------------------------------------

def inner_permutation(rng: random.Random, n: int) -> tuple[int, ...]:
    """A random permutation of 0..n-1 fixing 0 and n-1."""
    inner = list(range(1, n - 1))
    rng.shuffle(inner)
    return (0, *inner, n - 1)


def relabel_rows(rows, perm) -> tuple[tuple[int, ...], tuple[int, ...]]:
    up, ortho = rows
    new_up = [0] * len(up)
    new_ortho = [0] * len(up)
    for i, row in enumerate(up):
        new_up[perm[i]] = map_mask(row, perm)
        new_ortho[perm[i]] = perm[ortho[i]]
    return tuple(new_up), tuple(new_ortho)


def map_mask(mask: int, perm) -> int:
    out = 0
    for e in bits(mask):
        out |= 1 << perm[e]
    return out


def bare_order(rng: random.Random, masks) -> tuple[int, ...]:
    """The inclusion order on ascending element masks as bit-set rows, with
    every node but the bottom (node 0) relabeled at random."""
    perm = (0, *rng.sample(range(1, len(masks)), len(masks) - 1))
    rows = [0] * len(masks)
    for i, s in enumerate(masks):
        rows[perm[i]] = sum(1 << perm[j] for j, t in enumerate(masks) if not s & ~t)
    return tuple(rows)


def compose(perm_l, perm_m) -> tuple[int, ...]:
    """psi = perm_m o perm_l^-1: the isomorphism between two relabelings of
    one base lattice."""
    psi = [0] * len(perm_l)
    for i in range(len(perm_l)):
        psi[perm_l[i]] = perm_m[i]
    return tuple(psi)


def lift_set(perm_l, perm_m, four_blocks) -> frozenset:
    """Every isomorphism L -> M between two relabelings of one base lattice
    that realizes the node map of psi = perm_m o perm_l^-1: psi itself with
    any subset of the four-element blocks' atom pairs swapped."""
    out = set()
    for swaps in itertools.product((False, True), repeat=len(four_blocks)):
        swapped = list(perm_m)
        for (p, q), swap in zip(four_blocks, swaps):
            if swap:
                swapped[p], swapped[q] = perm_m[q], perm_m[p]
        out.add(compose(perm_l, swapped))
    return frozenset(out)


# -- jobs ----------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One timed query.  ``inputs`` is what the program receives; ``expect``
    holds the facts the answer is checked against."""

    name: str
    kind: str
    inputs: tuple
    expect: tuple


def _hs(*atoms: int) -> HSum:
    return HSum(tuple(atoms))


# Job templates per workload, in pass order.  A repeated template is one job
# type drawn several times per pass, on fresh labelings, so that the median
# and the tail fall in the middle of its cluster of durations: in enumerate,
# sub(hsum(2^4,2^4)) carries the median; in search, classify carries the
# median and lift_bsub on hsum(2^5,2^5) the tail (see NOTES.md).
ENUMERATE = (
    ("sub", _hs(5)),
    ("sub", _hs(4, 4)),
    ("bsub", _hs(6)),
    ("reconstruct", _hs(3, 3, 3, 2, 2, 2)),
    ("sub", _hs(4, 4)),
    ("sub", _hs(2, 2, 2, 2, 2, 2, 2, 2)),
    ("sub", _hs(4, 4, 2)),
    ("bsub", _hs(5, 5)),
    ("sub", _hs(4, 4)),
    ("sub", _hs(3, 3, 3)),
    ("reconstruct", _hs(3, 3, 3, 3, 2, 2, 2)),
)

SEARCH = (
    ("lift_bsub", _hs(5, 5)),
    ("determination", _hs(3, 3, 3), _hs(3, 3, 3)),
    ("classify", _hs(3), _hs(5)),
    ("lift_sub", _hs(4, 4)),
    ("determination", _hs(3, 3, 3, 3, 3), _hs(4, 4, 2)),
    ("lift_sub", _hs(2, 2, 2, 2, 2, 2)),
    ("classify", _hs(3), _hs(5)),
    ("lift_bsub", _hs(5, 5)),
    ("determination", _hs(4, 4), _hs(4, 4)),
    ("lift_sub", _hs(3, 3, 3)),
)

CLI_VERBS = ("validate", "catalog", "sub", "bsub", "blocks", "reconstruct", "lift-bsub",
             "lift-sub", "check-sachs", "check-determination", "classify-hom")


def job_name(template) -> str:
    kind, *lattices = template
    return kind + ":" + "/".join(h.label for h in lattices)


def _enumerate_job(rng, template) -> Job:
    kind, h = template
    if kind == "reconstruct":
        return Job(job_name(template), kind, (bare_order(rng, h.bsub_nodes()),),
                   (h.n, sum(h.atoms)))
    rows = relabel_rows(h.rows(), inner_permutation(rng, h.n))
    profile = h.sub_profile() if kind == "sub" else h.bsub_profile()
    return Job(job_name(template), kind, (rows,), tuple(sorted(profile.items())))


def _search_job(rng, template) -> Job:
    kind, a, b = template if len(template) == 3 else (*template, template[1])
    perm_l = inner_permutation(rng, a.n)
    perm_m = inner_permutation(rng, b.n)
    rows_l = relabel_rows(a.rows(), perm_l)
    rows_m = relabel_rows(b.rows(), perm_m)
    if kind in ("lift_sub", "lift_bsub"):
        return Job(job_name(template), kind, (rows_l, rows_m, compose(perm_l, perm_m)),
                   (lift_set(perm_l, perm_m, a.four_blocks()),))
    if kind == "determination":
        if a == b:
            expect = (True, True, True, 1 << len(a.four_blocks()), True)
        else:
            expect = (False, False, True, None, True)
        return Job(job_name(template), kind, (rows_l, rows_m), expect)
    # classify: an embedding 2^m -> 2^n is S -> g^-1(S) for a surjection g
    # from the n target atoms onto the m source atoms.
    m, n = a.atoms[0], b.atoms[0]
    g = list(range(m)) + [rng.randrange(m) for _ in range(n - m)]
    rng.shuffle(g)
    mapping = [0] * a.n
    for s in range(a.n):
        image = sum(1 << j for j in range(n) if s >> g[j] & 1)
        mapping[perm_l[s]] = perm_m[image]
    image_size = 1 << len(set(g))
    kind_name = {2: "TwoElementImage", 4: "FourBlockImage"}.get(image_size, "Determined")
    return Job(job_name(template), kind, (rows_l, rows_m, tuple(mapping)),
               (kind_name, image_size, True))


def _lattice_json(rows) -> str:
    up, ortho = rows
    leq = [[i, j] for i, row in enumerate(up) for j in bits(row)]
    return json.dumps({"size": len(up), "leq": leq, "ortho": list(ortho)})


def _poset_json(rows) -> str:
    leq = [[i, j] for i, row in enumerate(rows) for j in bits(row)]
    return json.dumps({"size": len(rows), "leq": leq})


def _node_map_json(masks_l, psi) -> str:
    pairs = [[list(bits(s)), list(bits(map_mask(s, psi)))] for s in masks_l]
    return json.dumps({"pairs": pairs})




def _cli_job(rng, verb: str) -> Job:
    """One CLI invocation: its argv, the files it reads, and what it must print.

    ``inputs`` is (argv, ((file name, text), ...)); ``expect`` depends on the
    verb and is interpreted by ``jobs.check_cli``.
    """
    ex22 = example22_rows()
    if verb in ("validate", "bsub", "blocks", "check-determination"):
        perm = inner_permutation(rng, 12)
        files = [("L.json", _lattice_json(relabel_rows(ex22, perm)))]
        if verb == "validate":
            expect = ("size: 12", "flavor: orthomodular")
        elif verb == "bsub":
            expect = tuple(sorted(map_mask(s, perm) for s in example22_bsub_nodes()))
        elif verb == "blocks":
            expect = tuple(sorted(map_mask(s, perm) for s in EXAMPLE22_BLOCKS))
        else:
            files.append(("M.json", _lattice_json(relabel_rows(ex22, inner_permutation(rng, 12)))))
            expect = ("bsub posets isomorphic: yes", "lattices isomorphic: yes",
                      "both orthomodular: yes", "lifted isomorphisms: 1",
                      "consistent with determination: yes")
        argv = (verb, *(name for name, _ in files))
        return Job(verb, "cli", (argv, tuple(files)), expect)
    if verb == "catalog":
        # the one verb without an input lattice: nothing to relabel
        h = _hs(3, 2, 2)
        pairs = sum(row.bit_count() for row in h.rows()[0])
        return Job(verb, "cli", ((verb, h.label), ()), (h.n, pairs, h.label))
    if verb in ("sub", "check-sachs"):
        h = _hs(4)
        perm = inner_permutation(rng, h.n)
        files = (("L.json", _lattice_json(relabel_rows(h.rows(), perm))),)
        if verb == "sub":
            expect = tuple(sorted(map_mask(s, perm) for s in h.sub_nodes()))
        else:
            count = len(h.sub_nodes())
            expect = tuple(f"{what}: {count}/{count}" for what in (
                "dual order test agrees", "principal dual order test agrees",
                "partition round trip"))
        return Job(verb, "cli", ((verb, "L.json"), files), expect)
    if verb == "reconstruct":
        rows = bare_order(rng, example22_bsub_nodes())
        pairs = sum(row.bit_count() for row in ex22[0])
        return Job(verb, "cli", ((verb, "P.json"), (("P.json", _poset_json(rows)),)),
                   (12, pairs))
    if verb in ("lift-bsub", "lift-sub"):
        h = _hs(3, 2, 2) if verb == "lift-bsub" else _hs(3, 2)
        perm_l = inner_permutation(rng, h.n)
        perm_m = inner_permutation(rng, h.n)
        psi = compose(perm_l, perm_m)
        nodes = h.bsub_nodes() if verb == "lift-bsub" else h.sub_nodes()
        files = (("L.json", _lattice_json(relabel_rows(h.rows(), perm_l))),
                 ("M.json", _lattice_json(relabel_rows(h.rows(), perm_m))),
                 ("iso.json", _node_map_json([map_mask(s, perm_l) for s in nodes], psi)))
        expect = tuple(sorted(lift_set(perm_l, perm_m, h.four_blocks())))
        return Job(verb, "cli", ((verb, "L.json", "M.json", "iso.json"), files), expect)
    if verb == "classify-hom":
        # an embedding 2^2 -> 2^4: its image is a four-element block, so the
        # witness is the map followed by the swap of the image's atom pair
        a, b = _hs(2), _hs(4)
        perm_l, perm_m = inner_permutation(rng, a.n), inner_permutation(rng, b.n)
        g = [0, 1] + [rng.randrange(2) for _ in range(2)]
        rng.shuffle(g)
        mapping = [0] * a.n
        for s in range(a.n):
            mapping[perm_l[s]] = perm_m[sum(1 << j for j in range(4) if s >> g[j] & 1)]
        p, q = mapping[perm_l[1]], mapping[perm_l[2]]
        witness = [{p: q, q: p}.get(v, v) for v in mapping]
        files = (("L.json", _lattice_json(relabel_rows(a.rows(), perm_l))),
                 ("M.json", _lattice_json(relabel_rows(b.rows(), perm_m))),
                 ("f.json", json.dumps({"map": mapping})))
        expect = ("classification: FourBlockImage", "image size: 4",
                  f"witness with equal preimage map: {witness}")
        return Job(verb, "cli", ((verb, "L.json", "M.json", "f.json"), files), expect)
    raise ValueError(f"unknown verb {verb!r}")


def _templates(workload: str):
    if workload == "enumerate":
        return [(t, _enumerate_job) for t in ENUMERATE]
    if workload == "search":
        return [(t, _search_job) for t in SEARCH]
    if workload == "cli-cold":
        return [(v, _cli_job) for v in CLI_VERBS]
    raise ValueError(f"unknown workload {workload!r}")


class JobStream:
    """Job lists of one run, pass by pass.

    Pass ``p`` depends only on (workload, seed, p) and the passes before it,
    which are themselves fixed by (workload, seed): the same seed always gives
    the same jobs in the same order, however fast the machine ran.
    """

    def __init__(self, workload: str, seed: int):
        self.workload = workload
        self.seed = seed
        self._templates = _templates(workload)
        self._seen: set = set()
        self._passes: dict = {}

    def jobs(self, pass_index) -> list[Job]:
        if pass_index not in self._passes:
            if isinstance(pass_index, int):
                for earlier in range(pass_index):
                    self.jobs(earlier)
            out = []
            for j, (template, make) in enumerate(self._templates):
                for attempt in range(1000):
                    rng = random.Random(
                        f"{self.workload}/{self.seed}/{pass_index}/{j}/{attempt}")
                    job = make(rng, template)
                    if job.name == "catalog" or job.inputs not in self._seen:
                        break
                else:
                    raise RuntimeError(f"no fresh labeling left for {job.name}")
                self._seen.add(job.inputs)
                out.append(job)
            self._passes[pass_index] = out
        return self._passes[pass_index]


def passes_for(workload: str, seconds: int) -> int:
    """Untraced passes per run: fixed by the workload and --seconds alone."""
    return max(1, round(seconds / PASS_REF_S[workload]))


# Seconds one pass takes on the tuning machine, probes and checks included;
# it sets how many passes fill --seconds.  With --seconds 25 this gives 7, 9
# and 2 passes; those counts put the median and the tail rank in the middle
# of one job type's cluster (NOTES.md).
PASS_REF_S = {"enumerate": 3.6, "search": 2.8, "cli-cold": 11.0}
