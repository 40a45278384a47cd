"""Self-checks of the benchmark harness (not of omlkit).

    PYTHONPATH=src python3 -m pytest omlbench/tests -q
"""

import importlib
import types

import pytest

import inputs
import jobs
import omlkit
import run
import tracer
import worker


def _stream_jobs(workload, seed, passes):
    stream = inputs.JobStream(workload, seed)
    return [stream.jobs(p) for p in (*range(passes), inputs.TRACE_PASS)]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_same_seed_gives_identical_job_list(workload):
    first = _stream_jobs(workload, 7, 3)
    assert first == _stream_jobs(workload, 7, 3)
    assert first != _stream_jobs(workload, 8, 3)
    # pass 2 is the same whether or not passes 0 and 1 were asked for first
    assert inputs.JobStream(workload, 7).jobs(2) == first[2]


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_no_input_repeats_within_a_run(workload):
    seen = [job.inputs for batch in _stream_jobs(workload, 3, 4) for job in batch
            if job.name != "catalog"]
    assert len(seen) == len(set(seen))


def test_passes_are_fixed_by_seconds_not_by_speed():
    assert [inputs.passes_for(w, 25) for w in inputs.WORKLOADS] == [7, 9, 2]


def test_expected_counts_are_bell_and_stirling():
    assert sum(inputs.HSum((6,)).sub_profile().values()) == inputs.bell(6) == 203
    assert sum(inputs.HSum((4, 4, 3)).sub_profile().values()) == 15 * 15 * 5
    assert sum(inputs.HSum((5, 5)).bsub_profile().values()) == 52 + 52 - 1
    assert len(inputs.lift_set(tuple(range(14)), tuple(range(14)),
                               inputs.HSum((2,) * 6).four_blocks())) == 64


def _small_worker(monkeypatch, tmp_path):
    monkeypatch.setattr(inputs, "ENUMERATE", (
        ("sub", inputs.HSum((3,))), ("bsub", inputs.HSum((3, 2))),
        ("reconstruct", inputs.HSum((3, 2)))))
    return worker.Worker("enumerate", 1, str(tmp_path))


def test_correct_answers_pass(monkeypatch, tmp_path):
    records = _small_worker(monkeypatch, tmp_path).run_pass(0)
    assert [r["error"] for r in records] == [None, None, None]


def test_planted_wrong_answer_is_counted_as_failed(monkeypatch, tmp_path):
    w = _small_worker(monkeypatch, tmp_path)
    real_sub = omlkit.sub
    monkeypatch.setattr(omlkit, "sub", lambda L: real_sub(omlkit.catalog("2^2")))
    records = w.run_pass(0)
    assert [r["error"] is not None for r in records] == [True, False, False]

    def boom(P):
        raise omlkit.MalformedInput("planted")
    monkeypatch.setattr(omlkit, "reconstruct", boom)
    assert "planted" in w.run_pass(1)[2]["error"]


def test_planted_wrong_cli_output_is_counted_as_failed():
    job = inputs.JobStream("cli-cold", 1).jobs(0)[0]
    assert job.name == "validate"
    assert jobs.check_cli(job, 0, "size: 12\nflavor: orthomodular\n", "") is None
    assert jobs.check_cli(job, 0, "size: 13\nflavor: orthomodular\n", "") is not None
    assert jobs.check_cli(job, 1, "", "error: boom") is not None


def _snapshot():
    modules = {name: importlib.import_module(name) for name in tracer.MODULES}
    snap = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            snap[(name, attr)] = value
            if isinstance(value, type) and value.__module__.startswith("omlkit"):
                for cattr, cvalue in vars(value).items():
                    snap[(name, attr, cattr)] = cvalue
    return snap


def test_tracer_restore_leaves_every_attribute_identical():
    before = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        from omlkit import iso_lifting, lattice_core, subalgebra_posets
        assert omlkit.sub is not before[("omlkit", "sub")]
        # a `from .x import y` copy is wrapped, not only x.y
        assert iso_lifting.enumerate_subalgebras is subalgebra_posets.enumerate_subalgebras
        assert iso_lifting.enumerate_subalgebras is not \
            before[("omlkit.iso_lifting", "enumerate_subalgebras")]
        assert vars(lattice_core.FiniteOrtholattice)["closure_mask"] is not \
            before[("omlkit.lattice_core", "FiniteOrtholattice", "closure_mask")]
    finally:
        t.uninstall()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_spans_and_counts():
    t = tracer.Tracer()
    t.install()
    try:
        P = omlkit.sub(omlkit.catalog("2^3"))
        isos = list(omlkit.poset_isomorphisms(P, P))
    finally:
        t.uninstall()
    agg = t.aggregate()
    keys = agg["keys"]
    assert keys[tracer.ENUMERATE]["nodes"] == 5
    assert keys[tracer.ENUMERATE]["calls"] == 1
    assert agg["edges"]["subalgebra_posets.sub>" + tracer.ENUMERATE] == 1
    # one span per next, including the one that ends the search
    assert keys[tracer.POSET_ISOS]["calls"] == len(isos) + 1
    for key, start, end, parent in t.spans:
        assert end >= start and parent < len(t.spans)
    for key, stats in keys.items():
        assert 0 <= stats["self_s"] <= stats["total_s"] + 1e-9
    m = tracer.layer_metrics(agg, 1.0)
    assert m["lattice_core.closure_mask.calls"] == agg["edges"][
        tracer.ENUMERATE + ">" + tracer.CLOSURE]
    assert m["subalgebra_posets.enumerate_subalgebras.nodes_per_closure"] > 0


def test_tail_is_highest_percentile_with_ten_samples_above():
    value, pct = run.tail([float(x) for x in range(1, 41)])
    assert value == 30.0 and pct == 75.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)
