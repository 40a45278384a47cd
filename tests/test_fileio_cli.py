"""File formats round-trip byte for byte; CLI verbs compose and exit right."""

import argparse
import io
import json
import subprocess
import sys

import pytest

from omlkit import (
    MalformedInput,
    NotAPartialOrder,
    SizeCap,
    benzene,
    boolean_algebra,
    bsub,
    catalog,
    identity_morphism,
    mo,
    sub,
)
from omlkit import fileio
from omlkit.cli import build_parser, main
from omlkit.lattice_core import validate


# -- formats -----------------------------------------------------------------

@pytest.mark.parametrize("name", ["2^3", "MO2", "benzene", "example22"])
def test_lattice_round_trip(name):
    L = catalog(name)
    text = fileio.dump_lattice(L)
    M = fileio.parse_lattice(text)
    assert fileio.dump_lattice(M) == text
    assert M.up == L.up and M.ortho == L.ortho and M.flavor == L.flavor


def test_lattice_parser_rejections():
    good = json.loads(fileio.dump_lattice(boolean_algebra(2)))
    dup = dict(good, leq=good["leq"] + [good["leq"][0]])
    with pytest.raises(MalformedInput):
        fileio.parse_lattice(json.dumps(dup))
    out_of_range = dict(good, leq=good["leq"] + [[0, 9]])
    with pytest.raises(MalformedInput):
        fileio.parse_lattice(json.dumps(out_of_range))
    bad_ortho = dict(good, ortho=[0, 1, 2])
    with pytest.raises(MalformedInput):
        fileio.parse_lattice(json.dumps(bad_ortho))
    with pytest.raises(MalformedInput):
        fileio.parse_lattice("[1, 2]")
    with pytest.raises(MalformedInput):
        fileio.parse_lattice("not json")


# the pair rule is the order core's; the files see its texts unchanged
@pytest.mark.parametrize("item, text", [
    ([0, 5], "pair [0, 5] out of range"),
    ([0, 0], "duplicate pair [0, 0]"),
    ([0], "bad relation pair [0]"),
    ([0, 1, 1], "bad relation pair [0, 1, 1]"),
    ([0, 0.5], "bad relation pair [0, 0.5]"),
    ([True, 1], "bad relation pair [True, 1]"),
    (7, "bad relation pair 7"),
    ("01", "bad relation pair '01'"),
    ({"0": 1}, "bad relation pair {'0': 1}"),
])
def test_pair_error_texts(item, text):
    leq = [[0, 0], [0, 1], [1, 1], item]
    for parse, obj in ((fileio.parse_lattice, {"size": 2, "leq": leq, "ortho": [1, 0]}),
                       (fileio.parse_poset, {"size": 2, "leq": leq})):
        with pytest.raises(MalformedInput) as exc:
            parse(json.dumps(obj))
        assert str(exc.value) == text


def test_reflexive_count_texts():
    with pytest.raises(NotAPartialOrder) as exc:
        fileio.parse_lattice('{"size": 3, "leq": [[0, 0], [1, 1]], "ortho": [2, 1, 0]}')
    assert str(exc.value) == "2 pairs cannot be reflexive on 3 elements"
    with pytest.raises(NotAPartialOrder) as exc:
        fileio.parse_poset('{"size": 3, "leq": [[0, 0], [1, 1]]}')
    assert str(exc.value) == "2 pairs cannot be reflexive on 3 nodes"


def test_cli_pair_error_lines(tmp_path, capsys):
    lattice = tmp_path / "lattice.json"
    lattice.write_text('{"size": 2, "leq": [[0, 0], [0, 1], [1, 1], [0, 5]], "ortho": [1, 0]}')
    poset = tmp_path / "poset.json"
    poset.write_text('{"size": 2, "leq": [[0, 0], [0, 0], [1, 1]]}')
    assert run_cli(capsys, "validate", str(lattice)) == (1, "", "error: pair [0, 5] out of range\n")
    assert run_cli(capsys, "reconstruct", str(poset)) == (1, "", "error: duplicate pair [0, 0]\n")


def test_poset_round_trip():
    p = bsub(catalog("example22"))
    text = fileio.dump_poset(p)
    q, labels = fileio.parse_poset(text)
    assert q.up == p.up
    assert labels == list(p.labels())
    assert fileio.dump_poset(p) == text


def test_morphism_round_trip():
    f = identity_morphism(mo(2))
    text = fileio.dump_morphism(f)
    g = fileio.parse_morphism(text, f.source, f.target)
    assert g.mapping == f.mapping and g.kind == "iso"
    with pytest.raises(MalformedInput):
        fileio.parse_morphism('{"kind": "hom", "map": [0,1,2,3,4,5]}',
                              f.source, f.target)  # identity is an iso, not a hom


def test_node_map_round_trip():
    p = bsub(mo(2))
    text = fileio.dump_node_map_labels(p, p, (0, 2, 1))
    assert fileio.parse_node_map(text, p, p) == (0, 2, 1)
    with pytest.raises(MalformedInput):
        fileio.parse_node_map('{"pairs": [[[0,5],[0,5]]]}', p, p)  # not total
    with pytest.raises(MalformedInput):
        fileio.parse_node_map('{"pairs": [[[0,-5],[0,5]]]}', p, p)
    with pytest.raises(MalformedInput):
        fileio.parse_node_map('{"pairs": [[[0,3],[0,5]]]}', p, p)  # not a node
    # 0 + 0 + 0 would carry into bit 1 and read as the node {0,1,2,5}
    repeated = '{"pairs": [[[0,5],[0,5]], [[0,0,0,2,5],[0,1,2,5]], [[0,3,4,5],[0,3,4,5]]]}'
    with pytest.raises(MalformedInput, match=r"bad subalgebra label \[0, 0, 0, 2, 5\]"):
        fileio.parse_node_map(repeated, p, p)


LATTICE_2 = '"size": 2, "leq": [[0, 0], [0, 1], [1, 1]], "ortho": [1, 0]'
MO2_NODES = "[0, 5]", "[0, 1, 2, 5]", "[0, 3, 4, 5]"  # BSub(MO2)'s node labels


def _node_map(*pairs):
    return '{"pairs": [' + ", ".join(f"[{MO2_NODES[i]}, {MO2_NODES[v]}]"
                                     for i, v in pairs) + "]}"


# a malformed field of each file kind, and the text it is refused with
@pytest.mark.parametrize("kind, text, message", [
    ("lattice", '{"size": "2", "leq": [], "ortho": [1, 0]}', "field 'size' must be an integer"),
    ("lattice", '{"size": 2, "leq": 5, "ortho": [1, 0]}', "field 'leq' must be a list of pairs"),
    ("lattice", '{"size": 0, "leq": [], "ortho": []}', "size must be positive"),
    ("lattice", "{" + LATTICE_2 + ', "name": 2}', "field 'name' must be a string"),
    ("poset", '{"size": 1, "leq": [[0, 0]], "labels": [[0], [1]]}',
     "field 'labels' must be one element list per node"),
    ("poset", '{"size": 1, "leq": [[0, 0]], "labels": [5]}',
     "field 'labels' must be one element list per node"),
    ("morphism", '{"map": [0, 1, 2, 3, 4, "5"]}', "field 'map' must be a list of element indices"),
    ("node map", '{"pairs": 5}', "field 'pairs' must be a list of label pairs"),
    ("node map", '{"pairs": [[[0, 5]]]}', "bad label pair [[0, 5]]"),
    ("node map", _node_map((0, 0), (0, 1)), "node [0, 5] mapped twice"),
    ("node map", _node_map((0, 0), (1, 1), (2, 1)), "node map is not a bijection"),
])
def test_field_error_texts(kind, text, message):
    L, p = mo(2), bsub(mo(2))
    parse = {"lattice": fileio.parse_lattice, "poset": fileio.parse_poset,
             "morphism": lambda t: fileio.parse_morphism(t, L, L),
             "node map": lambda t: fileio.parse_node_map(t, p, p)}[kind]
    with pytest.raises(MalformedInput) as exc:
        parse(text)
    assert str(exc.value) == message


def test_dot_export():
    p = bsub(catalog("example22"))
    dot = fileio.poset_to_dot(p)
    assert dot.startswith("digraph hasse {")
    assert dot.count(" -> ") == sum(p.cover_up[i].bit_count() for i in range(p.size))
    assert '[label="{0,11}"]' in dot
    assert fileio.poset_to_dot(p) == dot
    bare = fileio.poset_to_dot(p.as_abstract())
    assert '[label="0"]' in bare


# -- CLI -----------------------------------------------------------------------

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_validate_benzene(tmp_path, capsys):
    path = tmp_path / "benzene.json"
    path.write_text(fileio.dump_lattice(benzene()))
    code, out, err = run_cli(capsys, "validate", str(path))
    assert code == 0 and err == ""
    assert out == "name: benzene\nsize: 6\nflavor: ortholattice (NOT orthomodular)\n"


def test_cli_validate_an_orthomodular_file(tmp_path, capsys):
    path = tmp_path / "mo2.json"
    path.write_text(fileio.dump_lattice(mo(2)))
    assert run_cli(capsys, "validate", str(path)) == (
        0, "name: MO2\nsize: 6\nflavor: orthomodular\n", "")


def test_cli_catalog_and_bsub_pipeline(tmp_path, capsys, monkeypatch):
    code, out, _ = run_cli(capsys, "catalog", "example22")
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(out))
    code, dot, _ = run_cli(capsys, "bsub", "--dot")
    assert code == 0
    assert dot.count("n0 -> ") == 5  # the bottom is covered by the five atoms
    assert dot.count(" -> ") == 11


def test_cli_blocks(tmp_path, capsys):
    path = tmp_path / "ex22.json"
    path.write_text(fileio.dump_lattice(catalog("example22")))
    code, out, _ = run_cli(capsys, "blocks", str(path))
    assert code == 0
    assert out == "{0,1,2,3,6,7,8,11}\n{0,3,4,5,8,9,10,11}\n"


def test_cli_blocks_under_the_node_cap(tmp_path, capsys, monkeypatch):
    # blocks come from the maximal orthogonal atom sets, with no poset
    # enumerated, so the enumerator's cap, small or malformed, does not apply
    path = tmp_path / "ex22.json"
    path.write_text(fileio.dump_lattice(catalog("example22")))
    for cap in ("3", "junk"):
        monkeypatch.setenv("OMLKIT_NODE_CAP", cap)
        assert run_cli(capsys, "blocks", str(path)) == (
            0, "{0,1,2,3,6,7,8,11}\n{0,3,4,5,8,9,10,11}\n", "")
    monkeypatch.setenv("OMLKIT_NODE_CAP", "3")
    assert run_cli(capsys, "bsub", str(path)) == (
        1, "", "error: more than 3 subalgebras (stopped at 4 nodes); "
               "raise the cap with OMLKIT_NODE_CAP\n")


def test_cli_reconstruct_round_trip(tmp_path, capsys):
    poset_path = tmp_path / "bsub_mo2.json"
    poset_path.write_text(fileio.dump_poset(bsub(mo(2))))
    out_path = tmp_path / "rebuilt.json"
    code, out, _ = run_cli(capsys, "reconstruct", str(poset_path),
                           "--frame", "-o", str(out_path))
    assert code == 0
    assert "frame: 4 points" in out
    rebuilt = fileio.parse_lattice(out_path.read_text())
    assert rebuilt.n == 6 and rebuilt.flavor == "orthomodular"


def test_cli_reconstruct_frame_of_the_one_node_poset(tmp_path, capsys):
    # the one-node poset is BSub of the 2-element lattice; its frame is empty
    poset_path = tmp_path / "one.json"
    poset_path.write_text(fileio.dump_poset(bsub(boolean_algebra(1)).as_abstract()))
    code, out, _ = run_cli(capsys, "reconstruct", str(poset_path), "--frame")
    assert code == 0
    frame, lattice = out.split("\n", 1)
    assert frame == "frame: 0 points"
    assert lattice == '{\n  "leq": [[0, 0], [0, 1], [1, 1]],\n  "ortho": [1, 0],\n  "size": 2\n}\n'


def test_cli_lift_bsub(tmp_path, capsys):
    lat = tmp_path / "mo2.json"
    lat.write_text(fileio.dump_lattice(mo(2)))
    p = bsub(mo(2))
    iso = tmp_path / "iso.json"
    iso.write_text(fileio.dump_node_map_labels(p, p, tuple(range(p.size))))
    code, out, _ = run_cli(capsys, "lift-bsub", str(lat), str(lat), str(iso))
    assert code == 0
    assert len(json.loads(out)) == 4
    code, out, _ = run_cli(capsys, "lift-bsub", str(lat), str(lat), str(iso),
                           "--canonical")
    assert code == 0
    assert json.loads(out) == {"kind": "iso", "map": [0, 1, 2, 3, 4, 5]}


def test_cli_lift_sub(tmp_path, capsys):
    lat = tmp_path / "b3.json"
    lat.write_text(fileio.dump_lattice(boolean_algebra(3)))
    s = sub(boolean_algebra(3))
    iso = tmp_path / "iso.json"
    iso.write_text(fileio.dump_node_map_labels(s, s, tuple(range(s.size))))
    code, out, _ = run_cli(capsys, "lift-sub", str(lat), str(lat), str(iso))
    assert code == 0
    assert json.loads(out) == [{"kind": "iso", "map": list(range(8))}]


def test_cli_check_sachs(tmp_path, capsys):
    lat = tmp_path / "b4.json"
    lat.write_text(fileio.dump_lattice(boolean_algebra(4)))
    code, out, _ = run_cli(capsys, "check-sachs", str(lat))
    assert code == 0
    assert "dual order test agrees: 15/15" in out
    # non-Boolean input is a domain error
    lat.write_text(fileio.dump_lattice(mo(2)))
    code, _, err = run_cli(capsys, "check-sachs", str(lat))
    assert code == 1 and "error:" in err


def test_cli_check_determination(tmp_path, capsys):
    a = tmp_path / "mo2.json"
    a.write_text(fileio.dump_lattice(mo(2)))
    b = tmp_path / "benzene.json"
    b.write_text(fileio.dump_lattice(benzene()))
    code, out, _ = run_cli(capsys, "check-determination", str(a), str(b))
    assert code == 0
    assert "bsub posets isomorphic: yes" in out
    assert "lattices isomorphic: no" in out
    assert "outside OML hypothesis" in out


def test_cli_classify_hom(tmp_path, capsys):
    lat = tmp_path / "mo2.json"
    lat.write_text(fileio.dump_lattice(mo(2)))
    mor = tmp_path / "id.json"
    mor.write_text(fileio.dump_morphism(identity_morphism(mo(2))))
    code, out, _ = run_cli(capsys, "classify-hom", str(lat), str(lat), str(mor))
    assert code == 0
    assert "classification: FourBlockImage" in out
    assert "witness with equal preimage map" in out



@pytest.mark.parametrize("L, expected", [
    (catalog("hsum(" + ",".join(["2^3"] * 10) + ")"),
     "classification: Determined\nimage size: 62\nunique among all homomorphisms: yes\n"),
    (mo(31),
     "classification: FourBlockImage\nimage size: 64\n"
     f"witness with equal preimage map: {[0, 2, 1, *range(3, 64)]}\n"),
], ids=["hsum-of-ten-2^3", "MO31"])
def test_cli_classify_hom_past_the_node_cap(tmp_path, capsys, L, expected):
    # Sub(L) has more than 100000 nodes, and the recovery check reads none of them
    lat = tmp_path / "lattice.json"
    lat.write_text(fileio.dump_lattice(L))
    mor = tmp_path / "id.json"
    mor.write_text(fileio.dump_morphism(identity_morphism(L)))
    assert run_cli(capsys, "classify-hom", str(lat), str(lat), str(mor)) == (0, expected, "")

def test_cli_domain_error_exit_code(tmp_path, capsys):
    code, _, err = run_cli(capsys, "catalog", "no-such-thing")
    assert code == 1
    assert err.startswith("error:")
    code, _, err = run_cli(capsys, "validate", str(tmp_path / "missing.json"))
    assert code == 1


def test_cli_rejects_files_that_are_not_utf8(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe\x00{")
    lat = tmp_path / "b2.json"
    lat.write_text(fileio.dump_lattice(boolean_algebra(2)))
    # a lattice file, a poset file and a node-map file
    for argv in (["validate", str(bad)], ["reconstruct", str(bad)],
                 ["lift-bsub", str(lat), str(lat), str(bad)]):
        assert run_cli(capsys, *argv) == (1, "", f"error: {bad}: not UTF-8 text\n")


def test_deeply_nested_json_is_malformed_input(tmp_path, capsys):
    deep = "[" * 200000
    with pytest.raises(MalformedInput, match="nested too deeply"):
        fileio.parse_lattice(deep)
    path = tmp_path / "deep.json"
    path.write_text(deep)
    assert run_cli(capsys, "validate", str(path)) == (
        1, "", "error: not valid JSON: nested too deeply\n")


def test_cli_usage_error_exit_code(capsys):
    assert main([]) == 2
    assert main(["frobnicate"]) == 2
    # --dot is the one way to ask for dot, and listing every lift is the default
    assert main(["sub", "--format", "dot"]) == 2
    assert main(["lift-sub", "L", "M", "iso", "--all"]) == 2


def test_cli_output_is_deterministic(tmp_path, capsys):
    code1, out1, _ = run_cli(capsys, "catalog", "hsum(2^3,2^3)")
    code2, out2, _ = run_cli(capsys, "catalog", "hsum(2^3,2^3)")
    assert code1 == code2 == 0 and out1 == out2


def test_cli_env_node_cap(tmp_path, capsys, monkeypatch):
    lat = tmp_path / "b4.json"
    lat.write_text(fileio.dump_lattice(boolean_algebra(4)))
    monkeypatch.setenv("OMLKIT_NODE_CAP", "3")
    code, _, err = run_cli(capsys, "sub", str(lat))
    assert code == 1 and "more than 3 subalgebras (stopped at 4 nodes)" in err
    assert "OMLKIT_NODE_CAP" in err


def test_cli_reconstruct_rejects_huge_size_without_allocating(tmp_path, capsys):
    # the declared size is checked against the pairs before anything is allocated
    path = tmp_path / "huge.json"
    path.write_text('{"size": 1000000000, "leq": []}')
    code, out, err = run_cli(capsys, "reconstruct", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error:") and "Traceback" not in err
    assert "reflexive" in err


def test_lattice_validate_checks_size_before_allocating():
    with pytest.raises(SizeCap):
        validate(1000000000, [], [])
    with pytest.raises(NotAPartialOrder):
        validate(3, [(0, 0), (1, 1)], [2, 1, 0])


def test_cli_selftest(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert out.count("PASS") == 10 and "FAIL" not in out


def test_every_verb_resolves_to_a_handler():
    parser = build_parser()
    verbs = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert len(verbs.choices) == 12
    for name, verb in verbs.choices.items():
        assert callable(verb.get_default("func")), name


def test_cli_runs_on_the_standard_library_alone(tmp_path, subprocess_env):
    # the child refuses every import outside the standard library and omlkit
    code = ("import sys\n"
            "class StdlibOnly:\n"
            "    def find_spec(name, path=None, target=None):\n"
            "        top = name.partition('.')[0]\n"
            "        if top != 'omlkit' and top not in sys.stdlib_module_names:\n"
            "            raise ImportError(f'{name} is not in the standard library')\n"
            "sys.meta_path.insert(0, StdlibOnly)\n"
            "from omlkit.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n")
    path = tmp_path / "mo2.json"
    path.write_text(fileio.dump_lattice(mo(2)))
    for argv, expected in ((["selftest"], None),
                           (["sub", str(path)], fileio.dump_poset(sub(mo(2)))),
                           (["blocks", str(path)], "{0,1,2,5}\n{0,3,4,5}\n")):
        result = subprocess.run([sys.executable, "-c", code, *argv], env=subprocess_env,
                                capture_output=True, text=True)
        assert result.returncode == 0, result.stderr
        if expected is not None:
            assert result.stdout == expected
