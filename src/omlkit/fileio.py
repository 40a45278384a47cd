"""Canonical text formats for lattices, posets, morphisms and node maps.

Everything is JSON with sorted keys and two-space indentation, so emitting
the same object twice gives byte-identical text.  Parsers are strict: out
of range indices, duplicate pairs, or a relation that is not already the
full reflexive-transitive one are rejected rather than repaired.  The pair
rule lives in the order core (``validate``, ``AbstractPoset.from_pairs``).
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

from .errors import MalformedInput
from .lattice_core import FiniteOrtholattice, Morphism, _is_int, bits, morphism, validate
from .subalgebra_posets import AbstractPoset, SubalgebraPoset


def _render(value) -> str:
    return json.dumps(value, separators=(", ", ": "), sort_keys=True)


def _dumps(obj: dict) -> str:
    # one key per line, values inline: readable and byte-deterministic
    keys = sorted(obj)
    lines = ["{"]
    for i, key in enumerate(keys):
        comma = "," if i < len(keys) - 1 else ""
        lines.append(f'  "{key}": {_render(obj[key])}{comma}')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _loads(text: str) -> dict:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInput(f"not valid JSON: {exc}") from None
    except RecursionError:
        raise MalformedInput("not valid JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise MalformedInput("top-level value must be an object")
    return obj


def _int_field(obj: dict, key: str) -> int:
    v = obj.get(key)
    if not _is_int(v):
        raise MalformedInput(f"field {key!r} must be an integer")
    return v


def _pairs_field(obj: dict, key: str) -> list:
    raw = obj.get(key)
    if not isinstance(raw, list):
        raise MalformedInput(f"field {key!r} must be a list of pairs")
    return raw


# -- lattices ----------------------------------------------------------------

def dump_lattice(L: FiniteOrtholattice) -> str:
    obj = {
        "size": L.n,
        "leq": L.pairs(),
        "ortho": list(L.ortho),
    }
    if L.name:
        obj["name"] = L.name
    return _dumps(obj)


def parse_lattice(text: str) -> FiniteOrtholattice:
    obj = _loads(text)
    size = _int_field(obj, "size")
    if size < 1:
        raise MalformedInput("size must be positive")
    pairs = _pairs_field(obj, "leq")
    ortho = obj.get("ortho")
    if (not isinstance(ortho, list) or len(ortho) != size
            or not all(_is_int(v) and 0 <= v < size for v in ortho)):
        raise MalformedInput("field 'ortho' must be a length-n list of element indices")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise MalformedInput("field 'name' must be a string")
    return validate(size, pairs, ortho, name)


# -- posets ------------------------------------------------------------------

def dump_poset(P: AbstractPoset) -> str:
    obj = {"size": P.size, "leq": P.pairs()}
    if isinstance(P, SubalgebraPoset):
        obj["labels"] = [list(lbl) for lbl in P.labels()]
    return _dumps(obj)


def parse_poset(text: str) -> tuple[AbstractPoset, Optional[list[tuple[int, ...]]]]:
    obj = _loads(text)
    size = _int_field(obj, "size")
    pairs = _pairs_field(obj, "leq")
    poset = AbstractPoset.from_pairs(size, pairs)
    labels = obj.get("labels")
    if labels is not None:
        if (not isinstance(labels, list) or len(labels) != size
                or not all(isinstance(l, list) for l in labels)):
            raise MalformedInput("field 'labels' must be one element list per node")
        labels = [tuple(l) for l in labels]
    return poset, labels


# -- morphisms and node maps --------------------------------------------------

def dump_morphism(f: Morphism) -> str:
    return _dumps({"kind": f.kind, "map": list(f.mapping)})


def dump_morphisms(fs: Sequence[Morphism]) -> str:
    lines = ["["]
    for i, f in enumerate(fs):
        comma = "," if i < len(fs) - 1 else ""
        lines.append("  " + _render({"kind": f.kind, "map": list(f.mapping)}) + comma)
    lines.append("]")
    return "\n".join(lines) + "\n"


def parse_morphism(text: str, source: FiniteOrtholattice,
                   target: FiniteOrtholattice) -> Morphism:
    obj = _loads(text)
    raw = obj.get("map")
    if not isinstance(raw, list) or not all(map(_is_int, raw)):
        raise MalformedInput("field 'map' must be a list of element indices")
    f = morphism(source, target, raw)
    kind = obj.get("kind")
    if kind is not None and kind != f.kind:
        raise MalformedInput(f"declared kind {kind!r} but the map is a {f.kind}")
    return f


def dump_node_map_labels(source: SubalgebraPoset, target: SubalgebraPoset,
                         mapping: Sequence[int]) -> str:
    pairs = [[list(bits(source.masks[i])), list(bits(target.masks[v]))]
             for i, v in enumerate(mapping)]
    return _dumps({"pairs": pairs})


def parse_node_map(text: str, source: SubalgebraPoset,
                   target: SubalgebraPoset) -> tuple[int, ...]:
    """Read a node bijection given as pairs of subalgebra element lists."""
    obj = _loads(text)
    raw = obj.get("pairs")
    if not isinstance(raw, list):
        raise MalformedInput("field 'pairs' must be a list of label pairs")
    def label_mask(label, poset) -> int:
        if not (isinstance(label, list)
                and all(_is_int(e) and 0 <= e < poset.owner.n for e in label)
                and len(set(label)) == len(label)):
            raise MalformedInput(f"bad subalgebra label {label!r}")
        return sum(1 << e for e in label)

    mapping = [-1] * source.size
    for item in raw:
        if not isinstance(item, list) or len(item) != 2:
            raise MalformedInput(f"bad label pair {item!r}")
        src, dst = item
        i = source.node_index(label_mask(src, source))
        v = target.node_index(label_mask(dst, target))
        if mapping[i] != -1:
            raise MalformedInput(f"node {src!r} mapped twice")
        mapping[i] = v
    if -1 in mapping:
        raise MalformedInput("node map must cover every source node")
    if not target._is_permutation(mapping):
        raise MalformedInput("node map is not a bijection")
    return tuple(mapping)


# -- DOT export ----------------------------------------------------------------

def poset_to_dot(P: AbstractPoset) -> str:
    """Hasse diagram of P: cover edges only, bottom ranked lowest.  The
    nodes of a SubalgebraPoset are labeled by their element sets."""
    labels = P.labels() if isinstance(P, SubalgebraPoset) else None
    lines = ["digraph hasse {", "  rankdir=BT;"]
    for i in range(P.size):
        if labels is not None:
            text = "{" + ",".join(str(e) for e in labels[i]) + "}"
        else:
            text = str(i)
        lines.append(f'  n{i} [label="{text}"];')
    for i in range(P.size):
        for j in bits(P.cover_up[i]):
            lines.append(f"  n{i} -> n{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def frame_lines(frame) -> list[str]:
    """Plain-text edge list for an orthogonality frame."""
    out = [f"frame: {frame.size} points"]
    for i, lbl in enumerate(frame.labels):
        out.append(f"frame point {i}: {lbl}")
    for i, j in frame.edges():
        out.append(f"frame edge: {i} {j}")
    return out
