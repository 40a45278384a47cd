"""Value semantics of the small immutable classes.

``SubalgebraSet`` and ``Morphism`` and the seven report and record classes
compare and hash by their fields, refuse assignment, and survive copy and
pickle, as frozen dataclasses did.
"""

import copy
import pickle

import pytest

from omlkit import (
    DeterminationReport,
    DualDecomposition,
    MalformedInput,
    MeetMapReport,
    Morphism,
    OrthoFrame,
    Partition,
    PreimageMap,
    RecoveryKind,
    RecoveryReport,
    SubalgebraSet,
    boolean_algebra,
    identity_morphism,
    sub,
)

B = boolean_algebra(2)
S = sub(B)
ID = identity_morphism(B)


def _report(**changes):
    fields = dict(posets_isomorphic=True, lattices_isomorphic=True, both_orthomodular=True,
                  lifted_count=2, consistent=True, note="")
    return DeterminationReport(**{**fields, **changes})


# per class: a factory that builds the same fields each call, a variant with
# one field changed, and one field's name
CASES = {
    "SubalgebraSet": (lambda: SubalgebraSet(B, 0b1001), lambda: SubalgebraSet(B, 0b1111),
                      "members"),
    "Morphism": (lambda: Morphism(B, B, (0, 1, 2, 3), "iso"),
                 lambda: Morphism(B, B, (0, 2, 1, 3), "iso"), "mapping"),
    "PreimageMap": (lambda: PreimageMap(S, S, (0, 1)), lambda: PreimageMap(S, S, (0, 0)),
                    "mapping"),
    "RecoveryReport": (lambda: RecoveryReport(RecoveryKind.DETERMINED, 4, None, True),
                       lambda: RecoveryReport(RecoveryKind.DETERMINED, 4, None, False),
                       "unique"),
    "MeetMapReport": (lambda: MeetMapReport(S, (0, 1), True, False, 2),
                      lambda: MeetMapReport(S, (0, 1), True, False, 3), "hom_count"),
    "DeterminationReport": (_report, lambda: _report(note="x"), "note"),
    "DualDecomposition": (lambda: DualDecomposition(SubalgebraSet(B, 0b1111), 0b11, 0b1100),
                          lambda: DualDecomposition(SubalgebraSet(B, 0b1111), 0b11, 0b1000),
                          "filter"),
    "Partition": (lambda: Partition(((1,), (2,))), lambda: Partition(((1, 2),)), "blocks"),
    "OrthoFrame": (lambda: OrthoFrame(2, (0b10, 0b01), ("a", "b")),
                   lambda: OrthoFrame(2, (0b10, 0b01), ("a", "c")), "labels"),
}


@pytest.mark.parametrize("name", CASES)
def test_equal_fields_equal_objects(name):
    make, other, _ = CASES[name]
    x, y, z = make(), make(), other()
    assert x is not y and x == y and hash(x) == hash(y)
    assert x != z and not x == z
    assert x != object()


@pytest.mark.parametrize("name", CASES)
def test_fields_cannot_be_assigned_or_deleted(name):
    make, _, field = CASES[name]
    x = make()
    with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
        setattr(x, field, None)
    with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
        delattr(x, field)
    with pytest.raises(AttributeError):
        x.extra = 1


@pytest.mark.parametrize("name", CASES)
def test_copy_and_pickle_keep_the_fields(name):
    x = CASES[name][0]()
    assert copy.copy(x) == x
    assert type(pickle.loads(pickle.dumps(x))) is type(x)


def test_determination_report_takes_keywords_and_reprs_its_fields():
    r = _report()
    assert r.lifted_count == 2 and r.note == ""
    assert repr(r) == ("DeterminationReport(posets_isomorphic=True, lattices_isomorphic=True, "
                       "both_orthomodular=True, lifted_count=2, consistent=True, note='')")
    with pytest.raises(TypeError):
        DeterminationReport(posets_isomorphic=True)


def test_hand_written_reprs_are_kept():
    assert repr(SubalgebraSet(B, 0b1001)) == "SubalgebraSet({0,3})"
    assert repr(ID) == "Morphism(iso: [0, 1, 2, 3])"


@pytest.mark.parametrize("args, message", [
    ((2, (0b10,), ("a", "b")), "frame rows and labels must match the point count"),
    ((1, (0b10,), ("a",)), "perp row mentions unknown points"),
    ((1, (0b1,), ("a",)), "point 0 is orthogonal to itself"),
    ((2, (0b10, 0b00), ("a", "b")), "orthogonality is not symmetric"),
])
def test_frame_validation_messages(args, message):
    with pytest.raises(MalformedInput) as info:
        OrthoFrame(*args)
    assert str(info.value) == message


@pytest.mark.parametrize("blocks, message", [
    (((),), "partition blocks must be nonempty and sorted"),
    (((2, 1),), "partition blocks must be nonempty and sorted"),
    (((1, 2), (2, 3)), "partition blocks overlap"),
    (((2,), (1,)), "partition blocks must be sorted by least member"),
])
def test_partition_validation_messages(blocks, message):
    with pytest.raises(MalformedInput) as info:
        Partition(blocks)
    assert str(info.value) == message
