"""``ergolab._record`` against the standard library's dataclasses.

Each class body below is built twice, once by ``dataclasses.dataclass``
and once by ``_record.record``, and every test asks both twins the same
question: construction, equality, hashing, ``repr``, ``asdict``,
``replace`` (with ``__post_init__`` run again), frozen assignment and a
NaN field must give the same answers.
"""

from __future__ import annotations

import dataclasses

import pytest

from ergolab import _record

STDLIB = (dataclasses.dataclass, dataclasses.field, dataclasses.asdict, dataclasses.replace)
RECORD = (_record.record, _record.field, _record.asdict, _record.replace)


def _classes(dataclass, field) -> dict:
    """The twin classes, built by one decorator."""

    @dataclass(frozen=True)
    class Point:
        x: float
        y: float = 0.0
        tag: str = field(default="", compare=False)
        note: str = field(default="n", repr=False)
        history: list = field(default_factory=list, compare=False, repr=False)

        def __post_init__(self) -> None:
            if self.x < 0:
                raise ValueError("x must be >= 0")
            object.__setattr__(self, "y", float(self.y))

    @dataclass(frozen=True, eq=False)
    class Handle:
        name: str
        payload: list = field(repr=False)

    @dataclass
    class Box:
        items: list
        count: int = 0

    @dataclass(frozen=True)
    class Single:
        value: float
        label: str = field(default="", compare=False)

    @dataclass
    class Outer:
        point: Point
        points: list
        table: dict
        pair: tuple

    @dataclass(frozen=True)
    class Explicit:
        a: int
        b: int

        def __eq__(self, other):
            return isinstance(other, Explicit) and self.a == other.a

        def __hash__(self):
            return hash(self.a)

        def __repr__(self):
            return f"<{self.a}>"

    return {cls.__name__: cls for cls in (Point, Handle, Box, Single, Outer, Explicit)}


TWINS = (_classes(*STDLIB[:2]), _classes(*RECORD[:2]))


def _outcome(fn):
    """What ``fn()`` gives: its value, or the kind of error it raises."""
    try:
        return "value", fn()
    except (TypeError, ValueError, AttributeError) as exc:
        return "raises", next(k for k in (TypeError, ValueError, AttributeError)
                              if isinstance(exc, k))


def _same(question) -> None:
    """``question(classes, asdict, replace)`` answers alike for both twins."""
    answers = [_outcome(lambda: question(classes, tools[2], tools[3]))
               for classes, tools in zip(TWINS, (STDLIB, RECORD))]
    assert answers[0] == answers[1]


@pytest.mark.parametrize("args, kwargs", [
    ((1,), {}), ((1, 2), {}), ((), {"x": 1, "y": 2}), ((1,), {"tag": "t", "note": "m"}),
    ((1, 2, "t", "m", [3]), {}), ((-1,), {}), ((), {}), ((1, 2, "t", "m", [], 6), {}),
    ((1,), {"x": 2}), ((1,), {"z": 2}),
])
def test_construction(args, kwargs):
    """Positional and keyword fields, defaults, the factory, the
    ``__post_init__`` check and the argument errors."""
    _same(lambda c, asdict, replace: asdict(c["Point"](*args, **kwargs)))


def test_default_factory_makes_a_value_per_instance():
    _same(lambda c, asdict, replace: c["Point"](1).history is c["Point"](1).history)


def test_eq_and_hash_compare_the_compared_fields():
    def question(c, asdict, replace):
        P = c["Point"]
        p, q = P(1, 2, tag="a", history=[1]), P(1, 2.0, tag="b", note="n")
        return (p == q, p == P(1, 3), p != q, p == (1, 2), hash(p), hash(p) == hash(q),
                len({p, q, P(2)}))

    _same(question)


def test_one_compared_field_is_compared_and_hashed_as_a_tuple():
    def question(c, asdict, replace):
        S = c["Single"]
        return S(1.5) == S(1.5, "other"), S(1.5) == S(2.5), hash(S(1.5))

    _same(question)


def test_a_nan_field_equals_itself_only_as_the_same_object():
    def question(c, asdict, replace):
        P, S, nan = c["Point"], c["Single"], float("nan")
        p, s = P(nan), S(nan)
        return (p == p, p == P(nan), p == P(float("nan")), p in {p},
                s == s, s == S(nan), s == S(float("nan")), s in {s})

    _same(question)


def test_repr_leaves_out_repr_false_fields():
    _same(lambda c, asdict, replace: (repr(c["Point"](1, 2, "t", "m", [5])),
                                      repr(c["Handle"]("h", [1])), repr(c["Box"]([1], 2))))


def test_asdict_recurses_through_records_lists_tuples_and_dicts():
    def question(c, asdict, replace):
        P = c["Point"]
        return asdict(c["Outer"](P(1, tag="t", history=[2]), [P(2), [P(3)]],
                                 {"k": P(4), "n": (P(5), 6)}, (P(7), "x")))

    _same(question)


def test_replace_runs_post_init_again():
    def question(c, asdict, replace):
        p = c["Point"](1, 2, tag="t", history=[9])
        moved = replace(p, x=3)
        return asdict(moved), moved.history is p.history, replace(p, y=5) == p

    _same(question)
    _same(lambda c, asdict, replace: replace(c["Point"](1), x=-1))
    _same(lambda c, asdict, replace: replace(c["Point"](1), z=0))


@pytest.mark.parametrize("attack", ["assign", "delete", "new"])
def test_frozen_records_refuse_assignment(attack):
    def question(c, asdict, replace):
        p = c["Point"](1, 5)
        if attack == "assign":
            p.y = 2
        elif attack == "delete":
            del p.y  # the class keeps the default, 0.0
        else:
            p.other = 2
        return p.y

    _same(question)


def test_eq_false_keeps_identity():
    def question(c, asdict, replace):
        H = c["Handle"]
        h = H("h", [1])
        return h == h, h == H("h", [1]), hash(h) == object.__hash__(h), len({h, H("h", [1])})

    _same(question)


def test_mutable_records_compare_by_value_and_do_not_hash():
    def question(c, asdict, replace):
        B = c["Box"]
        b = B((1,))
        b.count = 3
        return b == B((1,), 3), b.count, hash(b)

    _same(question)


def test_methods_the_class_defines_are_kept():
    def question(c, asdict, replace):
        E = c["Explicit"]
        return E(1, 2) == E(1, 3), hash(E(1, 2)), repr(E(1, 2)), asdict(E(1, 2))

    _same(question)


def test_fields_names_the_fields_in_order():
    names = [[f.name for f in fields(TWINS[i]["Point"])]
             for i, fields in enumerate((dataclasses.fields, _record.fields))]
    assert names[0] == names[1] == ["x", "y", "tag", "note", "history"]
    point = TWINS[1]["Point"](1)
    assert [f.name for f in _record.fields(point)] == names[0]
