"""The event log's records and lines against ``json.dumps`` of a dict."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from shardsim.records import EventLog

# Text that reaches every escape rule of JSON and every character
# ``str.format`` treats specially, next to arbitrary text.
special_text = st.text(alphabet='{}%"\\/\x00\x08\x1f\x7f é \ud800\U0001f600az09:!')
texts = st.text() | special_text
values = st.one_of(
    texts,
    st.binary(max_size=40),
    st.integers(),
    st.integers(min_value=-(2**200), max_value=2**200),
    st.booleans(),
    st.none(),
    st.lists(texts, max_size=4),
)
names = texts.filter(lambda name: name not in ("seq", "kind", "height"))
events = st.lists(
    st.tuples(
        texts | st.sampled_from(["join", "beacon"]),
        st.integers(min_value=-5, max_value=2**70),
        st.dictionaries(names | st.sampled_from(["pk", "label", "z"]), values, max_size=5),
    ),
    max_size=8,
)


def reference_record(seq, kind, height, fields) -> dict:
    record = {"seq": seq, "kind": kind, "height": height}
    record.update((k, v.hex() if isinstance(v, bytes) else v) for k, v in fields.items())
    return record


@settings(deadline=None, max_examples=300)
@given(events)
def test_every_line_equals_json_dumps_of_its_record(emits):
    log = EventLog()
    # Each event twice: the second record is written by the cached template.
    emits = [e for e in emits for _ in range(2)]
    for kind, height, fields in emits:
        log.emit(kind, height, **fields)
    expected = [reference_record(seq, *e) for seq, e in enumerate(emits)]
    assert list(log) == expected
    assert list(log.lines()) == [
        json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in expected
    ]
    assert len(log) == len(expected)


def test_same_names_in_another_order_write_the_same_line():
    log = EventLog()
    log.emit("x", 1, a=b"\x01", b=[1, "{0}"])
    log.emit("x", 1, b=[1, "{0}"], a=b"\x01")
    first, second = log.lines()
    assert first.replace('"seq":0', '"seq":1') == second
    assert first == '{"a":"01","b":[1,"{0}"],"height":1,"kind":"x","seq":0}\n'


@pytest.mark.parametrize("name", ["seq", "kind", "height"])
def test_a_field_named_like_the_header_is_refused(name):
    log = EventLog()
    log.emit("join", 1, label="0")
    with pytest.raises(ValueError, match=name):
        log.emit("join", 2, label="0", **{name: 7})
    assert list(log) == [{"seq": 0, "kind": "join", "height": 1, "label": "0"}]


# A batch: one kind, height and set of field names, and its rows.
batches = st.tuples(
    st.sampled_from(["join", "beacon", "fresh"]),
    st.integers(min_value=-5, max_value=2**70),
    st.lists(names | st.sampled_from(["pk", "label"]), min_size=1, max_size=3, unique=True),
    st.integers(min_value=0, max_value=4),
).flatmap(
    lambda b: st.tuples(
        st.just(b[:3]), st.lists(st.tuples(*[values] * len(b[2])), min_size=b[3], max_size=b[3])
    )
)


@settings(deadline=None)
@given(
    st.lists(
        st.one_of(events.map(lambda e: ("emits", e)), batches.map(lambda b: ("batch", b))),
        max_size=5,
    )
)
def test_a_batch_leaves_what_one_emit_per_row_leaves(steps):
    batched, one_by_one = EventLog(), EventLog()
    for how, step in steps:
        if how == "emits":
            for kind, height, fields in step:
                batched.emit(kind, height, **fields)
                one_by_one.emit(kind, height, **fields)
            continue
        (kind, height, names_), rows = step
        batched.emit_batch(kind, height, **{n: [row[i] for row in rows] for i, n in enumerate(names_)})
        for row in rows:
            one_by_one.emit(kind, height, **dict(zip(names_, row)))
    assert list(batched) == list(one_by_one)
    assert list(batched.lines()) == list(one_by_one.lines())
    assert batched.digest() == one_by_one.digest()
    assert list(batched._shapes.items()) == list(one_by_one._shapes.items())
    assert batched._records == one_by_one._records


def test_a_batch_shares_the_shape_of_earlier_emits():
    log = EventLog()
    log.emit("join", 1, label="0", pk=b"\x01")
    log.emit_batch("join", 2, label=["1", "0"], pk=[b"\x02", b"\x03"])
    log.emit_batch("fresh", 2, z=[])  # an empty batch interns nothing
    assert len({id(rec[0]) for rec in log._records}) == 1
    assert list(log._shapes) == [("join", "label", "pk")]
    assert [rec["label"] for rec in log] == ["0", "1", "0"]


@pytest.mark.parametrize("name", ["seq", "kind", "height"])
def test_a_batch_field_named_like_the_header_is_refused(name):
    log = EventLog()
    log.emit("join", 1, label="0")
    with pytest.raises(ValueError, match=name):
        log.emit_batch("join", 2, label=["0"], **{name: [7]})
    assert list(log) == [{"seq": 0, "kind": "join", "height": 1, "label": "0"}]


@pytest.mark.parametrize("columns", [{}, {"a": [1], "b": [1, 2]}])
def test_a_batch_needs_columns_of_one_length(columns):
    log = EventLog()
    with pytest.raises(ValueError, match="one length"):
        log.emit_batch("x", 1, **columns)
    assert len(log) == 0


@settings(deadline=None)
@given(events, st.sampled_from(["join", "beacon", "absent"]))
def test_of_kind_yields_the_records_of_that_kind(emits, kind):
    log = EventLog()
    for k, height, fields in emits:
        log.emit(k, height, **fields)
    assert list(log.of_kind(kind)) == [rec for rec in log if rec["kind"] == kind]
