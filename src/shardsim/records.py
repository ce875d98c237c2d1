"""What a run records: the event log and the per-height metrics, both
append-only and canonically serialized so replays compare by digest.

An event record is the dict ``{"seq", "kind", "height", **fields}``, and its
line is that dict's ``json.dumps(sort_keys=True, separators=(",", ":"))``,
with a ``bytes`` field as its lowercase hex string.  The log keeps a record
as the tuple ``(shape, height, *values)``: ``shape`` is the interned
``(kind, *field names)`` and ``seq`` is the record's position."""

from __future__ import annotations

import json
from itertools import repeat
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Callable, Iterator

from .crypto import hash_digest, hash_digest_chunks


def _json(value) -> str:
    """``value`` as ``json.dumps`` writes it inside a record, bytes as hex."""
    cls = type(value)
    if cls is str:
        return encode_basestring_ascii(value)
    if cls is bytes:
        return f'"{value.hex()}"'
    if cls is bool:
        return "true" if value else "false"
    if value is None:
        return "null"
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _template(shape: tuple) -> tuple[str, Callable]:
    """``shape``'s line as a ``%`` template with its keys sorted, and the
    getter that puts ``[height, *field values, seq]`` in the template's order."""
    names = ("height", *shape[1:], "seq")
    keys = sorted((*names, "kind"))
    kind = _json(shape[0]).replace("%", "%%")
    body = ",".join(
        _json(k).replace("%", "%%") + ":" + (kind if k == "kind" else "%s") for k in keys
    )
    return "{" + body + "}\n", itemgetter(*[names.index(k) for k in keys if k != "kind"])


class EventLog:
    """Append-only protocol event records, canonically serialized."""

    def __init__(self):
        self._records: list[tuple] = []
        self._shapes: dict[tuple, tuple] = {}

    def _shape(self, kind: str, names) -> tuple:
        """The interned ``(kind, *names)``; a name the record's own header
        uses is refused."""
        key = (kind, *names)
        shape = self._shapes.get(key)
        if shape is None:
            clash = {"seq", "kind", "height"}.intersection(names)
            if clash:
                raise ValueError(f"event fields {sorted(clash)} would overwrite the record's own")
            shape = self._shapes[key] = key
        return shape

    def emit(self, kind: str, height: int, /, **fields):
        shape = self._shapes.get((kind, *fields)) or self._shape(kind, fields)
        self._records.append((shape, height, *fields.values()))

    def emit_batch(self, kind: str, height: int, /, **columns):
        """One ``emit(kind, height, **row)`` per row of ``columns``, each a
        sequence holding one field's values, all of one length; the records
        are appended in one pass, and an empty batch appends none."""
        lengths = set(map(len, columns.values()))
        if len(lengths) != 1:
            raise ValueError("a batch takes one or more field columns of one length")
        if lengths == {0}:
            return
        shape = self._shape(kind, columns)
        self._records.extend(zip(repeat(shape), repeat(height), *columns.values()))

    def __len__(self):
        return len(self._records)

    def __iter__(self) -> Iterator[dict]:
        return self._dicts(enumerate(self._records))

    def of_kind(self, kind: str) -> Iterator[dict]:
        """The records of ``kind`` as ``__iter__`` yields them; no other
        record is turned into a dict."""
        return self._dicts((seq, rec) for seq, rec in enumerate(self._records) if rec[0][0] == kind)

    @staticmethod
    def _dicts(numbered) -> Iterator[dict]:
        for seq, (shape, height, *values) in numbered:
            record = {"seq": seq, "kind": shape[0], "height": height}
            record.update(zip(shape[1:], [v.hex() if type(v) is bytes else v for v in values]))
            yield record

    def lines(self) -> Iterator[str]:
        """Each record's canonical JSON line, newline included."""
        templates = {}
        for seq, rec in enumerate(self._records):
            template = templates.get(rec[0])
            if template is None:
                template = templates[rec[0]] = _template(rec[0])
            values = [v if type(v) is int else _json(v) for v in rec[1:]]
            values.append(seq)
            yield template[0] % template[1](values)

    def to_jsonl(self) -> str:
        return "".join(self.lines())

    def digest(self) -> str:
        """Digest of ``to_jsonl()``, hashed one line at a time."""
        return hash_digest_chunks(line.encode("utf-8") for line in self.lines()).hex()


_CSV_COLUMNS = (
    "height",
    "block",
    "committee",
    "leader_rounds",
    "corrupted_shards",
    "shards",
    "members",
    "joins",
    "txs_included",
    "messages_total",
)


class Metrics:
    """Per-height simulation records plus run verdicts.

    Append-only and a pure function of the scenario config; serialization
    is canonical so digests can be compared across replays.
    """

    def __init__(self, name: str, n_users: int):
        self.name = name
        self.n_users = n_users
        self.rows: list[dict] = []
        self.incidents: list[dict] = []
        # tx id hex -> {"delivered", "included", "honest"}
        self.latencies: dict[str, dict] = {}
        self.summary: dict = {}

    @property
    def view_violations(self) -> int:
        return sum(rec["kind"] == "view-divergence" for rec in self.incidents)

    def record_height(self, **fields):
        self.rows.append({col: fields.get(col) for col in _CSV_COLUMNS})

    def incident(self, height: int, kind: str, **fields):
        rec = {"height": height, "kind": kind}
        rec.update(fields)
        self.incidents.append(rec)

    def tx_delivered(self, tx_id: str, height: int, honest: bool):
        self.latencies[tx_id] = {"delivered": height, "included": None, "honest": honest}

    def tx_included(self, tx_id: str, height: int):
        if tx_id in self.latencies:
            self.latencies[tx_id]["included"] = height

    def finish(self, **verdicts):
        self.summary = dict(verdicts)

    def to_json(self) -> str:
        payload = {
            "name": self.name,
            "n_users": self.n_users,
            "rows": self.rows,
            "incidents": self.incidents,
            "latencies": self.latencies,
            "view_violations": self.view_violations,
            "summary": self.summary,
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def to_csv(self) -> str:
        lines = [",".join(_CSV_COLUMNS)]
        for row in self.rows:
            lines.append(",".join(_csv_cell(row[col]) for col in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def digest(self) -> str:
        return hash_digest(self.to_json().encode("utf-8")).hex()


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (list, tuple)):
        return "|".join(str(v) for v in value)
    return str(value)
