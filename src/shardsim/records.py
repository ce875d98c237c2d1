"""What a run records: the event log and the per-height metrics, both
append-only and canonically serialized so replays compare by digest."""

from __future__ import annotations

import json

from .crypto import hash_digest


class EventLog:
    """Append-only protocol event records, canonically serialized."""

    def __init__(self):
        self.records: list[dict] = []

    def emit(self, kind: str, height: int, **fields):
        record = {"seq": len(self.records), "kind": kind, "height": height}
        record.update(fields)
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def to_jsonl(self) -> str:
        lines = [
            json.dumps(rec, sort_keys=True, separators=(",", ":")) for rec in self.records
        ]
        return "\n".join(lines) + ("\n" if lines else "")

    def digest(self) -> str:
        return hash_digest(self.to_jsonl().encode("utf-8")).hex()


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
        self.view_violations = 0
        self.summary: dict = {}

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
