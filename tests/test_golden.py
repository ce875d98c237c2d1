"""Golden digests: what a config and seed produce, pinned byte for byte.

Determinism within one process is tested elsewhere; these pins catch a
change that alters the outputs consistently.  A change that moves a digest
on purpose updates the pin here and says why.  The ``suite-`` entries are
acceptance-corpus scenarios (same names and master seeds); the pins of
suite-000, -007 and -014 equal the seed-0 pins of the benchmark.
"""

import hashlib
import json
from pathlib import Path

import pytest

from shardsim import harness, records
from shardsim.harness import ScenarioConfig, Simulation, run_scenario

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _corpus_mapping(idx: int, strategy: str, epoch_length: int) -> dict:
    # mu 1/100, N 256: the solver's core size is 169.
    return {
        "schema_version": 1,
        "name": f"suite-{idx:03d}-{strategy}-n256-t{epoch_length}",
        "master_seed": f"suite-{idx:03d}",
        "epoch_length": epoch_length,
        "heights": 30,
        "s_min": 169,
        "s_max": 338,
        "mu_core": "1/2",
        "mu_corrupted": "1/2",
        "mu": "1/100",
        "stake_cap": 1,
        "kappa": 20.0,
        "f_shard": 0,
        "genesis": [{"count": 256, "stake": 1}],
        "tx_rate": 2,
        "adversary": {"strategy": strategy},
    }


def _txheavy_mapping() -> dict:
    # 50 transactions per height: blocks 2-7 each carry 50, so every block
    # replays a long body (the other pins issue 2 per height).
    return {
        "schema_version": 1,
        "name": "txheavy-n512",
        "master_seed": "txheavy-n512",
        "epoch_length": 3,
        "heights": 8,
        "s_min": 64,
        "s_max": 128,
        "mu_core": "1/3",
        "mu_corrupted": "1/3",
        "mu": "1/10",
        "stake_cap": 1,
        "kappa": 20.0,
        "f_shard": 0,
        "genesis": [{"count": 512, "stake": 1}],
        "tx_rate": 50,
        "unsafe_params": True,
    }


def _fshard1_mapping(name: str, **overrides) -> dict:
    # f_shard 1: committees of four shards, three of which must endorse.
    mapping = {
        "schema_version": 1,
        "name": name,
        "master_seed": name,
        "epoch_length": 3,
        "heights": 10,
        "s_min": 32,
        "s_max": 64,
        "mu_core": "1/3",
        "mu_corrupted": "1/3",
        "mu": "1/10",
        "stake_cap": 1,
        "kappa": 20.0,
        "f_shard": 1,
        "genesis": [{"count": 1024, "stake": 1}],
        "tx_rate": 10,
        "unsafe_params": True,
    }
    mapping.update(overrides)
    return mapping


def _small_mapping(name: str, **overrides) -> dict:
    mapping = {
        "schema_version": 1,
        "name": name,
        "master_seed": name,
        "epoch_length": 3,
        "heights": 12,
        "s_min": 32,
        "s_max": 64,
        "mu_core": "1/3",
        "mu_corrupted": "1/3",
        "mu": "1/10",
        "stake_cap": 1,
        "kappa": 20.0,
        "f_shard": 0,
        "genesis": [{"count": 256, "stake": 1}],
        "tx_rate": 4,
        "unsafe_params": True,
    }
    mapping.update(overrides)
    return mapping


# name -> (config, events digest, metrics digest, blocks, safety_ok)
GOLDEN = {
    "smoke": (
        lambda: ScenarioConfig.from_file(CONFIG_DIR / "smoke.json"),
        "f1730b204706f0b756cd5c1bae3459e45ff75805e9c744e42fa5c1bc2893a9c8",
        "743cf2de64715aaf42acd41598abda84dd16eac7eec2f1c51377fec38bee2020",
        10,
        True,
    ),
    "stress-equivocate": (
        lambda: ScenarioConfig.from_file(CONFIG_DIR / "stress-equivocate.json"),
        "95d9b624b18c07f5487614ef32bf00aca8b25c5f221dc01af6d31ab3b173a54d",
        "39884ea747e442180cf99241f619ad547cc5a2633c252ed60af65f43eb9d2e12",
        3,
        False,
    ),
    "suite-example": (
        lambda: ScenarioConfig.from_file(CONFIG_DIR / "suite-example.json"),
        "23887b428adaf55ee9196c79971cd11e5d962e14a12c8837f4790d2f4dfa0bde",
        "8b4b7dcf2d3b98235c475de884570afd9d4b206bb9022299120fc260f6095021",
        30,
        True,
    ),
    "suite-000-passive-n256-t3": (
        lambda: ScenarioConfig.from_mapping(_corpus_mapping(0, "passive", 3)),
        "0a0140843cb40d8b1434bf5037f6ae1f4a85851a2bd10ac8cf8dcb0bdddc0746",
        "6affcd09fbf5b2639b24e8e1c68be517644089d4a2824b9598caddc3a3338469",
        30,
        True,
    ),
    "suite-007-equivocate-n256-t5": (
        lambda: ScenarioConfig.from_mapping(_corpus_mapping(7, "equivocate", 5)),
        "3d2a678a67f87cb77aeef18df4f3fae6052be0aeee4d2329496d8a0130c16ffd",
        "b09e8d7e9bbfc1be716bcdcd64e06749c5f9d7dc44382c56bf5669be59361e60",
        30,
        True,
    ),
    "suite-001-silent-n256-t3": (
        lambda: ScenarioConfig.from_mapping(_corpus_mapping(1, "silent", 3)),
        "513a449236deff91c21b29b494e20cc2561ae0c36d2b05a9a47b5e94671cf26a",
        "5977498e9542705aae6af74a95468c7c8054e30f639ac90c9c451134f3fbaed7",
        30,
        True,
    ),
    "suite-003-grind-n256-t3": (
        lambda: ScenarioConfig.from_mapping(_corpus_mapping(3, "grind", 3)),
        "176d16bd5202662044f6cc3efd9192752980fe1fa4022ca9f53bbcc827f1e8dc",
        "88e20b81fb31baf5defe11ef5f77454cc5f303d10839235b297fe949fb631285",
        30,
        True,
    ),
    "suite-014-worst-case-seed-n256-t10": (
        lambda: ScenarioConfig.from_mapping(_corpus_mapping(14, "worst-case-seed", 10)),
        "b4d2c7543aaf1a33b6ccaf2d85b5e1b43ae8b1f4046ca10c690ec23db95b2b7f",
        "8b2dfdd3452e5d9a4c75b000a64a9d00420cff726844633e956f5e8c24bac0db",
        30,
        True,
    ),
    "txheavy-n512": (
        lambda: ScenarioConfig.from_mapping(_txheavy_mapping()),
        "e3ef4c1ed33ce365c650cfa203170c2b11a548843836ae2a2a91ffd320d32241",
        "4278152e1fa90abb1631ac6620bcff5ec7ab1eeee3d1dca635159866b4da9414",
        8,
        True,
    ),
    "fshard1-passive-n1024": (
        lambda: ScenarioConfig.from_mapping(_fshard1_mapping("fshard1-passive-n1024")),
        "c275885af57697b50ac6d442505f0464a01f0009815de7569925cc4c243b665c",
        "eb56b83c7084a0c07e8ed00a7791dc91fcf18e569decbea3bfd80f02020ae0fc",
        10,
        True,
    ),
    # Two forced-corrupt shards void some committees: the run records
    # corrupted-committee, no-decision, committee-shortfall and
    # certificate-shortfall incidents.
    "fshard1-equivocate-n256": (
        lambda: ScenarioConfig.from_mapping(
            _fshard1_mapping(
                "fshard1-equivocate-n256",
                master_seed="unit-seed",
                heights=8,
                mu="1/3",
                genesis=[{"count": 256, "stake": 1}],
                tx_rate=2,
                adversary={"strategy": "equivocate", "force_corrupt_shards": 2},
            )
        ),
        "6120cb07f4dc65139e9182c01c8a1204914e88570857115f72536d5961f1be29",
        "8d98eb537db8f1e4e652ab687f76968fcc7666664311315a54a74c6c0cc17e9b",
        3,
        True,
    ),
    # Respends split each corrupted 4-stake UTXO into 1-stake UTXOs of fresh
    # adversary keys outside the keyring, which the honest workload must
    # never draw as senders.
    "grind-split-n256": (
        lambda: ScenarioConfig.from_mapping(
            _small_mapping(
                "grind-split-n256",
                stake_cap=4,
                genesis=[{"count": 256, "stake": 4}],
                adversary={"strategy": "grind", "params": {"split": True}},
            )
        ),
        "69e350790fd7b2bbe217729da6d559e69147fe22336f869ff02adc46f299b572",
        "0a237a1564f298b7c4bb358aad6a47214bca1acd2599c8dc86391aa16dcf53de",
        12,
        True,
    ),
    # Epochs of 4 and 20 transfers per height: workload receivers are
    # created under every residue of the epoch and renew twice.
    "residues-n256-t4": (
        lambda: ScenarioConfig.from_mapping(
            _small_mapping("residues-n256-t4", epoch_length=4, tx_rate=20)
        ),
        "133f138d3f2ef34f0035db20c1508d5332e40c9ccfb66fccdf1fac7bcbaa6351",
        "c0379f19e5afde8a2a58f666fecf3ee12bb515a8572ba1015a27ca0cb727323c",
        12,
        True,
    ),
    # Two forced-corrupt shards past mu_core grind their refill beacons at
    # height 4: the only pin whose beacons are biased.
    "worst-seed-forced-n256": (
        lambda: ScenarioConfig.from_mapping(
            _small_mapping(
                "worst-seed-forced-n256",
                mu="1/5",
                adversary={
                    "strategy": "worst-case-seed",
                    "corrupt_fraction": "1/5",
                    "force_corrupt_shards": 2,
                },
            )
        ),
        "d2392fdfea7ba6e449a75d2f469e7f5f3334b736d7de7d75e6666ed26a323417",
        "cb2e21c941508803ce98354f850b6c005a43fba7be8a3c5266a5345574cabd42",
        9,
        True,
    ),
    # Twelve users under s_min 16: the root can neither fill its core nor
    # merge, so no shard is ever eligible and every height records
    # no-eligible-shards.
    "undersized-root-n12": (
        lambda: ScenarioConfig.from_mapping(
            _small_mapping(
                "undersized-root-n12",
                genesis=[{"count": 12, "stake": 1}],
                s_min=16,
                s_max=32,
            )
        ),
        "37e9cd86a46c46a92c8cf0b4b2c36309ff0595ef1bc1d62297f91d8ed1779813",
        "89e2c8f14eb00c3fd8bdcc9903ef27c6417af123bcd0291d49facbd899955853",
        0,
        True,
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(name):
    make_config, events_digest, metrics_digest, blocks, safety_ok = GOLDEN[name]
    config = make_config()
    assert config.name == name
    metrics, events = run_scenario(config)
    assert metrics.summary["blocks"] == blocks
    assert metrics.summary["safety_ok"] is safety_ok
    assert metrics.summary["view_violations"] == 0
    assert events.digest() == events_digest
    assert metrics.digest() == metrics_digest


def test_grind_half_renews_keyring_keys_only():
    """suite-003 with grind respending half of its corrupted UTXOs each
    height: the one pin in which fresh adversary keys, outside the keyring,
    live until they come due for renewal.  None of them joins a shard, and
    every live key outside the keyring is one the adversary made."""
    mapping = _corpus_mapping(3, "grind", 3)
    mapping["adversary"] = {"strategy": "grind", "params": {"fraction": "1/2"}}
    sim = Simulation(ScenarioConfig.from_mapping(mapping))
    metrics, events = sim.run()
    assert metrics.summary["blocks"] == 30
    assert metrics.summary["safety_ok"] is True
    assert events.digest() == "9f41115fdf3604726ba91963db75ea161aab5cf34a6f0ce5ec1d2baeed12997d"
    assert metrics.digest() == "4717b689af8bd07153dc012daf15ab1b02f53acb677aa5464b765ede0faa8a23"
    joined = {bytes.fromhex(rec["pk"]) for rec in events.of_kind("join")}
    assert joined and joined <= sim.keyring.keys()
    outside = sim.utxos.live.keys() - sim.keyring.keys()
    assert outside and outside <= sim.adv.keys.keys()


class ReferenceEventLog:
    """The event log as a list of dicts, each written by ``json.dumps``: the
    contract ``records.EventLog`` keeps, as it stood before the log held
    tuples.  Emit sites then hexed bytes themselves, so this log hexes a
    ``bytes`` field when it is emitted."""

    def __init__(self):
        self.records = []

    def emit(self, kind, height, /, **fields):
        record = {"seq": len(self.records), "kind": kind, "height": height}
        record.update((k, v.hex() if isinstance(v, bytes) else v) for k, v in fields.items())
        self.records.append(record)

    def lines(self):
        return [json.dumps(rec, sort_keys=True, separators=(",", ":")) + "\n" for rec in self.records]


class TeedEventLog(records.EventLog):
    """An ``EventLog`` that feeds every emit, and every row of a batch, to a
    ``ReferenceEventLog`` too."""

    def __init__(self):
        super().__init__()
        self.reference = ReferenceEventLog()

    def emit(self, kind, height, /, **fields):
        super().emit(kind, height, **fields)
        self.reference.emit(kind, height, **fields)

    def emit_batch(self, kind, height, /, **columns):
        super().emit_batch(kind, height, **columns)
        for row in zip(*columns.values()):
            self.reference.emit(kind, height, **dict(zip(columns, row)))


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_event_log_equals_the_dict_reference(name, monkeypatch):
    monkeypatch.setattr(harness, "EventLog", TeedEventLog)
    _, events = run_scenario(GOLDEN[name][0]())
    reference = events.reference
    assert list(events) == reference.records
    assert list(events.lines()) == reference.lines()
    assert events.digest() == hashlib.sha256("".join(reference.lines()).encode()).hexdigest()
