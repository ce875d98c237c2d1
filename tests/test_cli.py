"""Command-line surface: exit codes, output formats, reproducibility."""

import hashlib
import itertools
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from shardsim import agreement, cli
from shardsim.cli import main

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SMOKE = str(CONFIG_DIR / "smoke.json")


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_summary_and_exit_code(capsys):
    code, out, err = run_cli(capsys, "run", SMOKE)
    assert code == 0, err
    payload = json.loads(out)
    assert payload["summary"]["safety_ok"]
    assert payload["summary"]["liveness_ok"]
    assert len(payload["metrics_digest"]) == 64
    assert len(payload["events_digest"]) == 64


def test_run_without_blocks_exits_1(capsys, tmp_path):
    # f_shard=3 asks for 2f+1 = 7 endorsing shards; the smoke population
    # forms one, so no block is ever certified.
    config = json.loads(Path(SMOKE).read_text())
    config["f_shard"] = 3
    path = tmp_path / "no-blocks.json"
    path.write_text(json.dumps(config))
    code, out, _ = run_cli(capsys, "run", str(path))
    summary = json.loads(out)["summary"]
    assert summary["blocks"] == 0
    # Nothing was delivered or is pending, yet the chain never grew.
    assert not summary["liveness_ok"] and summary["safety_ok"]
    assert summary["view_violations"] == 0
    assert code == 1


def test_internal_invariant_failure_exits_3(capsys, monkeypatch):
    # Every shard signature comes out one member short of its quorum, so the
    # post-certification check fails: a fault in the simulator, reported as
    # such and not as a failed oracle.
    sign_block = agreement.shard_sign_block

    def one_short(*args, **kwargs):
        ss = sign_block(*args, **kwargs)
        return None if ss is None else replace(ss, member_sigs=ss.member_sigs[:-1])

    monkeypatch.setattr(agreement, "shard_sign_block", one_short)
    code, out, err = run_cli(capsys, "run", SMOKE)
    assert code == 3
    assert out == ""
    assert err == "internal error: certified block failed validation: certificate\n"


def test_unexpected_exception_exits_3_with_traceback(capsys, monkeypatch):
    # Any other fault is an internal error too, never status 1, which
    # reads as a failed oracle.
    def broken(*args, **kwargs):
        raise KeyError("lost")

    monkeypatch.setattr(cli, "run_scenario", broken)
    code, out, err = run_cli(capsys, "run", SMOKE)
    assert code == 3
    assert out == ""
    assert "Traceback" in err and "KeyError: 'lost'" in err


def test_run_formats(capsys):
    code, out, _ = run_cli(capsys, "run", SMOKE, "--format", "csv")
    assert code == 0
    assert out.splitlines()[0].startswith("height,block,committee")

    code, out, _ = run_cli(capsys, "run", SMOKE, "--format", "jsonl")
    assert code == 0
    first = json.loads(out.splitlines()[0])
    assert first["kind"] == "genesis"


def test_run_out_dir_and_seed_reproducibility(capsys, tmp_path):
    dir_a, dir_b, dir_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    code, out_a, _ = run_cli(capsys, "run", SMOKE, "--seed", "cli-x", "--out-dir", str(dir_a))
    assert code == 0
    code, out_b, _ = run_cli(capsys, "run", SMOKE, "--seed", "cli-x", "--out-dir", str(dir_b))
    assert code == 0
    code, out_c, _ = run_cli(capsys, "run", SMOKE, "--seed", "cli-y", "--out-dir", str(dir_c))
    assert code == 0

    for name in ("metrics.csv", "metrics.json", "events.jsonl"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    assert out_a == out_b
    assert (dir_a / "events.jsonl").read_bytes() != (dir_c / "events.jsonl").read_bytes()


def test_run_out_dir_that_cannot_be_created_exits_2_before_the_run(capsys, tmp_path, monkeypatch):
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    runs = []
    monkeypatch.setattr(cli, "run_scenario", runs.append)
    code, out, err = run_cli(capsys, "run", SMOKE, "--out-dir", str(blocker / "out"))
    assert (code, out, runs) == (2, "", [])
    assert err.startswith("error: ") and err.count("\n") == 1


def test_out_dir_events_file_is_the_digested_log(capsys, tmp_path, monkeypatch):
    run, logs = cli.run_scenario, []

    def run_and_keep(config):
        metrics, events = run(config)
        logs.append(events)
        return metrics, events

    monkeypatch.setattr(cli, "run_scenario", run_and_keep)
    code, out, _ = run_cli(capsys, "run", SMOKE, "--out-dir", str(tmp_path))
    assert code == 0
    data = (tmp_path / "events.jsonl").read_bytes()
    assert hashlib.sha256(data).hexdigest() == json.loads(out)["events_digest"]
    assert [json.loads(line) for line in data.splitlines()] == list(logs[0])


def test_run_seed_matches_a_config_with_that_seed(capsys, tmp_path):
    # ``--seed`` only replaces the master seed: the run is the run of a copy
    # of the config file that names the seed itself.
    config = json.loads(Path(SMOKE).read_text())
    assert config["master_seed"] != "cli-x"
    config["master_seed"] = "cli-x"
    seeded = tmp_path / "seeded.json"
    seeded.write_text(json.dumps(config))
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    code, out_a, _ = run_cli(capsys, "run", SMOKE, "--seed", "cli-x", "--out-dir", str(dir_a))
    assert code == 0
    code, out_b, _ = run_cli(capsys, "run", str(seeded), "--out-dir", str(dir_b))
    assert code == 0

    for name in ("metrics.csv", "metrics.json", "events.jsonl"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
    assert out_a == out_b


def test_run_rejects_bad_config(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    code, _, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert "config rejected" in err

    code, _, err = run_cli(capsys, "run", str(tmp_path / "missing.json"))
    assert code == 2


def smoke_with(**fields) -> str:
    """configs/smoke.json with ``fields`` set, as JSON text."""
    return json.dumps({**json.loads(Path(SMOKE).read_text()), **fields})


@pytest.mark.parametrize(
    "content",
    [
        "[1, 2]",
        json.dumps({k: v for k, v in json.loads(Path(SMOKE).read_text()).items()
                    if k != "master_seed"}),
        "{not json",
        smoke_with(adversary={"strategey": "grind"}),
        smoke_with(adversary={"strategy": "grind", "params": {"fraction": [1]}}),
        smoke_with(unsafe_params="false"),
        smoke_with(heights=2.7),
        smoke_with(master_seed=None),
        smoke_with(master_seed=5),
        smoke_with(name=["x"]),
        smoke_with(mu_core="1/0"),
        smoke_with(adversary={"corrupt_fraction": "1/0"}),
        smoke_with(adversary={"corrupt_fraction": "-1/2"}),
        smoke_with(kappa=-1),
        smoke_with(kappa=0),
        smoke_with(genesis=[{"count": 64, "stake": 1, "stak": 3}]),
    ],
    ids=[
        "array",
        "missing-master-seed",
        "invalid-json",
        "unknown-adversary-key",
        "unreadable-param",
        "string-bool",
        "float-int",
        "null-seed",
        "integer-seed",
        "list-name",
        "zero-denominator",
        "zero-denominator-corrupt-fraction",
        "negative-corrupt-fraction",
        "negative-kappa",
        "zero-kappa",
        "unknown-genesis-key",
    ],
)
def test_run_malformed_config_exits_2(capsys, tmp_path, content):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    code, out, err = run_cli(capsys, "run", str(bad))
    assert code == 2
    assert out == ""
    assert err.startswith("config rejected:")
    assert "Traceback" not in err


def test_run_strict_rejects_stress_config(capsys):
    code, _, err = run_cli(capsys, "run", SMOKE, "--strict-params")
    assert code == 2
    assert "strict" in err


def test_run_unsafe_flagged_config_fails_strict_but_not_default(capsys):
    # The smoke config is marked unsafe_params, so default mode accepts it.
    code, _, _ = run_cli(capsys, "run", SMOKE)
    assert code == 0


def test_solve_params_exit_codes(capsys):
    code, out, _ = run_cli(
        capsys, "solve-params", "--mu", "1/10", "--kappa", "20",
        "--n", "4096", "--m-cap", "1", "--mu-core", "1/3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["feasible"] and payload["s_min"] == 766
    assert payload["report"]["core_residual"] <= payload["report"]["target"]

    code, out, _ = run_cli(
        capsys, "solve-params", "--mu", "1/4", "--kappa", "20",
        "--n", "1024", "--m-cap", "10", "--mu-core", "1/3",
    )
    assert code == 1
    assert not json.loads(out)["feasible"]


def test_bounds_explicit_and_preset(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--mu-core", "1/3", "--mu-shard", "1/5",
        "--mu-cred", "1/10", "--s-min", "256", "--shards", "16",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["core_bound"] == pytest.approx(0.00011141793776294947, abs=0)
    assert payload["union_bound"] == pytest.approx(0.095616366320095)

    # A grid of core sizes is one call per --s-min under the default flags.
    grid = {
        64: (0.10273981490249444, 4.448596807251105),
        128: (0.010555469566198818, 1.2368758470927954),
        256: (0.00011141793776294947, 0.095616366320095),
        512: (1.241395685534848e-08, 0.0005714055942661623),
    }
    for s_min, (core_bound, union_bound) in grid.items():
        code, out, _ = run_cli(capsys, "bounds", "--s-min", str(s_min))
        assert code == 0
        assert json.loads(out) == {"core_bound": core_bound, "union_bound": union_bound}

    code, out, _ = run_cli(
        capsys, "bounds", "--exact-n", "1024", "--shard-size", "64",
        "--mu-core", "1/2", "--mu-shard", "2/5", "--mu-cred", "1/10",
    )
    assert code == 0
    assert "exact_single_shard_tail" in json.loads(out)


def test_bounds_vacuous_parameters_exit_2(capsys):
    code, _, err = run_cli(
        capsys, "bounds", "--mu-core", "1/3", "--mu-shard", "1/2",
    )
    assert code == 2
    assert "error:" in err


SOLVE = ("--mu", "1/10", "--kappa", "20", "--n", "4096", "--m-cap", "1", "--mu-core", "1/3")


def _replaced(argv, flag, value):
    """``argv`` with ``flag``'s value swapped for ``value``."""
    i = argv.index(flag)
    return argv[:i + 1] + (value,) + argv[i + 2:]


@pytest.mark.parametrize(
    "argv",
    [
        ("bounds", "--s-min", "0"),
        ("bounds", "--mu-core", "2", "--mu-shard", "1/5", "--mu-cred", "1/10",
         "--s-min", "64", "--shards", "16"),
        ("bounds", "--mu-cred", "0"),
        ("bounds", "--shards", "-3"),
        ("bounds", "--exact-n", "100", "--shard-size", "0"),
        ("bounds", "--exact-n", "-1"),
        ("solve-params", *_replaced(SOLVE, "--mu-core", "2")),
        ("solve-params", *_replaced(SOLVE, "--mu", "1")),
        ("solve-params", *_replaced(SOLVE, "--n", "-5")),
        ("solve-params", *_replaced(SOLVE, "--m-cap", "0")),
        ("solve-params", *_replaced(SOLVE, "--kappa", "nan")),
        ("solve-params", *_replaced(SOLVE, "--kappa", "-1")),
    ],
    ids=[
        "bounds-s-min-zero",
        "bounds-mu-core-above-one",
        "bounds-mu-cred-zero",
        "bounds-shards-negative",
        "bounds-shard-size-zero",
        "bounds-exact-n-negative",
        "solve-mu-core-above-one",
        "solve-mu-one",
        "solve-n-negative",
        "solve-m-cap-zero",
        "solve-kappa-nan",
        "solve-kappa-negative",
    ],
)
def test_bounds_and_solve_params_malformed_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_montecarlo_core(capsys):
    code, out, _ = run_cli(
        capsys, "montecarlo", "core", "--s", "60", "--m", "12", "--s-min", "40",
        "--trials", "2000", "--seed", "cli-mc",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["within"]
    assert payload["estimate"] <= payload["bound"] + payload["three_sigma"]


def test_montecarlo_assignment_worker_independent(capsys):
    args = (
        "montecarlo", "assignment", "--n", "1024", "--k", "16",
        "--shard-size", "64", "--trials", "5000", "--seed", "cli-mc",
    )
    code, out1, _ = run_cli(capsys, *args, "--workers", "1")
    assert code == 0
    code, out2, _ = run_cli(capsys, *args, "--workers", "3")
    assert code == 0
    assert out1 == out2
    assert json.loads(out1)["within"]


def test_montecarlo_grind(capsys):
    code, out, _ = run_cli(
        capsys, "montecarlo", "grind", "--adversaries", "16", "--shard-bits", "2",
        "--epochs", "300", "--seed", "cli-grind",
    )
    payload = json.loads(out)
    assert 0.0 <= payload["p_value"] <= 1.0
    assert code == (0 if payload["indistinguishable"] else 1)
    assert payload["indistinguishable"]


def test_montecarlo_grind_small_inputs_give_a_p_value_or_a_named_refusal(capsys):
    # Every small input the up-front label check accepts.  A label can still
    # get no placement by chance; the test drops it, and refuses by name an
    # input that left fewer than two labels placed.
    accepted = 0
    for adversaries, shard_bits, epochs, seed in itertools.product(
        (1, 2), (1, 2, 3), (1, 2, 3), ("grind-unit", "grind-ref", "a", "b")
    ):
        if 2**shard_bits > 2 * adversaries * epochs:
            continue
        accepted += 1
        code, out, err = run_cli(
            capsys, "montecarlo", "grind", "--adversaries", str(adversaries),
            "--shard-bits", str(shard_bits), "--epochs", str(epochs), "--seed", seed,
        )
        if code == 2:
            assert out == ""
            assert f"the 2**{shard_bits} labels" in err
            assert f"from {adversaries} adversaries over {epochs} epochs" in err
            assert "raise the adversaries or the epochs" in err
        else:
            assert code in (0, 1), err
            assert 0.0 <= json.loads(out)["p_value"] <= 1.0
    assert accepted == 52


def test_montecarlo_grind_refuses_placements_that_cannot_fail(capsys):
    # Two placements per arm over two labels: even fully separated arms give
    # p = 0.317, so at the default --alpha 0.001 no outcome could fail.
    argv = (
        "montecarlo", "grind", "--adversaries", "1", "--shard-bits", "1",
        "--epochs", "2", "--seed", "grind-unit",
    )
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")
    assert "the 2**1 labels" in err
    assert "from 1 adversaries over 2 epochs" in err
    assert "raise the adversaries or the epochs" in err
    # An --alpha above that floor gets a verdict from the same placements.
    code, out, err = run_cli(capsys, *argv, "--alpha", "0.5")
    assert code in (0, 1), err
    assert json.loads(out)["p_value"] >= 0.317


@pytest.mark.parametrize(
    "argv",
    [
        ("core", "--s", "60", "--m", "-3", "--s-min", "40"),
        ("core", "--s", "60", "--m", "61", "--s-min", "40"),
        ("core", "--s", "60", "--m", "12", "--s-min", "0"),
        ("core", "--s", "60", "--m", "12", "--s-min", "61"),
        ("grind", "--epochs", "0"),
        ("grind", "--adversaries", "0"),
        ("grind", "--shard-bits", "0"),
        ("grind", "--adversaries", "1", "--epochs", "1", "--shard-bits", "20"),
        ("grind", "--epochs", "50", "--alpha", "-1"),
        ("grind", "--epochs", "50", "--alpha", "0"),
        ("grind", "--epochs", "50", "--alpha", "5"),
        ("grind", "--epochs", "50", "--alpha", "nan"),
        ("core", "--s", "100", "--m", "25", "--s-min", "60", "--trials", "10", "--mu-core", "2"),
        ("core", "--s", "60", "--m", "12", "--s-min", "40", "--trials", "10", "--workers", "0"),
        ("assignment", "--n", "64", "--k", "4", "--shard-size", "16", "--trials", "10",
         "--workers", "0"),
        ("assignment", "--n", "64", "--k", "4", "--shard-size", "16", "--trials", "10",
         "--mu-cred", "0"),
        ("assignment", "--n", "64", "--k", "4", "--shard-size", "16", "--trials", "10",
         "--mu-shard", "1"),
    ],
    ids=[
        "core-m-negative",
        "core-m-above-s",
        "core-s-min-zero",
        "core-s-min-above-s",
        "grind-epochs-zero",
        "grind-adversaries-zero",
        "grind-shard-bits-zero",
        "grind-more-labels-than-placements",
        "grind-alpha-negative",
        "grind-alpha-zero",
        "grind-alpha-above-one",
        "grind-alpha-nan",
        "core-mu-core-above-one",
        "core-workers-zero",
        "assignment-workers-zero",
        "assignment-mu-cred-zero",
        "assignment-mu-shard-one",
    ],
)
def test_montecarlo_malformed_input_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, "montecarlo", *argv, "--seed", "cli-bad")
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_scaling_small_grid(capsys):
    code, out, _ = run_cli(
        capsys, "scaling", "--n-grid", "64,128", "--s-min", "8", "--s-max", "16",
        "--heights", "4", "--tx-rate", "0",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["sublinear"]
    assert payload["overall_growth"] < 4.0
    assert [row["n_credentials"] for row in payload["rows"]] == [64, 128]

    # The growth runs from the smallest size to the largest in any order.
    code, out, _ = run_cli(
        capsys, "scaling", "--n-grid", "128,64", "--s-min", "8", "--s-max", "16",
        "--heights", "4", "--tx-rate", "0",
    )
    assert code == 0
    reversed_payload = json.loads(out)
    assert reversed_payload["overall_growth"] == payload["overall_growth"]
    assert reversed_payload["sublinear"] == payload["sublinear"]


@pytest.mark.parametrize("n_grid", ["64", "64,64", "0,64", "64,x"])
def test_scaling_malformed_grid_exits_2(capsys, n_grid):
    code, out, err = run_cli(capsys, "scaling", "--n-grid", n_grid)
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_module_entry_point():
    # The checkout's package first, so the subprocess runs the code under test.
    path = os.pathsep.join(filter(None, [str(SRC_DIR), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "shardsim", "run", SMOKE],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["summary"]["safety_ok"]
