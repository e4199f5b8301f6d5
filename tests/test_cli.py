"""End-to-end CLI runs on tiny models: every subcommand, exit codes, and
seeded determinism of the emitted artifacts."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pmlm.checkpoint import checkpoint_bytes
from pmlm.cli import main
from pmlm.data import SPECIAL_TOKENS

from helpers import tiny_model


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A tiny corpus plus one bidirectional and one causal checkpoint."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus.txt"
    assert main(["make-corpus", "--out", str(corpus), "--bytes", "3000", "--seed", "0"]) == 0
    small = [
        "--steps", "30", "--batch-size", "4", "--seed", "5", "--max-len", "16",
    ]
    config = root / "small.json"
    from pmlm.training import preset

    upmlm_cfg = preset(
        "upmlm", str(corpus), str(root / "upmlm.ckpt"),
        layers=1, heads=2, hidden_size=16, intermediate_size=32, max_len=16,
        steps=30, batch_size=4, seed=5,
    )
    config.write_text(json.dumps(upmlm_cfg.to_dict()), encoding="utf-8")
    assert main(["train", "--config", str(config), "--quiet"]) == 0
    assert (
        main(
            ["train", "--preset", "gpt-like", "--corpus", str(corpus),
             "--checkpoint", str(root / "gpt.ckpt"), *small, "--quiet"]
        )
        == 0
    )
    return root


def test_importing_the_cli_does_not_load_scipy_integrate():
    import pmlm

    env = {**os.environ, "PYTHONPATH": str(Path(pmlm.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, pmlm.cli; print('scipy.integrate' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_FIRST_GELU = """
import json, sys
{first}
import numpy as np
import pmlm, pmlm.cli
from pmlm import model as M
from pmlm.training import preset
before = sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy."))
net = M.Transformer.init(preset("upmlm", "", "").model_config(40), seed=0)
ids = np.random.default_rng(0).integers(0, 40, size=(16, 64))
np.save(sys.argv[1], net.logits(ids))
print(json.dumps({{"before": before, "special": "scipy.special" in sys.modules,
                  "workers": M._workers(16), "cpus": M._CPUS}}))
"""


def test_scipy_special_loads_at_the_first_gelu_and_keeps_the_logits(tmp_path):
    """A batched preset-width forward on two threads is the first GELU: both
    threads reach the lazy erf lookup together, and the logits keep the bits
    of a process that imported scipy.special before pmlm."""
    import pmlm

    env = {**os.environ, "PYTHONPATH": str(Path(pmlm.__file__).parents[1])}
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    runs = {}
    for name, first in (("lazy", ""), ("eager", "import scipy.special")):
        out = tmp_path / f"{name}.npy"
        proc = subprocess.run(
            [sys.executable, "-c", _FIRST_GELU.format(first=first), str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        runs[name] = json.loads(proc.stdout), np.load(out)
    (lazy, lazy_logits), (eager, eager_logits) = runs["lazy"], runs["eager"]
    assert lazy["before"] == []
    assert "scipy.special" in eager["before"]
    assert lazy["special"] and eager["special"]
    assert lazy["workers"] == min(2, lazy["cpus"])
    assert lazy_logits.shape == (16, 64, 40)
    assert lazy_logits.tobytes() == eager_logits.tobytes()


_BENCH_CLOCK = """
import sys, time
import pmlm.cli, pmlm.evaluation
seen = []
def perf_counter():
    seen.append("scipy.special" in sys.modules)
    return time.perf_counter()
pmlm.evaluation.time = type("Clock", (), {"perf_counter": staticmethod(perf_counter)})
before = "scipy.special" in sys.modules
code = pmlm.cli.main(["bench-latency", "--count", "1", "--length", "4", "--seed", "0"])
print(code, before, seen[0], file=sys.stderr)
"""


def test_bench_latency_loads_scipy_special_before_its_first_timer():
    """In a fresh process the first GELU would otherwise fall inside the
    causal loop's timer and charge it scipy's import."""
    import pmlm

    env = {**os.environ, "PYTHONPATH": str(Path(pmlm.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", _BENCH_CLOCK], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == "0 False True"


def test_train_requires_config_or_preset():
    assert main(["train"]) == 2


def test_generate_random_order_with_trace(workspace, capsys):
    out = workspace / "gen.json"
    trace = workspace / "trace.jsonl"
    code = main([
        "generate", "--checkpoint", str(workspace / "upmlm.ckpt"),
        "--length", "8", "--order", "random", "--seed", "1",
        "--trace", str(trace), "--out", str(out),
    ])
    assert code == 0
    lines = trace.read_text(encoding="utf-8").strip().splitlines()
    assert len(lines) == 8
    rec = json.loads(lines[0])
    assert {"step", "position", "token", "snapshot_ids", "snapshot", "token_text"} <= set(rec)
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert len(payload["tokens"]) == 8
    assert sorted(payload["order"]) == list(range(1, 9))


def test_generate_is_deterministic_per_seed(workspace):
    outs = []
    for tag in ("a", "b"):
        out = workspace / f"det_{tag}.json"
        assert main([
            "generate", "--checkpoint", str(workspace / "upmlm.ckpt"),
            "--length", "10", "--order", "random", "--seed", "42",
            "--sampler", "top_k", "--top-k", "5", "--out", str(out),
        ]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_generate_with_anchor_file(workspace):
    anchors = workspace / "anchors.txt"
    anchors.write_text("1:t\n4:a\n", encoding="utf-8")
    out = workspace / "anchored.json"
    assert main([
        "generate", "--checkpoint", str(workspace / "upmlm.ckpt"),
        "--length", "6", "--order", "ltr", "--seed", "0",
        "--anchors", str(anchors), "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["text"][0] == "t"
    assert payload["text"][3] == "a"


def test_malformed_anchor_line_reports_line_number(workspace, capsys):
    anchors = workspace / "bad_anchors.txt"
    anchors.write_text("1:t\nnope\n", encoding="utf-8")
    code = main([
        "generate", "--checkpoint", str(workspace / "upmlm.ckpt"),
        "--length", "6", "--order", "ltr", "--anchors", str(anchors),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_anchor_token_must_be_in_vocabulary(workspace, capsys):
    anchors = workspace / "oov.txt"
    anchors.write_text("2:Z\n", encoding="utf-8")
    assert main([
        "generate", "--checkpoint", str(workspace / "upmlm.ckpt"),
        "--length", "4", "--order", "ltr", "--anchors", str(anchors),
    ]) == 2
    assert "vocabulary" in capsys.readouterr().err


def test_generate_explicit_order_file(workspace):
    order = workspace / "order.txt"
    order.write_text("3 1 2 4\n", encoding="utf-8")
    out = workspace / "ordered.json"
    assert main([
        "generate", "--checkpoint", str(workspace / "upmlm.ckpt"),
        "--length", "4", "--order", "file", "--order-file", str(order),
        "--seed", "0", "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["order"] == [3, 1, 2, 4]


def test_generate_decodes_a_causal_checkpoint_left_to_right_only(workspace, tmp_path, capsys):
    ckpt = str(workspace / "gpt.ckpt")
    trace = tmp_path / "ltr.jsonl"
    assert main(["generate", "--checkpoint", ckpt, "--length", "12", "--order", "ltr", "--trace", str(trace)]) == 0
    assert len(capsys.readouterr().out.splitlines()[0]) == 12  # char tokens: one character per position
    records = [json.loads(line) for line in trace.read_text(encoding="utf-8").splitlines()]
    assert [r["position"] for r in records] == list(range(1, 13))
    anchors = tmp_path / "anchors.txt"
    anchors.write_text("2:t\n", encoding="utf-8")  # not a prefix: position 1 is free
    for extra in ([], ["--order", "ltr", "--anchors", str(anchors)]):
        trace = tmp_path / "rejected.jsonl"
        assert main(["generate", "--checkpoint", ckpt, "--length", "12", "--trace", str(trace), *extra]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1 and "left to right" in err
        assert not trace.exists()


def test_eval_ppl_sequential_bidirectional(workspace):
    out = workspace / "ppl.json"
    assert main([
        "eval-ppl", "--checkpoint", str(workspace / "upmlm.ckpt"),
        "--corpus", str(workspace / "corpus.txt"), "--mode", "sequential",
        "--out", str(out),
    ]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["mode"] == "sequential"
    assert payload["ppl"] >= 1.0


def test_eval_ppl_random_mode_on_causal_checkpoint_fails(workspace, capsys):
    code = main([
        "eval-ppl", "--checkpoint", str(workspace / "gpt.ckpt"),
        "--corpus", str(workspace / "corpus.txt"), "--mode", "random",
    ])
    assert code != 0
    assert "unsupported" in capsys.readouterr().err


def test_eval_ppl_random_is_seed_deterministic(workspace):
    payloads = []
    for tag in ("a", "b"):
        out = workspace / f"ppl_{tag}.json"
        assert main([
            "eval-ppl", "--checkpoint", str(workspace / "upmlm.ckpt"),
            "--corpus", str(workspace / "corpus.txt"), "--mode", "random",
            "--seed", "9", "--out", str(out),
        ]) == 0
        payloads.append(out.read_bytes())
    assert payloads[0] == payloads[1]


@pytest.fixture(scope="module")
def preset_checkpoints(tmp_path_factory):
    """Preset-size upmlm and gpt-like checkpoints after one step: big enough
    that eval-ppl scores in several slices on one worker and on two."""
    root = tmp_path_factory.mktemp("preset")
    corpus = root / "corpus.txt"
    assert main(["make-corpus", "--out", str(corpus), "--bytes", "800", "--seed", "1"]) == 0
    for name in ("upmlm", "gpt-like"):
        assert main(["train", "--preset", name, "--corpus", str(corpus), "--checkpoint", str(root / f"{name}.ckpt"),
                     "--steps", "1", "--batch-size", "2", "--seed", "2", "--quiet"]) == 0
    return root


@pytest.mark.parametrize("name, mode", [("upmlm", "random"), ("upmlm", "sequential"), ("gpt-like", "sequential")])
def test_eval_ppl_writes_the_same_bytes_with_blas_pinned_or_not(name, mode, preset_checkpoints):
    """Unpinned BLAS scores on one worker; OPENBLAS_NUM_THREADS=1 scores on one
    worker per CPU, in smaller slices. The --out reports are byte-identical."""
    import pmlm

    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in blas}
    base["PYTHONPATH"] = str(Path(pmlm.__file__).parents[1])
    reports = []
    for tag, extra in (("unpinned", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        out = preset_checkpoints / f"{name}-{mode}-{tag}.json"
        proc = subprocess.run(
            [sys.executable, "-m", "pmlm.cli", "eval-ppl", "--checkpoint", str(preset_checkpoints / f"{name}.ckpt"),
             "--corpus", str(preset_checkpoints / "corpus.txt"), "--mode", mode, "--seed", "3", "--out", str(out)],
            env={**base, **extra}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]


@pytest.mark.parametrize("name", ["upmlm", "gpt-like"])
def test_train_writes_the_same_bytes_with_blas_pinned_or_not(name, tmp_path):
    """Unpinned BLAS trains a preset batch's two shards in turn on one worker;
    OPENBLAS_NUM_THREADS=1 trains them on one worker per CPU. The checkpoints
    and loss logs are byte-identical."""
    import pmlm

    assert main(["make-corpus", "--out", str(tmp_path / "corpus.txt"), "--bytes", "3000", "--seed", "4"]) == 0
    blas = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
    base = {k: v for k, v in os.environ.items() if k not in blas}
    base["PYTHONPATH"] = str(Path(pmlm.__file__).parents[1])
    outputs = []
    for tag, extra in (("unpinned", {}), ("pinned", {"OPENBLAS_NUM_THREADS": "1"})):
        ckpt, log = tmp_path / f"{tag}.ckpt", tmp_path / f"{tag}.jsonl"
        proc = subprocess.run(
            [sys.executable, "-m", "pmlm.cli", "train", "--preset", name, "--corpus", str(tmp_path / "corpus.txt"),
             "--checkpoint", str(ckpt), "--loss-log", str(log), "--steps", "3", "--batch-size", "16", "--seed", "5",
             "--quiet"],
            env={**base, **extra}, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_verify_equivalence_passes_and_writes_report(workspace, capsys):
    out = workspace / "equiv.json"
    code = main(["verify-equivalence", "--n", "4", "--seed", "7", "--out", str(out)])
    assert code == 0
    assert "PASS" in capsys.readouterr().out
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["passed"] is True
    assert payload["max_abs_gap"] < 1e-9
    assert payload["runs"][0]["constant_c"] == 120


def test_verify_equivalence_report_runs_have_exactly_their_keys(tmp_path, capsys):
    out = tmp_path / "equiv.json"
    assert main(["verify-equivalence", "--n", "3", "--models", "2", "--out", str(out)]) == 0
    keys = {"n", "pmlm_exact_nats", "aplm_mean_nats", "constant_c", "masked_side", "permutation_side",
            "max_abs_gap", "tolerance", "duplication_audit", "duplication_ok", "passed"}
    assert [set(run) for run in json.loads(out.read_text(encoding="utf-8"))["runs"]] == [keys, keys]


def test_verify_equivalence_builds_each_fresh_model_when_it_verifies_it(monkeypatch):
    import pmlm.cli as cli_mod
    from pmlm.model import Transformer

    calls = []
    init, verify = Transformer.init, cli_mod.verify_equivalence
    monkeypatch.setattr(Transformer, "init", classmethod(lambda cls, *a, **k: calls.append("init") or init(*a, **k)))
    monkeypatch.setattr(cli_mod, "verify_equivalence", lambda *a, **k: calls.append("verify") or verify(*a, **k))
    assert main(["verify-equivalence", "--n", "2", "--models", "3"]) == 0
    assert calls == ["init", "verify"] * 3


def test_verify_equivalence_reaches_n_8_and_names_its_cap_past_it(capsys):
    assert main(["verify-equivalence", "--n", "8"]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "PASS"
    assert main(["verify-equivalence", "--n", "9"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "n <= 8" in err


def test_verify_equivalence_accepts_trained_checkpoint(workspace):
    code = main([
        "verify-equivalence", "--checkpoint", str(workspace / "upmlm.ckpt"),
        "--n", "3", "--seed", "1",
    ])
    assert code == 0


def test_bench_latency_emits_two_column_table(workspace, capsys):
    out = workspace / "bench.json"
    code = main([
        "bench-latency", "--count", "1", "--length", "4", "--seed", "0",
        "--layers", "1", "--hidden-size", "16", "--heads", "2",
        "--intermediate-size", "32", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "Models" in text and "Cost Time" in text
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert [r["model_kind"] for r in payload["reports"]] == ["causal", "bidirectional"]


def test_unreadable_checkpoint_is_reported(workspace, capsys):
    assert main(["generate", "--checkpoint", str(workspace / "missing.ckpt"), "--length", "4"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify-equivalence", "--n", "0"],
        ["verify-equivalence", "--models", "0"],
        ["make-corpus", "--out", "{tmp}/c.txt", "--bytes", "-5"],
        ["verify-equivalence", "--tolerance", "inf"],
        ["verify-equivalence", "--tolerance", "nan"],
        ["verify-equivalence", "--tolerance", "-1"],
        ["bench-latency", "--count", "1", "--length", "4", "--heads", "0"],
        ["bench-latency", "--count", "1", "--length", "4", "--hidden-size", "0"],
        ["bench-latency", "--count", "1", "--length", "4", "--intermediate-size", "0"],
        ["verify-equivalence", "--n", "-3"],
        ["train", "--preset", "upmlm", "--corpus", "{tmp}/c.txt", "--checkpoint", "{tmp}/m.ckpt", "--seed", "-1"],
        ["generate", "--checkpoint", "{tmp}/m.ckpt", "--length", "4", "--seed", "-1"],
        ["eval-ppl", "--checkpoint", "{tmp}/m.ckpt", "--corpus", "{tmp}/c.txt", "--seed", "-1"],
        # sizes past any address space (over 2^47 bytes), so the allocation fails at once;
        # the last fails in a Python list, whose MemoryError carries no text
        ["bench-latency", "--count", "1", "--length", str(10**12), "--out", "{tmp}/bench.json"],
        ["train", "--preset", "upmlm", "--corpus", "{corpus}", "--checkpoint", "{tmp}/m.ckpt",
         "--loss-log", "{tmp}/loss.jsonl", "--steps", "1", "--batch-size", str(10**14), "--max-len", "16"],
        ["train", "--preset", "upmlm", "--corpus", "{corpus}", "--checkpoint", "{tmp}/m.ckpt",
         "--loss-log", "{tmp}/loss.jsonl", "--steps", "1", "--max-len", str(10**14)],
    ],
    ids=[
        "verify_n_0", "verify_models_0", "make_corpus_negative_bytes",
        "verify_tolerance_inf", "verify_tolerance_nan", "verify_tolerance_negative",
        "bench_latency_heads_0", "bench_latency_hidden_size_0", "bench_latency_intermediate_size_0",
        "verify_n_negative", "train_seed_negative", "generate_seed_negative", "eval_ppl_seed_negative",
        "bench_latency_length_unallocatable", "train_batch_size_unallocatable", "train_max_len_unallocatable",
    ],
)
def test_bad_flag_is_a_one_line_error(argv, workspace, tmp_path, capsys):
    code = main([a.replace("{tmp}", str(tmp_path)).replace("{corpus}", str(workspace / "corpus.txt")) for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert captured.err.strip() != "error:"
    assert "PASS" not in captured.out
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("order", ["random", "ltr"])
def test_generate_checks_the_length_before_building_an_order(order, tmp_path, monkeypatch, capsys):
    from pmlm.checkpoint import save_checkpoint
    from pmlm.generation import GenerationOrder

    def unexpected(*args, **kwargs):
        raise AssertionError("an order was built before the length was checked")

    monkeypatch.setattr(GenerationOrder, "random", unexpected)
    monkeypatch.setattr(GenerationOrder, "left_to_right", unexpected)
    ckpt = save_checkpoint(tmp_path / "m.ckpt", tiny_model(max_len=64))
    out = tmp_path / "gen.json"
    assert main(["generate", "--checkpoint", str(ckpt), "--length", "100000", "--order", order, "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: target_length 100000 exceeds model max_len 64\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["verify-equivalence", "--n", "-3"], "--n must be at least 1, got -3"),
        (["generate", "--checkpoint", "m.ckpt", "--length", "4", "--seed", "-1"], "--seed must be non-negative, got -1"),
    ],
    ids=["n", "seed"],
)
def test_bad_n_or_seed_names_its_flag(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "flags",
    [
        ["--learning-rate", "nan"], ["--learning-rate", "inf"], ["--learning-rate", "0"],
        ["--learning-rate", "-0.1"], ["--max-len", "0"],
    ],
    ids=["lr_nan", "lr_inf", "lr_zero", "lr_negative", "max_len_0"],
)
def test_bad_training_flag_is_a_one_line_error_and_writes_no_checkpoint(flags, workspace, tmp_path, capsys):
    ckpt = tmp_path / "bad.ckpt"
    code = main([
        "train", "--preset", "upmlm", "--corpus", str(workspace / "corpus.txt"), "--checkpoint", str(ckpt),
        "--steps", "1", "--batch-size", "2", "--max-len", "16", *flags, "--quiet",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error:") and err.count("\n") == 1
    assert flags[0].lstrip("-").replace("-", "_") in err
    assert not ckpt.exists()


def test_run_config_with_a_nan_learning_rate_is_a_one_line_error(workspace, tmp_path, capsys):
    from pmlm.training import preset

    config = preset(
        "upmlm", str(workspace / "corpus.txt"), str(tmp_path / "o.ckpt"),
        layers=1, heads=2, hidden_size=16, intermediate_size=32, max_len=16, steps=1, batch_size=2,
    ).to_dict()
    config["training"]["learning_rate"] = math.nan
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")  # json writes the bare NaN that it also reads
    code = main(["train", "--config", str(path), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: learning_rate must be finite and positive, got nan\n"
    assert not (tmp_path / "o.ckpt").exists()


def test_run_config_with_snapshot_every_zero_is_a_one_line_error(workspace, tmp_path, capsys):
    from pmlm.training import preset

    config = preset(
        "upmlm", str(workspace / "corpus.txt"), str(tmp_path / "o.ckpt"),
        layers=1, heads=2, hidden_size=16, intermediate_size=32, max_len=16, steps=1, batch_size=2,
    ).to_dict()
    config["training"]["snapshot_every"] = 0
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["train", "--config", str(path), "--quiet"])
    err = capsys.readouterr().err
    assert code == 2
    assert err == "error: snapshot_every must be at least 1, got 0\n"
    assert not (tmp_path / "o.ckpt").exists()


@pytest.mark.parametrize("temperature", ["nan", "inf"])
def test_non_finite_temperature_is_a_one_line_error(temperature, workspace, tmp_path, capsys):
    out = tmp_path / "gen.json"
    code = main([
        "generate", "--checkpoint", str(workspace / "upmlm.ckpt"), "--length", "4", "--seed", "1",
        "--sampler", "temperature", "--temperature", temperature, "--out", str(out),
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert err == f"error: temperature must be finite and positive, got {temperature}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_diverging_training_is_a_one_line_error_and_keeps_a_checkpoint(workspace, capsys):
    import numpy as np

    from pmlm.checkpoint import load_checkpoint

    ckpt = workspace / "diverged.ckpt"
    code = main([
        "train", "--preset", "upmlm", "--corpus", str(workspace / "corpus.txt"),
        "--checkpoint", str(ckpt), "--learning-rate", "1e150",
        "--steps", "20", "--batch-size", "4", "--max-len", "16", "--quiet",
    ])
    err = capsys.readouterr().err
    assert code == 2
    assert [line for line in err.splitlines() if line.startswith("error:")] == [
        "error: non-finite logits at step 1; last good checkpoint (step 0) retained"
    ]
    assert "Traceback" not in err
    model, _ = load_checkpoint(ckpt)
    assert all(np.all(np.isfinite(p.data)) for p in model.params.values())


def test_diverging_training_keeps_the_loss_log_of_the_steps_before(workspace, tmp_path, capsys):
    log = tmp_path / "loss.jsonl"
    code = main([
        "train", "--preset", "upmlm", "--corpus", str(workspace / "corpus.txt"),
        "--checkpoint", str(tmp_path / "d.ckpt"), "--learning-rate", "1e150", "--loss-log", str(log),
        "--steps", "20", "--batch-size", "4", "--max-len", "16", "--quiet",
    ])
    assert code == 2
    assert "non-finite logits at step 1" in capsys.readouterr().err
    records = [json.loads(line) for line in log.read_text(encoding="utf-8").splitlines()]
    assert [r["step"] for r in records] == [0]
    assert math.isfinite(records[0]["loss"])


@pytest.mark.parametrize("flag", ["--out", "--trace"])
def test_failed_write_keeps_the_previous_output(flag, workspace, tmp_path, monkeypatch, capsys):
    path = tmp_path / "output"
    path.write_text("previous\n", encoding="utf-8")
    write_bytes = Path.write_bytes

    def fail_part_way(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("no space left on device")

    monkeypatch.setattr(Path, "write_bytes", fail_part_way)
    code = main([
        "generate", "--checkpoint", str(workspace / "upmlm.ckpt"), "--length", "4", "--seed", "2",
        flag, str(path),
    ])
    monkeypatch.undo()
    assert code == 2
    assert capsys.readouterr().err == "error: no space left on device\n"
    assert path.read_text(encoding="utf-8") == "previous\n"
    assert list(tmp_path.iterdir()) == [path]


_GENERATE = ["generate", "--checkpoint", "{path}", "--length", "4"]
_TRAIN = ["train", "--config", "{path}"]
_RUN = '"corpus_path": "c.txt", "checkpoint_path": "o.ckpt", "prior": {"kind": "uniform"'
_VOCAB = [*SPECIAL_TOKENS, *"abcdefghi"]  # one token per id of the 12-token tiny model


def _checkpoint(**extra) -> bytes:
    return checkpoint_bytes(tiny_model(), extra)


def _checkpoint_claiming(layers: int) -> bytes:
    """The tiny model's checkpoint with a header that claims ``layers`` layers."""
    raw = _checkpoint()
    sep = raw.index(b"\0")
    header = json.loads(raw[:sep])
    header["config"]["model"]["layers"] = layers
    return json.dumps(header).encode() + raw[sep:]


@pytest.mark.parametrize(
    "argv, content",
    [
        (_GENERATE, '{"config":{}}\0'),
        (_GENERATE, "[]\0"),
        (_TRAIN, "{" + _RUN + '}, "training": {"bogus": 1}}'),
        (_TRAIN, "{" + _RUN + ', "x": 1}}'),
        (_TRAIN, '{"corpus_path": "c.txt", "prior": {"kind": "uniform"}}'),
        (_TRAIN, "[1]"),
        (_TRAIN, "{" + _RUN + ', "r0": 0.3}}'),
        (_GENERATE, '{"config":{"model":{"vocab_size":"12"}},"tensors":{}}\0'),
        (_GENERATE, '{"config":{"model":{"vocab_size":12,"heads":0}},"tensors":{}}\0'),
        (_GENERATE, '{"config":{"model":{"vocab_size":12,"intermediate_size":0}},"tensors":{}}\0'),
        (_GENERATE, _checkpoint(vocab=5)),
        (_GENERATE, _checkpoint(vocab=[*SPECIAL_TOKENS, *range(9)])),
        (_GENERATE, _checkpoint(vocab=_VOCAB[:4])),
        (_GENERATE, _checkpoint(vocab=_VOCAB, tokenizer=3)),
        (_GENERATE, _checkpoint_claiming(30)),
        (_GENERATE, _checkpoint_claiming(1000)),
        (_GENERATE, _checkpoint_claiming(10**9)),
    ],
    ids=[
        "checkpoint_header_without_model", "checkpoint_header_list", "run_config_training_bogus",
        "run_config_prior_x", "run_config_without_checkpoint_path", "run_config_list",
        "run_config_uniform_prior_with_r0",
        "checkpoint_vocab_size_string", "checkpoint_heads_0", "checkpoint_intermediate_size_0",
        "checkpoint_vocab_number", "checkpoint_vocab_of_ints",
        "checkpoint_vocab_shorter_than_vocab_size", "checkpoint_tokenizer_number",
        "checkpoint_30_layers", "checkpoint_1000_layers", "checkpoint_1e9_layers",
    ],
)
def test_bad_json_is_a_one_line_error(argv, content, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # a run config's relative checkpoint path would land here
    (tmp_path / "c.txt").write_text("the cat sat\n", encoding="utf-8")  # so only the config's defect can fail
    path = tmp_path / "input"
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content, encoding="utf-8")
    code = main([str(path) if a == "{path}" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "corpus file" not in captured.err
    assert len(captured.err) < 1000
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "input"]


@pytest.mark.parametrize(
    "section, key, value",
    [
        ("training", "steps", "5"),
        ("training", "learning_rate", True),
        ("model", "layers", "2"),
        ("prior", "r0", "0.15"),
        (None, "loss_log_path", 5),
    ],
    ids=["training_steps_string", "learning_rate_bool", "model_layers_string", "prior_r0_string", "log_path_number"],
)
def test_run_config_value_of_a_wrong_type_is_a_one_line_error(section, key, value, workspace, tmp_path, capsys):
    from pmlm.training import preset

    config = preset(
        "upmlm", str(workspace / "corpus.txt"), str(tmp_path / "o.ckpt"),
        layers=1, heads=2, hidden_size=16, intermediate_size=32, max_len=16, steps=2, batch_size=2,
    ).to_dict()
    if section == "prior":
        config["prior"] = {"kind": "point_mass", key: value}
    elif section is None:
        config[key] = value
    else:
        config[section][key] = value
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["train", "--config", str(path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert f"'{key}' must be" in captured.err
    assert not (tmp_path / "o.ckpt").exists()


@pytest.mark.parametrize(
    "prior",
    [
        {"kind": "uniform", "r0": 0.3},
        {"kind": "point_mass", "r0": 0.15, "a": 0.2, "b": 0.9},
        {"kind": "truncated_uniform", "a": 0.1, "b": 0.5, "r0": 0.9},
    ],
    ids=["uniform_with_r0", "point_mass_with_bounds", "truncated_with_r0"],
)
def test_prior_with_a_parameter_its_kind_ignores_is_a_one_line_error(prior, workspace, tmp_path, capsys):
    from pmlm.training import preset

    config = preset(
        "upmlm", str(workspace / "corpus.txt"), str(tmp_path / "o.ckpt"),
        layers=1, heads=2, hidden_size=16, intermediate_size=32, max_len=16, steps=2, batch_size=2,
    ).to_dict()
    config["prior"] = prior
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["train", "--config", str(path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert "prior takes no" in captured.err
    assert list(tmp_path.iterdir()) == [path]


def test_corpus_word_equal_to_a_special_token_is_a_one_line_error(tmp_path, capsys):
    from pmlm.training import preset

    corpus = tmp_path / "c.txt"
    corpus.write_text("the [PAD] cat [MASK] sat\n", encoding="utf-8")
    config = preset(
        "upmlm", str(corpus), str(tmp_path / "o.ckpt"), tokenizer_kind="whitespace",
        layers=1, heads=2, hidden_size=16, intermediate_size=32, max_len=16, steps=2, batch_size=2,
    ).to_dict()
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    code = main(["train", "--config", str(path), "--quiet"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"error: corpus file {corpus}:1: ") and captured.err.count("\n") == 1
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.txt", "run.json"]


_TAMPERS = {
    "trailing_bytes": "trailing bytes",
    "overlapping_offset": "back to back",
    "gap_before_last_tensor": "back to back",
    "malformed_header_json": "malformed header",
    "wrong_dtype": "has dtype f32, expected f64",
    "wrong_shape": "has shape [1, 1], expected",
    "payload_ends_inside_a_tensor": "payload ends inside tensor 'tok_emb'",
    "non_finite_value": "tensor 'tok_emb' contains non-finite values",
}


@pytest.mark.parametrize("tamper", list(_TAMPERS))
def test_checkpoint_payload_out_of_place_is_a_one_line_error(tamper, workspace, tmp_path, capsys):
    raw = (workspace / "upmlm.ckpt").read_bytes()
    sep = raw.find(b"\0")
    header, payload = json.loads(raw[:sep]), raw[sep + 1 :]
    last = header["tensors"][max(header["tensors"])]  # tok_emb, the last in name order
    if tamper == "trailing_bytes":
        payload += bytes(8)
    elif tamper == "overlapping_offset":
        last["byte_offset"] -= 8
        payload = payload[:-8]
    elif tamper == "gap_before_last_tensor":
        last["byte_offset"] += 8
        payload += bytes(8)
    elif tamper == "wrong_dtype":
        last["dtype"] = "f32"
    elif tamper == "wrong_shape":
        last["shape"] = [1, 1]
    elif tamper == "payload_ends_inside_a_tensor":
        payload = payload[:-8]
    elif tamper == "non_finite_value":
        payload = payload[:-8] + np.array([np.nan], dtype="<f8").tobytes()
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    if tamper == "malformed_header_json":
        head = head[:-1]
    path = tmp_path / "tampered.ckpt"
    path.write_bytes(head + b"\0" + payload)
    code = main(["generate", "--checkpoint", str(path), "--length", "4"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("error:") and captured.err.count("\n") == 1
    assert _TAMPERS[tamper] in captured.err
