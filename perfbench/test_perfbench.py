"""The benchmark's own tests: tiny smoke runs, failure counting, BENCHMARK.json."""

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from perfbench import metrics, run

ROOT = Path(__file__).resolve().parents[1]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run_tiny(tmp_path, capsys, workload, trace=0, seconds=0.3, worker=False):
    code = run.main(
        [
            "--workload", workload, "--seed", "3", "--seconds", str(seconds),
            "--trace", str(trace), "--size", "tiny", "--out-dir", str(tmp_path),
        ]
        + (["--worker"] if worker else [])
    )
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(metrics.WORKLOADS))
def test_smoke_run_prints_every_metric_with_its_unit(tmp_path, capsys, workload, trace):
    detail, result = run_tiny(tmp_path, capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1, detail["failures"]
    catalogue = metrics.PER_LAYER if trace else metrics.END_TO_END
    assert set(result["metrics"]) == set(catalogue)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == catalogue[name][0]
        assert isinstance(entry["value"], float) and np.isfinite(entry["value"]), name
    if trace == 0:
        assert all(entry["value"] != 0 for entry in result["metrics"].values())
        expected = {n for n, (w, _, _) in metrics.PER_WORKLOAD_NAMES.items() if w == workload}
        assert expected | {"setup_s", "peak_rss_mb", "failed_ratio"} <= set(detail["named_metrics"])
    env = detail["env"]
    for key in ("git_rev", "src_sha256", "seed", "config", "python", "numpy", "scipy", "blas", "blas_threads", "nproc"):
        assert key in env
    assert "loadavg_start" in env


def test_traced_training_spans_cover_each_step(tmp_path, capsys):
    _, result = run_tiny(tmp_path, capsys, "train.upmlm", trace=1, seconds=1.0)
    m = result["metrics"]
    assert m["trace.step_coverage"]["value"] >= 0.9
    assert m["optim.adam.calls"]["value"] == 1.0
    assert m["tensor.leaf_grad_ratio"]["value"] > 0
    sublayers = sum(m[f"model.sublayer.{s}.ms"]["value"] for s in metrics.SUBLAYERS)
    assert sublayers > 0


def _corrupt_generate(monkeypatch):
    import pmlm.generation

    original = pmlm.generation.generate

    def generate(model, constraints, order, *args, **kwargs):
        seq, trace = original(model, constraints, order, *args, **kwargs)
        seq = seq.copy()
        pos = order.sigma[0]
        seq[pos] = 3 if seq[pos] != 3 else 4
        return seq, trace

    monkeypatch.setattr(pmlm.generation, "generate", generate)


def _corrupt_decode(monkeypatch):
    import pmlm.data
    import pmlm.evaluation

    original = pmlm.evaluation._generate_causal_cached

    def decode(*args, **kwargs):
        tokens = original(*args, **kwargs).copy()
        tokens[-1] = pmlm.data.MASK_ID
        return tokens

    monkeypatch.setattr(pmlm.evaluation, "_generate_causal_cached", decode)


def _corrupt_exact(monkeypatch):
    import pmlm.objectives

    original = pmlm.objectives.pmlm_exact_loss

    def exact(*args, **kwargs):
        value = original(*args, **kwargs)
        value.value += 1e-6
        return value

    monkeypatch.setattr(pmlm.objectives, "pmlm_exact_loss", exact)


@pytest.mark.parametrize(
    "workload, corrupt",
    [("infer.generate", _corrupt_generate), ("infer.decode_cached", _corrupt_decode), ("verify.exact", _corrupt_exact)],
)
def test_corrupted_output_is_a_failed_operation(tmp_path, capsys, monkeypatch, workload, corrupt):
    run.import_pmlm()
    corrupt(monkeypatch)
    detail, result = run_tiny(tmp_path, capsys, workload, worker=True)
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert detail["named_metrics"]["failed_ratio"] > 0
    assert detail["failures"]


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify.check", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_matches_the_catalogue():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec == metrics.benchmark_json(spec["run_seconds"])
    assert 2 <= len(spec["workloads"]) <= 8 and 1 <= spec["run_seconds"] <= 60
    assert len(spec["per_layer"]) <= 128 and len(spec["end_to_end"]) <= 16
    names = [w["name"] for w in spec["workloads"]] + [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert all(NAME.match(n) for n in names)
    assert len(set(names)) == len(names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in spec["workloads"])
    assert all(UNIT.match(m["unit"]) for m in spec["end_to_end"] + spec["per_layer"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert set(metrics.PER_LAYER) == {m["name"] for m in spec["per_layer"]}
    assert json.loads((ROOT / "perfbench" / "metric_map.json").read_text()) == metrics.metric_map()


def test_tail_is_the_eleventh_largest_sample():
    values = list(range(1, 101))
    value, percentile, n = metrics.tail(values)
    assert (value, n) == (90, 100)
    assert percentile == 90.0
    assert metrics.tail([3.0, 1.0, 2.0]) == (3.0, 100.0, 3)


def test_tracer_restores_every_patched_attribute():
    pmlm = run.import_pmlm()
    from perfbench import tracer

    before = (pmlm.tensor.matmul, pmlm.model.Transformer.forward, pmlm.optim.Adam.step, pmlm.training.backward)
    with tracer.Tracer(pmlm):
        assert pmlm.tensor.matmul is not before[0]
    after = (pmlm.tensor.matmul, pmlm.model.Transformer.forward, pmlm.optim.Adam.step, pmlm.training.backward)
    assert after == before
    cfg = pmlm.model.TransformerConfig(vocab_size=8, positional_kind="relative")
    for name in pmlm.model.parameter_shapes(cfg):
        assert tracer.sublayer_of(name) in metrics.SUBLAYERS
