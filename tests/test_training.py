"""Run-config validation, the shipped presets, and short training smoke runs."""

import json

import numpy as np
import pytest

from pmlm.checkpoint import load_checkpoint
from pmlm.masking import MaskingPrior
from pmlm.training import RunConfig, TrainingSettings, preset, train


def small_overrides(steps=40):
    return dict(
        layers=1,
        heads=2,
        hidden_size=16,
        intermediate_size=32,
        max_len=16,
        steps=steps,
        batch_size=4,
        seed=7,
    )


@pytest.fixture()
def corpus_file(tmp_path):
    from pmlm.data import write_synthetic_corpus

    return write_synthetic_corpus(tmp_path / "corpus.txt", n_bytes=4_000, seed=1)


def test_causal_config_rejects_prior():
    with pytest.raises(ValueError, match="prior"):
        RunConfig(
            corpus_path="c.txt",
            checkpoint_path="m.ckpt",
            model={"attention_mode": "causal"},
            prior=MaskingPrior.uniform(),
        )


def test_bidirectional_config_requires_prior():
    with pytest.raises(ValueError, match="prior"):
        RunConfig(corpus_path="c.txt", checkpoint_path="m.ckpt", model={}, prior=None)


def test_seed_is_mandatory():
    with pytest.raises(ValueError, match="seed"):
        TrainingSettings(seed=None)


def test_unknown_model_field_rejected():
    with pytest.raises(ValueError, match="vocab_size"):
        RunConfig(
            corpus_path="c", checkpoint_path="m",
            model={"vocab_size": 10}, prior=MaskingPrior.uniform(),
        )


def test_presets_have_expected_shapes():
    up = preset("upmlm", "c.txt", "m.ckpt")
    assert up.prior.kind == "uniform"
    assert up.model["attention_mode"] == "bidirectional"
    bert = preset("bert-like", "c.txt", "m.ckpt")
    assert bert.prior.kind == "point_mass" and bert.prior.r0 == 0.15
    gpt = preset("gpt-like", "c.txt", "m.ckpt")
    assert gpt.prior is None and gpt.model["attention_mode"] == "causal"
    with pytest.raises(ValueError, match="preset"):
        preset("xlnet", "c.txt", "m.ckpt")


def test_config_json_round_trip(tmp_path):
    config = preset("upmlm", "c.txt", "m.ckpt", steps=10, layers=1)
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config.to_dict()), encoding="utf-8")
    loaded = RunConfig.from_json_file(path)
    assert loaded.to_dict() == config.to_dict()


@pytest.mark.parametrize("name", ["upmlm", "gpt-like"])
def test_short_training_reduces_loss(name, corpus_file, tmp_path):
    config = preset(name, str(corpus_file), str(tmp_path / f"{name}.ckpt"), **small_overrides(120))
    result = train(config, quiet=True)
    first = np.mean(result.losses[:10])
    last = np.mean(result.losses[-10:])
    assert last < first, (first, last)
    assert result.checkpoint_path.exists()


def test_training_is_deterministic(corpus_file, tmp_path):
    runs = []
    for tag in ("a", "b"):
        config = preset(
            "upmlm",
            str(corpus_file),
            str(tmp_path / f"{tag}.ckpt"),
            loss_log_path=str(tmp_path / f"{tag}.jsonl"),
            **small_overrides(30),
        )
        runs.append(train(config, quiet=True))
    assert runs[0].losses == runs[1].losses
    assert (tmp_path / "a.ckpt").read_bytes() == (tmp_path / "b.ckpt").read_bytes()
    assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()


@pytest.mark.parametrize("name", ["upmlm", "gpt-like"])
def test_training_writes_the_same_bytes_on_one_and_two_workers(name, corpus_file, tmp_path, monkeypatch):
    """At preset size a batch of 16 is two shards of 8: one worker runs them in
    turn, two run them at once. The loss logs and checkpoints are byte-identical."""
    import threading
    import time

    import pmlm.model as model_mod

    threads, forward = set(), model_mod.Transformer.forward

    def spy(model, tokens, **kwargs):
        threads.add(threading.get_ident())
        time.sleep(0.01)  # so that a second thread takes the other shard
        return forward(model, tokens, **kwargs)

    monkeypatch.setattr(model_mod.Transformer, "forward", spy)
    outputs = []
    for workers in (1, 2):
        monkeypatch.setattr(model_mod, "_workers", lambda parts: min(workers, parts))
        threads.clear()
        ckpt, log = tmp_path / f"{workers}.ckpt", tmp_path / f"{workers}.jsonl"
        train(preset(name, str(corpus_file), str(ckpt), loss_log_path=str(log), steps=3, batch_size=16, seed=7),
              quiet=True)
        assert len(threads) == workers
        outputs.append((ckpt.read_bytes(), log.read_bytes()))
    assert outputs[0] == outputs[1]


def test_checkpoint_carries_vocab_and_prior(corpus_file, tmp_path):
    config = preset("bert-like", str(corpus_file), str(tmp_path / "m.ckpt"), **small_overrides(5))
    result = train(config, quiet=True)
    _, header = load_checkpoint(result.checkpoint_path)
    assert header["vocab"] == result.corpus.vocab.to_list()
    assert header["prior"] == {"kind": "point_mass", "r0": 0.15}
    assert header["tokenizer"] == "char"


def test_divergence_aborts_and_retains_checkpoint(corpus_file, tmp_path, monkeypatch):
    import pmlm.training as training_mod
    from pmlm.tensor import Tensor
    from pmlm.training import TrainingDiverged

    real = training_mod.masked_batch_loss
    calls = {"n": 0}

    def poisoned(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] == 4:
            return Tensor(float("nan"))
        return real(*args, **kwargs)

    monkeypatch.setattr(training_mod, "masked_batch_loss", poisoned)
    ckpt = tmp_path / "diverged.ckpt"
    config = preset("upmlm", str(corpus_file), str(ckpt), **small_overrides(10))
    with pytest.raises(TrainingDiverged, match="non-finite loss at step 3"):
        train(config, quiet=True)
    model, _ = load_checkpoint(ckpt)
    assert all(np.all(np.isfinite(p.data)) for p in model.params.values())


def test_non_finite_gradient_aborts_and_retains_checkpoint(corpus_file, tmp_path, monkeypatch):
    import pmlm.training as training_mod
    from pmlm.training import TrainingDiverged

    params, initial = {}, {}
    real_init = training_mod.init_parameters
    real_backward = training_mod.backward
    calls = {"n": 0}

    def capture_init(*args, **kwargs):
        params.update(real_init(*args, **kwargs))
        initial.update({name: p.data.copy() for name, p in params.items()})
        return params

    def poisoned(loss):
        real_backward(loss)
        calls["n"] += 1
        if calls["n"] == 4:
            params["out.b"].grad[0] = float("nan")

    monkeypatch.setattr(training_mod, "init_parameters", capture_init)
    monkeypatch.setattr(training_mod, "backward", poisoned)
    ckpt = tmp_path / "diverged.ckpt"
    config = preset("upmlm", str(corpus_file), str(ckpt), **small_overrides(10))
    with pytest.raises(TrainingDiverged, match="non-finite gradient for parameter 'out.b' at step 3"):
        train(config, quiet=True)
    # the snapshot taken before step 0 is restored and written
    model, _ = load_checkpoint(ckpt)
    for name, p in model.params.items():
        np.testing.assert_array_equal(p.data, initial[name], err_msg=name)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # the loop's errstate holds on every worker
def test_non_finite_logits_in_a_later_shard_abort_and_retain_checkpoint(corpus_file, tmp_path, monkeypatch):
    """Batches of 4 in shards of 2 on two workers; at step 3 only the second
    shard meets a non-finite embedding, and training takes its divergence path."""
    import pmlm.model as model_mod
    import pmlm.training as training_mod
    from pmlm.data import UNK_ID
    from pmlm.training import TrainingDiverged

    monkeypatch.setattr(model_mod, "_slice_size", lambda cfg, width, workers: 2)
    monkeypatch.setattr(model_mod, "_workers", lambda parts: min(2, parts))
    real, calls = training_mod.causal_batch_loss, []

    def poisoned(model, batch, **kwargs):
        calls.append(len(batch))
        if len(calls) == 4:  # an all-[UNK] last row, whose embedding is made infinite
            model.params["tok_emb"].data[UNK_ID] = np.inf
            batch = batch.copy()
            batch[3] = UNK_ID
        return real(model, batch, **kwargs)

    monkeypatch.setattr(training_mod, "causal_batch_loss", poisoned)
    ckpt = tmp_path / "diverged.ckpt"
    log = tmp_path / "loss.jsonl"
    config = preset("gpt-like", str(corpus_file), str(ckpt), loss_log_path=str(log), **small_overrides(10))
    with pytest.raises(TrainingDiverged, match="non-finite logits at step 3"):
        train(config, quiet=True)
    assert [json.loads(line)["step"] for line in log.read_text(encoding="utf-8").splitlines()] == [0, 1, 2]
    model, _ = load_checkpoint(ckpt)
    assert all(np.all(np.isfinite(p.data)) for p in model.params.values())


def test_all_unmasked_prior_trains_at_zero_loss(corpus_file, tmp_path):
    # point mass at r=0 never masks anything; every step contributes zero
    config = preset(
        "upmlm", str(corpus_file), str(tmp_path / "m.ckpt"),
        prior=MaskingPrior.point_mass(0.0), **small_overrides(3),
    )
    result = train(config, quiet=True)
    assert result.losses == [0.0, 0.0, 0.0]
