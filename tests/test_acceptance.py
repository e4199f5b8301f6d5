"""Acceptance suite. Each test prints one PASS/FAIL line; run with -s (or
read the captured output) for the ledger view. The training criterion is the
long one; everything else finishes in seconds."""

import math
import time

import numpy as np
import pytest
from scipy import stats

from pmlm.checkpoint import load_checkpoint, save_checkpoint
from pmlm.cli import main
from pmlm.data import MASK_ID, ingest, write_synthetic_corpus
from pmlm.evaluation import bench_latency, ppl_bidirectional, ppl_causal, render_latency_table
from pmlm.generation import (
    GenerationConstraints,
    GenerationOrder,
    SamplerSpec,
    generate,
    generate_left_to_right,
    replay_trace,
)
from pmlm.masking import (
    MaskPattern,
    MaskingPrior,
    beta_factorial_identity_holds,
    enumerate_masks,
    mask_probability,
    sample_mask,
    sample_ratio,
)
from pmlm.model import Transformer, TransformerConfig, init_parameters
from pmlm.objectives import (
    ar_loss,
    audit_duplication_factors,
    mlm_loss,
    pmlm_exact_loss,
    pmlm_training_step,
    verify_equivalence,
)
from pmlm.tensor import backward
from pmlm.training import preset, train

from helpers import relative_error, sampled_coords, tiny_config


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion:02d} {'PASS' if ok else 'FAIL'}  {detail}", flush=True)
    assert ok, detail


def test_criterion_01_equivalence_theorem():
    cfg = tiny_config()  # 2 layers, hidden 16, vocab 12
    start = time.monotonic()
    worst = 0.0
    rng = np.random.default_rng(0)
    for seed in range(20):
        model = Transformer.init(cfg, seed=seed)
        for n in (1, 2, 3, 4, 5):
            x = rng.integers(3, cfg.vocab_size, size=n)
            rep = verify_equivalence(model, x, tolerance=1e-9)
            worst = max(worst, rep.max_abs_gap)
            assert rep.passed, (seed, n, rep.max_abs_gap)
    elapsed = time.monotonic() - start
    report(
        1,
        worst < 1e-9 and elapsed < 120.0,
        f"20 models x N in 1..5: max_abs_gap={worst:.3e} (<1e-9), {elapsed:.1f}s (<120s)",
    )


def test_criterion_02_duplication_and_beta_identities():
    dup_ok = True
    for n in range(1, 8):
        audit, ok = audit_duplication_factors(n)
        dup_ok = dup_ok and ok
        for k in range(1, n + 1):
            dup_ok = dup_ok and audit[k] == math.factorial(n - k) * math.factorial(k - 1)
    beta_ok = all(
        beta_factorial_identity_holds(n, k) for n in range(21) for k in range(n + 1)
    )
    report(2, dup_ok and beta_ok, "duplication factors exact for N<=7; Beta identity exact for N<=20")


def test_criterion_03_prior_normalization_and_k_marginal():
    priors = {
        "uniform": MaskingPrior.uniform(),
        "point_mass(0.15)": MaskingPrior.point_mass(0.15),
        "truncated(0.2,0.8)": MaskingPrior.truncated(0.2, 0.8),
    }
    worst = 0.0
    for n in range(1, 13):
        patterns = enumerate_masks(n)
        for prior in priors.values():
            total = math.fsum(mask_probability(p, prior).alpha for p in patterns)
            worst = max(worst, abs(total - 1.0))
    assert worst < 1e-12, worst

    n, samples = 10, 100_000
    rng = np.random.default_rng(3)
    counts = np.zeros(n + 1, dtype=np.int64)
    for _ in range(samples):
        counts[sample_mask(n, sample_ratio(priors["uniform"], rng), rng).k] += 1
    chi = stats.chisquare(counts, np.full(n + 1, samples / (n + 1)))
    report(
        3,
        worst < 1e-12 and chi.pvalue > 0.001,
        f"sum alpha deviates {worst:.2e} (<1e-12); K-marginal chi-square p={chi.pvalue:.4f} (>0.001)",
    )


@pytest.mark.parametrize("positional", ["absolute", "relative"])
@pytest.mark.parametrize("mode", ["bidirectional", "causal"])
def test_criterion_04_full_model_gradients(mode, positional):
    cfg = tiny_config(attention_mode=mode, positional_kind=positional)
    model = Transformer.init(cfg, seed=11)
    rng = np.random.default_rng(4)
    x = rng.integers(3, cfg.vocab_size, size=8)
    pattern = MaskPattern.from_indices(8, [1, 4, 6])

    def loss_fn():
        if mode == "causal":
            return ar_loss(model, x, with_grad=True)
        return mlm_loss(model, x, pattern, with_grad=True)

    model.zero_grad()
    backward(loss_fn().tensor)
    worst = 0.0
    coord_rng = np.random.default_rng(5)
    # central differences resolve gradients down to ~|loss|*eps/h ~ 1e-10;
    # the 1e-6 floor keeps the relative error meaningful above that noise
    for name, p in model.params.items():
        for idx in sampled_coords(p.shape, coord_rng, per_tensor=6):
            fd = finite_difference_grad_at(loss_fn, p.data, idx)
            got = p.grad[idx] if p.grad is not None else 0.0
            worst = max(
                worst, float(relative_error(np.asarray(got), np.asarray(fd), floor=1e-6))
            )
    report(4, worst < 1e-4, f"{mode}/{positional}: max rel err {worst:.3e} (<1e-4)")


def finite_difference_grad_at(loss_fn, data, idx, h=1e-5):
    orig = data[idx]
    data[idx] = orig + h
    fp = loss_fn().value
    data[idx] = orig - h
    fm = loss_fn().value
    data[idx] = orig
    return (fp - fm) / (2 * h)


def test_criterion_05_monte_carlo_estimator():
    cfg = tiny_config()
    model = Transformer.init(cfg, seed=21)
    x = np.array([3, 8, 5, 10])
    prior = MaskingPrior.uniform()
    exact = pmlm_exact_loss(model, x, prior).value
    rng = np.random.default_rng(6)
    values = np.array([pmlm_training_step(model, x, prior, rng).value for _ in range(10_000)])
    se = values.std(ddof=1) / math.sqrt(len(values))
    gap = abs(values.mean() - exact)
    report(5, gap < 3 * se, f"|mean-exact|={gap:.5f} < 3*SE={3 * se:.5f} over 10^4 samples")


@pytest.mark.slow
def test_criterion_06_desk_scale_training(tmp_path):
    start = time.monotonic()
    train_path = write_synthetic_corpus(tmp_path / "train.txt", n_bytes=100_000, seed=0)
    test_path = write_synthetic_corpus(tmp_path / "test.txt", n_bytes=6_000, seed=1)

    results = {}
    for name in ("upmlm", "bert-like", "gpt-like"):
        config = preset(name, str(train_path), str(tmp_path / f"{name}.ckpt"), steps=2000, seed=0)
        outcome = train(config, quiet=True)
        test_corpus = ingest(
            test_path, "char", max_len=64, vocab=outcome.corpus.vocab, split="test"
        )
        model_cfg = config.model_config(len(outcome.corpus.vocab))
        init_rng = np.random.default_rng(np.random.SeedSequence(0).spawn(4)[0])
        untrained = Transformer(model_cfg, init_parameters(model_cfg, init_rng))
        if name == "gpt-like":
            untrained_ppl = ppl_causal(untrained, test_corpus).ppl
            seq_ppl = ppl_causal(outcome.model, test_corpus).ppl
            rnd_ppl = None
        else:
            untrained_ppl = ppl_bidirectional(untrained, test_corpus, "sequential", seed=0).ppl
            seq_ppl = ppl_bidirectional(outcome.model, test_corpus, "sequential", seed=0).ppl
            rnd_ppl = ppl_bidirectional(outcome.model, test_corpus, "random", seed=0).ppl
        results[name] = (untrained_ppl, seq_ppl, rnd_ppl)
        assert seq_ppl < 0.6 * untrained_ppl, (name, untrained_ppl, seq_ppl)

    ratio = results["upmlm"][2] / results["upmlm"][1]
    elapsed = time.monotonic() - start
    lines = "; ".join(
        f"{name}: seq {seq:.2f} vs untrained {unt:.2f}" for name, (unt, seq, _) in results.items()
    )
    report(
        6,
        ratio <= 1.35 and elapsed < 1800.0,
        f"{lines}; upmlm random/sequential={ratio:.3f} (<=1.35); {elapsed/60:.1f} min (<30)",
    )


def test_criterion_07_generation_invariants():
    cfg = tiny_config(layers=1, max_len=32)
    model = Transformer.init(cfg, seed=31)
    rng = np.random.default_rng(7)
    greedy = SamplerSpec()
    for run in range(1000):
        n = int(rng.integers(1, 33))
        n_anchor = int(rng.integers(0, n + 1))
        anchor_pos = rng.choice(n, size=n_anchor, replace=False)
        anchors = {int(p): int(rng.integers(3, cfg.vocab_size)) for p in anchor_pos}
        constraints = GenerationConstraints(target_length=n, anchors=anchors)
        order = GenerationOrder.random(constraints.free_positions, rng)
        seq, trace = generate(model, constraints, order, greedy, rng)
        assert not np.any(seq == MASK_ID), run
        assert all(seq[p] == t for p, t in anchors.items()), run
        np.testing.assert_array_equal(replay_trace(model, trace, greedy), seq)

    for prompt_len in (0, 1, 5):
        prompt = list(rng.integers(3, cfg.vocab_size, size=prompt_len))
        via_wrapper = generate_left_to_right(model, prompt, 12, greedy)
        constraints = GenerationConstraints(
            target_length=12, anchors={i: t for i, t in enumerate(prompt)}
        )
        via_identity, _ = generate(
            model, constraints, GenerationOrder.explicit(constraints.free_positions), greedy
        )
        np.testing.assert_array_equal(via_wrapper, via_identity)
    report(7, True, "1000 runs: no [MASK] residue, anchors kept, replay exact; ltr == identity order")


def test_criterion_08_random_mode_refusal(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    write_synthetic_corpus(corpus, n_bytes=3_000, seed=2)
    ckpt = tmp_path / "gpt.ckpt"
    assert main([
        "train", "--preset", "gpt-like", "--corpus", str(corpus), "--checkpoint", str(ckpt),
        "--steps", "10", "--batch-size", "4", "--seed", "1", "--max-len", "16", "--quiet",
    ]) == 0
    code = main([
        "eval-ppl", "--checkpoint", str(ckpt), "--corpus", str(corpus), "--mode", "random",
    ])
    err = capsys.readouterr().err
    report(8, code != 0 and "unsupported" in err, f"exit={code}, message cites unsupported mode")


def test_criterion_09_latency_benchmark():
    base = dict(vocab_size=30, max_len=64, layers=2, heads=4, hidden_size=64,
                intermediate_size=256, dropout_rate=0.0)
    causal = Transformer.init(TransformerConfig(attention_mode="causal", **base), seed=41)
    bidir = Transformer.init(TransformerConfig(attention_mode="bidirectional", **base), seed=41)
    result = bench_latency(causal, bidir, count=3, length=32, seed=0)
    causal_s = result["reports"][0]["seconds"]
    bidir_s = result["reports"][1]["seconds"]
    table = render_latency_table(result)
    shape_ok = "Models" in table and "Cost Time" in table and "1.20" in table
    report(
        9,
        bidir_s > causal_s and shape_ok,
        f"length 32: bidirectional {bidir_s:.3f}s > causal {causal_s:.3f}s; table in two-column shape",
    )


def test_criterion_10_checkpoint_and_determinism(tmp_path, capsys):
    corpus = tmp_path / "c.txt"
    write_synthetic_corpus(corpus, n_bytes=3_000, seed=3)

    # byte-exact checkpoint round trip
    ckpts = []
    for tag in ("a", "b"):
        assert main([
            "train", "--preset", "upmlm", "--corpus", str(corpus),
            "--checkpoint", str(tmp_path / f"{tag}.ckpt"),
            "--steps", "25", "--batch-size", "4", "--seed", "9", "--max-len", "16", "--quiet",
        ]) == 0
        ckpts.append((tmp_path / f"{tag}.ckpt").read_bytes())
    train_deterministic = ckpts[0] == ckpts[1]

    model, header = load_checkpoint(tmp_path / "a.ckpt")
    save_checkpoint(tmp_path / "resaved.ckpt", model, {k: v for k, v in header.items() if k != "model"})
    round_trip = (tmp_path / "resaved.ckpt").read_bytes() == ckpts[0]

    gen_payloads, eq_payloads = [], []
    for tag in ("x", "y"):
        out = tmp_path / f"gen_{tag}.json"
        trace = tmp_path / f"trace_{tag}.jsonl"
        assert main([
            "generate", "--checkpoint", str(tmp_path / "a.ckpt"), "--length", "12",
            "--order", "random", "--seed", "4", "--sampler", "temperature",
            "--temperature", "0.9", "--trace", str(trace), "--out", str(out),
        ]) == 0
        gen_payloads.append(out.read_bytes() + trace.read_bytes())
        eq_out = tmp_path / f"eq_{tag}.json"
        assert main(["verify-equivalence", "--n", "3", "--seed", "2", "--out", str(eq_out)]) == 0
        eq_payloads.append(eq_out.read_bytes())
    capsys.readouterr()
    ok = train_deterministic and round_trip and gen_payloads[0] == gen_payloads[1] and eq_payloads[0] == eq_payloads[1]
    report(
        10,
        ok,
        f"round_trip={round_trip}, train x2 identical={train_deterministic}, "
        "seeded generate/verify outputs identical",
    )
