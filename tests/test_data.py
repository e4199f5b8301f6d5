"""Corpus ingestion: tokenizer round trips, chunking, vocabulary order."""

import numpy as np
import pytest

from pmlm.data import (
    MASK_ID,
    PAD_ID,
    SPECIAL_TOKENS,
    UNK_ID,
    Vocabulary,
    causal_inputs,
    detokenize,
    ingest,
    synthetic_lines,
    tokenize,
    used_width,
    write_synthetic_corpus,
)


def test_short_line_is_padded(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("ab\n", encoding="utf-8")
    corpus = ingest(path, "char", max_len=4)
    assert len(corpus) == 1
    a, b = corpus.vocab.encode("a"), corpus.vocab.encode("b")
    np.testing.assert_array_equal(corpus.sequences[0], [a, b, PAD_ID, PAD_ID])


def test_long_document_chunks(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("abcabcabcx\n", encoding="utf-8")  # 10 chars, max_len 4 -> 3 chunks
    corpus = ingest(path, "char", max_len=4)
    assert len(corpus) == 3
    assert all(len(s) == 4 for s in corpus.sequences)
    assert sum(np.count_nonzero(s != PAD_ID) for s in corpus.sequences) == 10


def test_char_round_trip_property():
    rng = np.random.default_rng(0)
    alphabet = [chr(c) for c in range(32, 127)]
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        line = "".join(rng.choice(alphabet, size=n))
        assert detokenize(tokenize(line, "char"), "char") == line


def test_vocab_round_trip_through_ids(tmp_path):
    rng = np.random.default_rng(1)
    alphabet = [chr(c) for c in range(33, 127)]  # no space/newline so lines survive splitting
    lines = ["".join(rng.choice(alphabet, size=int(rng.integers(1, 30)))) for _ in range(200)]
    path = tmp_path / "c.txt"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    corpus = ingest(path, "char", max_len=64)
    chunks_per_line = [max(1, -(-len(l) // 64)) for l in lines]
    assert len(corpus) == sum(chunks_per_line)
    seq = corpus.sequences[0]
    text = detokenize([corpus.vocab.decode(int(t)) for t in seq if t != PAD_ID], "char")
    assert text == lines[0]
    assert UNK_ID not in seq


def test_specials_occupy_fixed_ids(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("hello\n", encoding="utf-8")
    corpus = ingest(path, "char")
    assert corpus.vocab.tokens[:3] == ["[PAD]", "[MASK]", "[UNK]"]
    assert corpus.vocab.encode("[PAD]") == PAD_ID
    assert corpus.vocab.encode("[MASK]") == MASK_ID
    assert corpus.vocab.encode("zzz") == UNK_ID


def test_vocabulary_sorted_by_frequency_then_codepoint():
    docs = [list("bbbaac"), list("ca")]
    vocab = Vocabulary.build(docs)
    # counts: a=3, b=3, c=2 -> ties a/b broken by codepoint
    assert vocab.tokens[3:] == ["a", "b", "c"]


def test_whitespace_tokenizer(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("the cat sees the dog\n", encoding="utf-8")
    corpus = ingest(path, "whitespace", max_len=8)
    assert corpus.vocab.encode("the") == 3  # most frequent content token
    decoded = detokenize(
        [corpus.vocab.decode(int(t)) for t in corpus.sequences[0] if t != PAD_ID], "whitespace"
    )
    assert decoded == "the cat sees the dog"


def test_ingest_rejects_missing_and_empty(tmp_path):
    with pytest.raises(ValueError, match="cannot read"):
        ingest(tmp_path / "absent.txt", "char")
    empty = tmp_path / "empty.txt"
    empty.write_text("\n\n", encoding="utf-8")
    with pytest.raises(ValueError, match="no documents"):
        ingest(empty, "char")


@pytest.mark.parametrize("max_len", [0, -1])
def test_ingest_rejects_a_max_len_below_one(max_len, tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("abc\n", encoding="utf-8")
    with pytest.raises(ValueError, match="max_len"):
        ingest(path, "char", max_len=max_len)


def test_ingest_rejects_a_word_equal_to_pad_or_mask(tmp_path):
    path = tmp_path / "c.txt"
    path.write_text("the cat\n\nthe [PAD] cat [MASK] sat\n", encoding="utf-8")
    message = r"c\.txt:3: token\(s\) \['\[MASK\]', '\[PAD\]'\] are reserved"
    with pytest.raises(ValueError, match=message):
        ingest(path, "whitespace")
    with pytest.raises(ValueError, match=message):
        ingest(path, "whitespace", vocab=Vocabulary([*SPECIAL_TOKENS, "the", "cat", "sat"]))
    # read as characters the line holds no reserved token
    assert MASK_ID not in ingest(path, "char").sequences[1]


def test_unknown_tokens_map_to_unk(tmp_path):
    train = tmp_path / "train.txt"
    train.write_text("aaa\n", encoding="utf-8")
    vocab = ingest(train, "char").vocab
    test = tmp_path / "test.txt"
    test.write_text("aba\n", encoding="utf-8")
    corpus = ingest(test, "char", max_len=4, vocab=vocab, split="test")
    a = vocab.encode("a")
    np.testing.assert_array_equal(corpus.sequences[0], [a, UNK_ID, a, PAD_ID])


def test_synthetic_corpus_is_deterministic_and_sized(tmp_path):
    a = synthetic_lines(5_000, seed=3)
    b = synthetic_lines(5_000, seed=3)
    assert a == b
    assert synthetic_lines(5_000, seed=4) != a
    path = write_synthetic_corpus(tmp_path / "syn.txt", n_bytes=20_000, seed=0)
    assert path.stat().st_size >= 20_000
    corpus = ingest(path, "char", max_len=64)
    assert len(corpus.vocab) < 40  # small alphabet
    assert max(len(line) for line in a) <= 64


def test_used_width_ends_at_the_last_non_pad_column():
    P = PAD_ID
    assert used_width(np.array([[3, P, 4, P, P], [5, P, P, P, P]])) == 3
    assert used_width(np.array([[3, 4], [5, 6]])) == 2
    assert used_width(np.array([[P, P, P]])) == 1
    # inputs [MASK, 3, P, P] end before their targets [3, P, 4, P]
    assert used_width(np.array([[MASK_ID, 3, P, P]]), np.array([[3, P, 4, P]])) == 3


def test_causal_inputs_shift_right_and_keep_target_padding():
    P = PAD_ID
    got = causal_inputs(np.array([[3, P, 4], [5, 6, P]]))
    np.testing.assert_array_equal(got, [[MASK_ID, P, P], [MASK_ID, 5, P]])
