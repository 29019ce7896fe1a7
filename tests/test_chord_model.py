"""Next-chord model: tokenization, ranking, confidence, persistence."""

import functools
import json
import math
import re
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ams.chord_model import (
    BACKOFF_FACTOR,
    QUALITIES,
    STYLES,
    ChordError,
    ChordSequenceModel,
    ChordSymbol,
    ingest_corpus,
    parse_chord,
    perplexity,
    train,
)
from ams.cli import bundled_corpus, load_chord_model
from ams.config import EngineConfig

ALL_CHORDS = [ChordSymbol(root, quality) for root in range(12) for quality in QUALITIES]


# -- reference ranking: the recursive stupid-backoff path the model's
# per-context tables replaced; the model must agree with it exactly


def reference_chord_counts(model, context):
    table = model.counts.get(context)
    if not table:
        return None
    chords = {t: n for t, n in table.items() if isinstance(t, ChordSymbol)}
    return chords or None


def reference_score(model, token, context):
    chords = reference_chord_counts(model, context)
    if chords:
        count = chords.get(token, 0)
        if count > 0:
            return count / sum(chords.values())
    if not context:
        return 0.0
    return BACKOFF_FACTOR * reference_score(model, token, context[1:])


def reference_distribution(model, context):
    context = tuple(context)[-model.order:]
    chords = None
    ctx = context
    while True:
        chords = reference_chord_counts(model, ctx)
        if chords is not None or not ctx:
            break
        ctx = ctx[1:]
    symbols = model.chord_vocabulary
    if chords:
        total = sum(chords.values())
        probs = {sym: chords.get(sym, 0) / total for sym in symbols}
    else:
        probs = {sym: 1.0 / len(symbols) for sym in symbols}
    ranked = sorted(
        symbols,
        key=lambda sym: (-probs[sym], -reference_score(model, sym, context), sym),
    )
    return [(sym, probs[sym]) for sym in ranked]


@functools.cache
def bundled_model():
    return load_chord_model(EngineConfig())


def contexts(model):
    """Contexts of length 0..order+2 over the model's chords, the style
    tokens and chords the model never saw."""
    seen = [t for t in model.vocabulary if isinstance(t, ChordSymbol)]
    sources = [st.sampled_from(STYLES),
               st.sampled_from([c for c in ALL_CHORDS if c not in seen])]
    if seen:
        sources.append(st.sampled_from(seen))
    return st.lists(st.one_of(sources), max_size=model.order + 2).map(tuple)


# a small chord pool, so that trained models share successors and tie often
SMALL_POOL = [parse_chord(name) for name in ("C", "G", "Am", "F", "Dm7", "E7")]
small_streams = st.lists(st.one_of(st.sampled_from(SMALL_POOL), st.sampled_from(STYLES)),
                         min_size=1, max_size=40)


def test_parse_chord_symbols():
    assert parse_chord("C") == ChordSymbol(0, "maj")
    assert parse_chord("Am") == ChordSymbol(9, "min")
    assert parse_chord("G7") == ChordSymbol(7, "dom7")
    assert parse_chord("Bbmaj7") == ChordSymbol(10, "maj7")
    assert parse_chord("F#m7") == ChordSymbol(6, "min7")
    assert parse_chord("Ddim") == ChordSymbol(2, "dim")
    assert parse_chord("Eaug") == ChordSymbol(4, "aug")
    assert parse_chord("Gsus4") == ChordSymbol(7, "sus4")


def test_parse_chord_rejects_garbage():
    with pytest.raises(ChordError):
        parse_chord("H7")
    with pytest.raises(ChordError):
        parse_chord("Cmaj9")


def test_chord_tones():
    assert parse_chord("C").tones == (0, 4, 7)
    assert parse_chord("C7").tones == (0, 4, 7, 10)
    assert parse_chord("Am").tones == (9, 0, 4)


def test_ingest_inserts_style_tokens_at_barlines():
    tokens = ingest_corpus("C | G\nAm F", "pop")
    assert tokens == [parse_chord("C"), "pop", parse_chord("G"), "pop",
                      parse_chord("Am"), parse_chord("F")]


def test_ingest_reports_line_numbers():
    with pytest.raises(ChordError, match="line 2"):
        ingest_corpus("C | G\nC | X9", "pop")


def test_deterministic_continuation_has_full_confidence():
    tokens = ingest_corpus("\n".join(["C | G"] * 8), "pop")
    model = train(tokens, order=3)
    chord, confidence = model.next_chord([parse_chord("C")], "pop", 1)
    assert chord == parse_chord("G")
    assert confidence == 1.0


def test_ranked_alternatives():
    text = "\n".join(["C | G"] * 6 + ["C | F"] * 2)
    model = train(ingest_corpus(text, "pop"), order=3)
    first, p1 = model.next_chord([parse_chord("C")], "pop", 1)
    second, p2 = model.next_chord([parse_chord("C")], "pop", 2)
    assert (first, second) == (parse_chord("G"), parse_chord("F"))
    assert p1 == pytest.approx(0.75)
    assert p2 == pytest.approx(0.25)


def test_distribution_sums_to_one_and_is_sorted():
    model = train(ingest_corpus("C | G | Am | F\nC | F | G | C", "rock"), order=3)
    dist = model.distribution((parse_chord("C"), "rock"))
    assert sum(p for _, p in dist) == pytest.approx(1.0)
    probs = [p for _, p in dist]
    assert probs == sorted(probs, reverse=True)


def test_unseen_context_backs_off():
    model = train(ingest_corpus("C | G\nC | G", "jazz"), order=3)
    chord, confidence = model.next_chord(
        [parse_chord("Ddim"), parse_chord("Eaug")], "jazz", 1)
    assert isinstance(chord, ChordSymbol)
    assert 0.0 < confidence <= 1.0


def test_rank_beyond_vocabulary_raises():
    model = train(ingest_corpus("C | G", "folk"), order=2)
    with pytest.raises(ChordError):
        model.next_chord([], "folk", 99)


def test_style_conditioning_differs():
    text_pop = "\n".join(["C | G"] * 8)
    text_jazz = "\n".join(["C | Am"] * 8)
    tokens = ingest_corpus(text_pop, "pop") + ["jazz"] + ingest_corpus(text_jazz, "jazz")
    model = train(tokens, order=3)
    pop_next, _ = model.next_chord([parse_chord("C")], "pop", 1)
    jazz_next, _ = model.next_chord([parse_chord("C")], "jazz", 1)
    assert pop_next == parse_chord("G")
    assert jazz_next == parse_chord("Am")


def test_save_load_round_trip(tmp_path):
    model = train(ingest_corpus("Dm7 | G7 | Cmaj7", "jazz"), order=2)
    path = tmp_path / "model.bin"
    model.save(path)
    loaded = ChordSequenceModel.load(path)
    assert loaded.order == model.order
    assert loaded.counts == model.counts
    assert loaded.vocabulary == model.vocabulary
    assert loaded.chord_vocabulary == sorted(t for t in model.vocabulary
                                             if isinstance(t, ChordSymbol))
    assert path.read_bytes()[:4] == b"AMSC"


def test_a_vocabulary_listing_a_token_twice_is_rejected(tmp_path):
    """A doubled vocabulary would rank each chord twice, with probabilities
    summing to 2; neither direct construction nor `load` accepts one."""
    model = train(ingest_corpus("C | G", "pop"), order=1)
    with pytest.raises(ChordError, match="twice"):
        ChordSequenceModel(model.order, model.counts, model.vocabulary * 2)
    path = tmp_path / "doubled.model"
    model.save(path)
    blob = path.read_bytes()
    payload = json.loads(blob[9:])
    payload["vocabulary"] *= 2
    body = json.dumps(payload).encode("utf-8")
    path.write_bytes(blob[:4] + struct.pack(">BI", 1, len(body)) + body)
    with pytest.raises(ChordError, match=f"^{re.escape(str(path))}: .*twice"):
        ChordSequenceModel.load(path)


def test_load_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(ChordError):
        ChordSequenceModel.load(path)


def test_perplexity_lower_on_training_data():
    train_tokens = ingest_corpus("\n".join(["Dm7 | G7 | Cmaj7 | Cmaj7"] * 10), "jazz")
    model = train(train_tokens, order=3)
    on_train = perplexity(model, train_tokens)
    shuffled = ingest_corpus("\n".join(["Cmaj7 | Dm7 | G7 | Dm7"] * 10), "jazz")
    assert on_train < perplexity(model, shuffled)
    assert math.isfinite(on_train)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_distribution_matches_reference_on_bundled_model(data):
    model = bundled_model()
    context = data.draw(contexts(model))
    expected = reference_distribution(model, context)
    assert model.distribution(context) == expected
    assert model.distribution(context) == expected  # kept ranking


@settings(max_examples=200, deadline=None)
@given(tokens=small_streams, order=st.integers(1, 3), data=st.data())
def test_distribution_matches_reference_on_small_models(tokens, order, data):
    model = train(tokens, order=order)
    for context in data.draw(st.lists(contexts(model), min_size=1, max_size=5)):
        assert model.distribution(context) == reference_distribution(model, context)


def test_backoff_keeps_the_recursive_float_order():
    # 0.4 * (0.4 * 5/8) and 0.4 * 1/4 are both 0.1, so D and E tie and
    # keep dictionary order; 0.4 ** 2 * 5/8 rounds above 0.1 and would
    # put E first
    c, d, e, f = (parse_chord(name) for name in "CDEF")
    model = ChordSequenceModel(order=2, vocabulary=[c, d, e, f, "pop"], counts={
        (): {e: 5, c: 3}, ("pop",): {d: 1, c: 3}, (c, "pop"): {c: 1}})
    expected = [(c, 1.0), (d, 0.0), (e, 0.0), (f, 0.0)]
    assert reference_distribution(model, (c, "pop")) == expected
    assert model.distribution((c, "pop")) == expected


def test_perplexity_matches_reference(monkeypatch):
    tokens = bundled_corpus()
    fast = perplexity(train(tokens, order=3), tokens)
    monkeypatch.setattr(ChordSequenceModel, "distribution", reference_distribution)
    assert fast == perplexity(train(tokens, order=3), tokens)


def test_returned_ranking_cannot_corrupt_the_model():
    model = train(ingest_corpus("\n".join(["C | G"] * 6 + ["C | F"] * 2), "pop"), order=3)
    context = (parse_chord("C"), "pop")
    first = model.distribution(context)
    expected = list(first)
    first.reverse()
    first[0] = (parse_chord("F"), 1.0)
    first.append((parse_chord("Am"), 0.5))
    assert model.distribution(context) == expected
    chord, confidence = model.next_chord([parse_chord("C")], "pop", 1)
    assert (chord, confidence) == expected[0]
