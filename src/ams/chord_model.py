"""Style-conditioned next-chord prediction.

Chord charts are tokenized with barlines replaced by style tokens, an
order-k count model with stupid backoff ranks candidate next chords, and
the (normalized) probability of the returned chord doubles as the harmony
agent's confidence.

A model is read-only once `train` or `load` has built it.  It ranks each
distinct context once: the context's ranked distribution is computed on
first use and reused by every later query, so a composition cycle, which
asks for the same few contexts again and again, does not re-rank them.
"""

from __future__ import annotations

import json
import re
import struct
from collections import namedtuple
from dataclasses import dataclass, field

STYLES = ("pop", "rock", "jazz", "folk")

BACKOFF_FACTOR = 0.4

PITCH_CLASS_NAMES = ("C", "C#", "D", "D#", "E", "F", "F#", "G", "G#", "A", "A#", "B")

_ROOTS = {
    "C": 0, "C#": 1, "Db": 1, "D": 2, "D#": 3, "Eb": 3, "E": 4, "Fb": 4,
    "E#": 5, "F": 5, "F#": 6, "Gb": 6, "G": 7, "G#": 8, "Ab": 8, "A": 9,
    "A#": 10, "Bb": 10, "B": 11, "Cb": 11, "B#": 0,
}

# quality -> chord tone intervals from the root
QUALITIES = {
    "maj": (0, 4, 7),
    "min": (0, 3, 7),
    "dom7": (0, 4, 7, 10),
    "maj7": (0, 4, 7, 11),
    "min7": (0, 3, 7, 10),
    "dim": (0, 3, 6),
    "aug": (0, 4, 8),
    "sus4": (0, 5, 7),
}

_SUFFIXES = {
    "": "maj", "maj": "maj", "M": "maj",
    "m": "min", "min": "min", "-": "min",
    "7": "dom7", "dom7": "dom7",
    "maj7": "maj7", "M7": "maj7",
    "m7": "min7", "min7": "min7", "-7": "min7",
    "dim": "dim", "o": "dim",
    "aug": "aug", "+": "aug",
    "sus4": "sus4", "sus": "sus4",
}

# quality -> its name in a chord symbol: the first suffix listed for it
_SUFFIX_OF = {quality: suffix for suffix, quality in reversed(_SUFFIXES.items())}

_CHORD_RE = re.compile(r"^([A-G][#b]?)(.*)$")


class ChordError(ValueError):
    pass


class ChordSymbol(namedtuple("ChordSymbol", ("root", "quality"))):
    """A chord: root pitch class 0..11 and a QUALITIES key.  Immutable and
    ordered by (root, quality); hashing and equality are the tuple's, done
    in C, since the count tables hash a chord for every context token."""

    __slots__ = ()

    def __new__(cls, root: int, quality: str):
        if not 0 <= root < 12:
            raise ChordError(f"root {root} is not a pitch class")
        if quality not in QUALITIES:
            raise ChordError(f"unknown chord quality {quality!r}")
        return super().__new__(cls, root, quality)

    @property
    def tones(self) -> tuple[int, ...]:
        return tuple((self.root + i) % 12 for i in QUALITIES[self.quality])

    def __str__(self) -> str:
        return PITCH_CLASS_NAMES[self.root] + _SUFFIX_OF[self.quality]


def parse_chord(token: str) -> ChordSymbol:
    match = _CHORD_RE.match(token)
    if not match:
        raise ChordError(f"unrecognized chord {token!r}")
    root_name, suffix = match.groups()
    quality = _SUFFIXES.get(suffix)
    if quality is None:
        raise ChordError(f"unrecognized chord {token!r}")
    return ChordSymbol(_ROOTS[root_name], quality)


Token = ChordSymbol | str  # style tokens ride along as plain strings
ChordTable = tuple[dict[ChordSymbol, int], int]  # chord successor counts, their total


def ingest_corpus(text: str, style: str) -> list[Token]:
    """Tokenize line-oriented chord charts, replacing barlines (and line
    breaks) with the style token."""
    if style not in STYLES:
        raise ChordError(f"unknown style {style!r}")
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if tokens:
            tokens.append(style)  # line break acts as a barline
        bars = line.split("|")
        for bi, bar in enumerate(bars):
            if bi > 0:
                tokens.append(style)
            for word in bar.split():
                try:
                    tokens.append(parse_chord(word))
                except ChordError:
                    raise ChordError(
                        f"unrecognized chord {word!r} at line {lineno}") from None
    # strip style tokens left dangling at either end
    while tokens and isinstance(tokens[0], str):
        tokens.pop(0)
    while tokens and isinstance(tokens[-1], str):
        tokens.pop()
    return tokens


def _token_key(token: Token) -> str:
    if isinstance(token, ChordSymbol):
        return f"c/{token.root}/{token.quality}"
    return f"s/{token}"


def _token_from_key(key: str) -> Token:
    kind, _, rest = key.partition("/")
    if kind == "c":
        root, _, quality = rest.partition("/")
        return ChordSymbol(int(root), quality)
    return rest


@dataclass
class ChordSequenceModel:
    """Order-k count model with stupid backoff over chords and style tokens.

    `train` and `load` build a model; after that it is read-only.  Its
    sorted `chord_vocabulary` is derived when it is built, which rejects a
    vocabulary that lists a token twice.  The ranked distribution of each
    context truncated to `order` tokens is computed the first time a query
    needs it and kept on the model.  The runtime context is history chords interleaved with the
    style token, so how many rankings a session keeps is bounded by the
    vocabulary and the styles, not by the session's length.
    """

    order: int
    counts: dict[tuple[Token, ...], dict[Token, int]] = field(default_factory=dict)
    vocabulary: list[Token] = field(default_factory=list)
    chord_vocabulary: list[ChordSymbol] = field(init=False, repr=False, compare=False)
    # truncated context -> ranked (chord, probability) pairs
    _rankings: dict[tuple[Token, ...], tuple[tuple[ChordSymbol, float], ...]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(set(self.vocabulary)) != len(self.vocabulary):
            raise ChordError("vocabulary lists a token twice")
        self.chord_vocabulary = sorted(t for t in self.vocabulary if isinstance(t, ChordSymbol))

    # -- scoring ------------------------------------------------------------

    @staticmethod
    def _backoff_score(token: ChordSymbol, tables: list[ChordTable | None]) -> float:
        """Stupid-backoff score from the chord tables of a context's suffixes,
        longest first; orders the zero-probability tail."""
        for depth, table in enumerate(tables):
            if table is not None:
                count = table[0].get(token, 0)
                if count > 0:
                    score = count / table[1]
                    # one factor per backoff step, innermost first, as
                    # 0.4 * (0.4 * p) rounds differently from 0.16 * p
                    for _ in range(depth):
                        score = BACKOFF_FACTOR * score
                    return score
        return 0.0

    def _rank(self, context: tuple[Token, ...]) -> tuple[tuple[ChordSymbol, float], ...]:
        """The ranked distribution of a truncated context (see `distribution`)."""
        # the chord table of each suffix, longest first; None without chords
        successors = [{t: n for t, n in self.counts.get(context[i:], {}).items()
                       if isinstance(t, ChordSymbol)} for i in range(len(context) + 1)]
        tables = [(chords, sum(chords.values())) if chords else None for chords in successors]
        table = next((t for t in tables if t is not None), None)
        symbols = self.chord_vocabulary
        if table is not None:
            chords, total = table
            probs = {sym: chords.get(sym, 0) / total for sym in symbols}
        else:
            probs = {sym: 1.0 / len(symbols) for sym in symbols}
        ranked = sorted(
            symbols,
            key=lambda sym: (-probs[sym], -self._backoff_score(sym, tables), sym),
        )
        return tuple((sym, probs[sym]) for sym in ranked)

    def distribution(self, context: tuple[Token, ...]) -> list[tuple[ChordSymbol, float]]:
        """Probabilities over the chord vocabulary for a context, as a new list.

        Only the last `order` tokens of the context count.  Probability
        mass comes from the longest context suffix with observed chord
        successors; fully unseen contexts back off to shorter ones,
        ultimately the unigram table.  Chords unseen at that context get
        probability 0 and are ordered among themselves by stupid-backoff
        score, then dictionary order.
        """
        context = tuple(context)[-self.order:]
        ranked = self._rankings.get(context)
        if ranked is None:
            ranked = self._rankings[context] = self._rank(context)
        return list(ranked)

    def next_chord(self, history: list[Token], style: str,
                   rank: int = 1) -> tuple[ChordSymbol, float]:
        """The rank-th most probable next chord for a style-conditioned
        context, with its probability as confidence."""
        if style not in STYLES:
            raise ChordError(f"unknown style {style!r}")
        if rank < 1:
            raise ChordError("rank must be >= 1")
        context = self._style_context(history, style)
        ranked = self.distribution(context)
        if rank > len(ranked):
            raise ChordError(f"rank {rank} exceeds chord vocabulary ({len(ranked)})")
        return ranked[rank - 1]

    def _style_context(self, history: list[Token], style: str) -> tuple[Token, ...]:
        """Interleave the style token after each history chord, mirroring how
        barlines appear in the training stream."""
        context: list[Token] = []
        for token in history:
            context.append(token)
            if isinstance(token, ChordSymbol):
                context.append(style)
        if not context:
            context.append(style)
        return tuple(context)

    # -- persistence --------------------------------------------------------

    MAGIC = b"AMSC"
    VERSION = 1

    def save(self, path) -> None:
        payload = {
            "order": self.order,
            "vocabulary": [_token_key(t) for t in self.vocabulary],
            "counts": [
                [[_token_key(t) for t in ctx],
                 {_token_key(tok): n for tok, n in sorted(table.items(), key=lambda kv: _token_key(kv[0]))}]
                for ctx, table in sorted(self.counts.items(), key=lambda kv: [_token_key(t) for t in kv[0]])
            ],
        }
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        with open(path, "wb") as fh:
            fh.write(self.MAGIC + struct.pack(">BI", self.VERSION, len(body)) + body)

    @classmethod
    def load(cls, path) -> "ChordSequenceModel":
        """Read a `save`d model; a truncated or malformed file (a token
        listed twice in the vocabulary included), an order that is not an
        int >= 1 or a count that is not an int >= 1 is a ChordError naming
        the path."""
        with open(path, "rb") as fh:
            blob = fh.read()
        if blob[:4] != cls.MAGIC:
            raise ChordError(f"{path}: not a chord model file")
        if len(blob) < 9:
            raise ChordError(f"{path}: truncated model header")
        version, size = struct.unpack_from(">BI", blob, 4)
        if version != cls.VERSION:
            raise ChordError(f"{path}: unsupported model version {version}")
        try:
            payload = json.loads(blob[9 : 9 + size].decode("utf-8"))
            vocabulary = [_token_from_key(k) for k in payload["vocabulary"]]
            counts = {tuple(_token_from_key(k) for k in ctx_keys):
                      {_token_from_key(k): n for k, n in table.items()}
                      for ctx_keys, table in payload["counts"]}
            model = cls(payload["order"], counts, vocabulary)
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
            raise ChordError(f"{path}: malformed model body: {exc!r}") from None
        if not _is_count(model.order):
            raise ChordError(f"{path}: order must be an int >= 1, got {model.order!r}")
        for ctx, table in model.counts.items():
            for token, n in table.items():
                if not _is_count(n):
                    raise ChordError(f"{path}: count of {_token_key(token)!r} after "
                                     f"{[_token_key(t) for t in ctx]} must be an int >= 1, got {n!r}")
        return model


def _is_count(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool) and value >= 1


def train(tokens: list[Token], order: int = 3) -> ChordSequenceModel:
    """Count contexts of length 0..order over a token stream."""
    if order < 1:
        raise ChordError("order must be >= 1")
    if not tokens:
        raise ChordError("empty token stream")
    counts: dict[tuple[Token, ...], dict[Token, int]] = {}
    for i, token in enumerate(tokens):
        for length in range(min(i, order) + 1):
            table = counts.setdefault(tuple(tokens[i - length : i]), {})
            table[token] = table.get(token, 0) + 1
    return ChordSequenceModel(order, counts, list(dict.fromkeys(tokens)))


def perplexity(model: ChordSequenceModel, tokens: list[Token]) -> float:
    """Held-out perplexity over chord positions (style tokens are context
    only), with a small floor so unseen chords stay finite."""
    import math

    log_sum = 0.0
    count = 0
    history: list[Token] = []
    for token in tokens:
        if isinstance(token, ChordSymbol):
            context = tuple(history)[-model.order:]
            probs = dict(model.distribution(context))
            p = max(probs.get(token, 0.0), 1e-9)
            log_sum += math.log(p)
            count += 1
        history.append(token)
    if count == 0:
        raise ChordError("no chord positions in held-out stream")
    return math.exp(-log_sum / count)
