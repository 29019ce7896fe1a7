"""Melody agents: operators, environment encoding, rewards, placement search
and theme evolution.

A melody agent owns an XCS population mapping an 18-bit context encoding
(six 2-bit affect bins plus a 6-bit theme id) to one of eight melody
operators.  The chosen operator transforms the current theme, and an
exhaustive transposition/time-shift search places the result against the
harmonic resource matrix, maximizing harmonic fitness plus style score.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .context_graph import AffectSnapshot
from .harmonic_context import ResourceMatrix, fitness_index, phrase_cells
from .osc_gateway import THEME_IDS
from .render import BEATS_PER_MEASURE, MEASURE_TICKS, MIDI_MAX, TICKS_PER_CELL, TICKS_PER_QUARTER
from .xcs import XcsPopulation

# key mode -> scale degrees above the tonic
SCALES = {"major": (0, 2, 4, 5, 7, 9, 11), "minor": (0, 2, 3, 5, 7, 8, 10)}

# style range factor S_r; rock shares the pop value
STYLE_RANGE_FACTORS = {"jazz": 1.0, "pop": 0.8, "rock": 0.8, "folk": 0.7}

DEFAULT_REWARD_GATE = 0.6
DEFAULT_H_MIN = 0.5
TRANSPOSITION_LIMIT = 24
# (t, t % 12) for each transposition t the search tries, ascending
TRANSPOSITIONS = tuple((t, t % 12) for t in range(-TRANSPOSITION_LIMIT, TRANSPOSITION_LIMIT + 1))
THEME_BITS = (THEME_IDS - 1).bit_length()  # of the theme id in the classifier input
MAX_FRAGMENT_MEASURES = 4


class MelodyError(ValueError):
    pass


class OperatorError(MelodyError):
    """Operator could not be applied; the fragment is rejected."""


@dataclass(frozen=True)
class Note:
    pitch: int  # MIDI note number 0..127
    onset: int  # ticks, TICKS_PER_QUARTER per quarter
    duration: int  # ticks, > 0
    velocity: int = 96

    def __post_init__(self):
        if not 0 <= self.pitch <= MIDI_MAX:
            raise MelodyError(f"pitch {self.pitch} outside 0..{MIDI_MAX}")
        if self.duration <= 0:
            raise MelodyError("duration must be positive")
        if not 1 <= self.velocity <= MIDI_MAX:
            raise MelodyError(f"velocity {self.velocity} outside 1..{MIDI_MAX}")


@dataclass(frozen=True)
class Key:
    tonic: int  # pitch class
    mode: str  # a SCALES key

    @property
    def scale(self) -> tuple[int, ...]:
        return tuple((self.tonic + i) % 12 for i in SCALES[self.mode])


@dataclass(frozen=True)
class MelodicFragment:
    """A phrase.  The facts the placement search and the resource matrix
    read, which depend on the phrase alone, are computed at their first
    read and kept with it (read-only where they are arrays): its pitch
    bounds, its P at each style and agent count, its cells and its
    fitness-grid gather index."""

    notes: tuple[Note, ...]
    length_measures: int  # 1..MAX_FRAGMENT_MEASURES
    key: Key

    def __post_init__(self):
        if not 1 <= self.length_measures <= MAX_FRAGMENT_MEASURES:
            raise MelodyError(f"length {self.length_measures} outside "
                              f"1..{MAX_FRAGMENT_MEASURES} measures")
        onsets = [n.onset for n in self.notes]
        if onsets != sorted(onsets):
            raise MelodyError("notes must be sorted by onset")

    @property
    def span_ticks(self) -> int:
        if not self.notes:
            return 0
        return max(n.onset + n.duration for n in self.notes)

    @cached_property
    def pitch_bounds(self) -> tuple[int, int]:
        """(lowest, highest) pitch; the phrase has notes."""
        pitches = [n.pitch for n in self.notes]
        return min(pitches), max(pitches)

    @cached_property
    def cells(self) -> tuple[np.ndarray, np.ndarray]:
        """`harmonic_context.phrase_cells` of this phrase."""
        return phrase_cells(self)

    @cached_property
    def fitness_index(self) -> np.ndarray:
        """`harmonic_context.fitness_index` of this phrase."""
        return fitness_index(self)

    @cached_property
    def _style_scores(self) -> dict[tuple[str, int], tuple[float, float]]:
        return {}

    def style_scores(self, style: str, n_agents: int) -> tuple[float, float]:
        """P (`style_score`) of this phrase starting on the beat and off it,
        for `style` and `n_agents`."""
        scores = self._style_scores.get((style, n_agents))
        if scores is None:
            # P depends on tempo-free quantities only (n_b, o_b), so any
            # tempo works here; a shift changes only o_b
            features = compute_features(self, 120.0)
            scores = tuple(style_score(replace(features, off_beat_start=o), style, n_agents)
                           for o in (0, 1))
            self._style_scores[(style, n_agents)] = scores
        return scores


def _length_from_span(span: int) -> int:
    """Whole measures covering `span` ticks; every caller's span is >= 1."""
    return -(-span // MEASURE_TICKS)


# ---------------------------------------------------------------------------
# operators


def _reverse(fragment: MelodicFragment) -> MelodicFragment:
    span = fragment.length_measures * MEASURE_TICKS
    notes = sorted(
        (replace(n, onset=span - (n.onset + n.duration)) for n in fragment.notes),
        key=lambda n: (n.onset, n.pitch))
    return replace(fragment, notes=tuple(notes))


def _scale_time(fragment: MelodicFragment, factor: float) -> MelodicFragment:
    notes = []
    for n in fragment.notes:
        onset = int(round(n.onset * factor))
        duration = int(round(n.duration * factor))
        if duration < 1:
            raise OperatorError("diminished note shorter than one tick")
        notes.append(replace(n, onset=onset, duration=duration))
    length = _length_from_span(max(n.onset + n.duration for n in notes))
    if length > MAX_FRAGMENT_MEASURES:
        raise OperatorError(f"augmented fragment exceeds {MAX_FRAGMENT_MEASURES} measures")
    return replace(fragment, notes=tuple(notes), length_measures=length)


def _invert(fragment: MelodicFragment) -> MelodicFragment:
    anchor = fragment.notes[0].pitch
    notes = tuple(replace(n, pitch=min(MIDI_MAX, max(0, anchor - (n.pitch - anchor))))
                  for n in fragment.notes)
    return replace(fragment, notes=notes)


# the eight melody operators, by index: (name, time factor or None, reshape
# or None).  Each scales time, then reshapes; only the scaling can fail, as
# reverse and invert never fail on a non-empty fragment
OPERATORS = (
    ("reverse", None, _reverse),
    ("diminish", 0.5, None),
    ("augment", 2.0, None),
    ("invert", None, _invert),
    ("reverse-diminish", 0.5, _reverse),
    ("reverse-augment", 2.0, _reverse),
    ("invert-diminish", 0.5, _invert),
    ("invert-augment", 2.0, _invert),
)
OPERATOR_NAMES = tuple(name for name, _, _ in OPERATORS)


def apply_operator(fragment: MelodicFragment, op: int) -> MelodicFragment:
    """Apply melody operator `op`, an index into OPERATORS."""
    if not fragment.notes:
        raise OperatorError("empty fragment")
    if not 0 <= op < len(OPERATORS):
        raise MelodyError(f"unknown operator {op}")
    _name, factor, reshape = OPERATORS[op]
    scaled = fragment if factor is None else _scale_time(fragment, factor)
    return scaled if reshape is None else reshape(scaled)


# ---------------------------------------------------------------------------
# features, rewards, encoding


@dataclass(frozen=True)
class FragmentFeatures:
    notes_per_second: float       # n_s
    mean_interval: float          # mean absolute pitch step, semitones
    diatonic_fraction: float      # d in [0, 1]
    notes_per_beat: float         # n_b
    off_beat_start: int           # o_b: 1 if the first note starts off the beat


def compute_features(fragment: MelodicFragment, tempo_bpm: float) -> FragmentFeatures:
    if not fragment.notes:
        raise MelodyError("features undefined for an empty fragment")
    beats = fragment.length_measures * BEATS_PER_MEASURE
    seconds = beats * 60.0 / tempo_bpm
    notes = fragment.notes
    intervals = [abs(b.pitch - a.pitch) for a, b in zip(notes, notes[1:])]
    scale = set(fragment.key.scale)
    diatonic = sum(1 for n in notes if n.pitch % 12 in scale)
    return FragmentFeatures(
        notes_per_second=len(notes) / seconds,
        mean_interval=sum(intervals) / len(intervals) if intervals else 0.0,
        diatonic_fraction=diatonic / len(notes),
        notes_per_beat=len(notes) / beats,
        off_beat_start=0 if notes[0].onset % TICKS_PER_QUARTER == 0 else 1,
    )


def reward(snapshot: AffectSnapshot, features: FragmentFeatures) -> float:
    """Affect-conditioned reward over fragment features.

    Happiness is compared against the diatonic fraction; activations are
    0-100 while d is 0-1, so happiness is divided by 100.
    """
    h, e, _anger, s, te, th = snapshot
    n_s = features.notes_per_second
    d = features.diatonic_fraction
    p_bar = features.mean_interval
    tempo_term = (n_s - 0.5) / 25.0
    r_e = 0.2 - abs(e / 500.0 - tempo_term)
    r_h = 0.2 - abs(h / 100.0 - d)
    r_s = abs(s / 500.0 - tempo_term)
    r_te = abs(te / 500.0 - tempo_term)
    r_th = 0.2 - abs(th / 500.0 - (p_bar / 6.0) / 5.0)
    return r_e + r_h + r_s + r_te + r_th


def encode_environment(snapshot: AffectSnapshot, theme_id: int) -> int:
    """The classifier input: a 2-bit bin per affect level in canonical
    order, the first in the most significant bits, then the theme id in
    the low THEME_BITS bits."""
    if not 0 <= theme_id < THEME_IDS:
        raise MelodyError(f"theme id {theme_id} does not fit {THEME_BITS} bits")
    x = 0
    for level in snapshot:
        x = x << 2 | (0 if level < 25 else 1 if level < 50 else 2 if level < 75 else 3)
    return x << THEME_BITS | theme_id


def style_score(features: FragmentFeatures, style: str, n_agents: int) -> float:
    """Rhythmic-density style term P."""
    if n_agents < 1:
        raise MelodyError("agent count must be >= 1")
    n_b = features.notes_per_beat
    if style == "jazz":
        return abs(1.0 - n_b) + features.off_beat_start
    if style in ("rock", "pop"):
        return abs(1.0 / n_agents - n_b)
    if style == "folk":
        return abs(1.0 - n_b)
    raise MelodyError(f"unknown style {style!r}")


def max_range(n_agents: int, style: str,
              range_factors: dict[str, float] | None = None) -> int:
    """Maximum span in semitones between the first agent's highest note and
    the second agent's lowest: floor(12 * S_r * N)."""
    if n_agents < 1:
        raise MelodyError("agent count must be >= 1")
    factors = range_factors or STYLE_RANGE_FACTORS
    if style not in factors:
        raise MelodyError(f"unknown style {style!r}")
    return math.floor(12.0 * factors[style] * n_agents)


# ---------------------------------------------------------------------------
# placement search


@dataclass(frozen=True)
class RangeConstraint:
    """Inclusive pitch bounds for a voice, inside the MIDI range 0..127, so
    no placement it allows leaves that range.  Bounds may cross (min above
    max): then nothing is allowed."""
    min_pitch: int = 0
    max_pitch: int = MIDI_MAX

    def __post_init__(self):
        if not (0 <= self.min_pitch <= MIDI_MAX and 0 <= self.max_pitch <= MIDI_MAX):
            raise MelodyError(
                f"pitch bounds {self.min_pitch}..{self.max_pitch} outside 0..{MIDI_MAX}")

    def allows(self, lo: int, hi: int) -> bool:
        return self.min_pitch <= lo and hi <= self.max_pitch


def admissible_transpositions(fragment: MelodicFragment,
                              constraint: RangeConstraint) -> list[int]:
    """Transpositions within the limit that keep the fragment inside the
    range constraint, ascending.  Empty when the fragment is empty or longer
    than a block's region, or fits the range at no transposition: then no
    placement exists on any matrix."""
    if not fragment.notes:
        return []
    if -(-fragment.span_ticks // TICKS_PER_CELL) > ResourceMatrix.region_cells:
        return []
    lo, hi = fragment.pitch_bounds
    return [t for t, _pc in TRANSPOSITIONS if constraint.allows(lo + t, hi + t)]


@dataclass
class Proposal:
    """An action that produced a fragment: unplaced after `prepare`, placed
    by `placed` once a search has found the transposition (semitones) and
    time shift (cells) where it fits."""

    operator: int
    action_set: list
    estimated_reward: float
    fragment: MelodicFragment
    transposition: int = 0
    time_shift: int = 0
    harmonic_fitness: float = 0.0
    style_fit: float = 0.0

    def placed(self, found: tuple[int, int, float, float] | None) -> "Proposal | Abstention":
        """This proposal at the search result, or a "search" Abstention when
        the search found nothing."""
        if found is None:
            return Abstention("search", self.operator, self.action_set,
                              self.estimated_reward)
        transposition, time_shift, h_score, p_score = found
        return replace(self, transposition=transposition, time_shift=time_shift,
                       harmonic_fitness=h_score, style_fit=p_score)


@dataclass
class Abstention:
    """A declined turn.  "gate" means the agent chose not to act; "operator"
    and "search" mean it acted but the action failed.  The engine settles
    it: failed actions are reinforced with zero reward, and a gate
    abstention leaves the population untouched."""

    reason: str  # "gate" | "operator" | "search"
    operator: int
    action_set: list
    estimated_reward: float


@dataclass
class MelodyAgent:
    """One melody voice: an XCS population plus placement search."""

    agent_id: int
    population: XcsPopulation
    reward_gate: float = DEFAULT_REWARD_GATE
    h_min: float = DEFAULT_H_MIN

    def decide(self, snapshot: AffectSnapshot, theme_id: int,
               explore_prob: float = 0.0) -> tuple[int, float, list]:
        """Run the XCS step: returns (operator, estimated reward, action set)."""
        match_set = self.population.match_set(encode_environment(snapshot, theme_id))
        action, prediction = self.population.select_action(match_set, explore_prob)
        return action, prediction, self.population.action_set(match_set, action)

    def search_placement(self, fragment: MelodicFragment, matrix: ResourceMatrix,
                         style: str, n_agents: int,
                         constraint: RangeConstraint) -> tuple[int, int, float, float] | None:
        """Exhaustive time-shift x transposition search maximizing M = H + P.

        Shifts ascend from 0 and, within each, allowed transpositions ascend;
        the first maximum wins (strict >), which byte-identical replays depend
        on.  Returns (transposition, time shift, H, P) of that placement, or
        None when no placement meets the range constraint or that one's H is
        below the fitness floor h_min, even if another placement's H meets it.
        """
        if not fragment.notes:
            return None
        lo, hi = fragment.pitch_bounds
        p_on_beat, p_off_beat = fragment.style_scores(style, n_agents)
        first_onset = fragment.notes[0].onset
        allows = constraint.allows

        best_m, best = -math.inf, None
        for shift, fitness_by_pc in enumerate(matrix.fitness_by_transposition(fragment).tolist()):
            if (first_onset + shift * TICKS_PER_CELL) % TICKS_PER_QUARTER:
                p_score = p_off_beat
            else:
                p_score = p_on_beat
            for transposition, pc in TRANSPOSITIONS:
                if not allows(lo + transposition, hi + transposition):
                    continue
                m_score = fitness_by_pc[pc] + p_score
                if m_score > best_m:
                    best_m = m_score
                    best = (transposition, shift, fitness_by_pc[pc], p_score)
        if best is None or best[2] < self.h_min:
            return None
        return best

    def prepare(self, theme: MelodicFragment, snapshot: AffectSnapshot,
                theme_id: int, explore_prob: float = 0.0,
                operate=apply_operator) -> Proposal | Abstention:
        """The turn up to the search: decide, then the reward gate, then the
        operator.  `operate(theme, operator)` applies the operator."""
        operator, prediction, action_set = self.decide(snapshot, theme_id, explore_prob)
        if prediction <= self.reward_gate:
            return Abstention("gate", operator, action_set, prediction)
        try:
            fragment = operate(theme, operator)
        except OperatorError:
            return Abstention("operator", operator, action_set, prediction)
        return Proposal(operator, action_set, prediction, fragment)

    def propose(self, theme: MelodicFragment, snapshot: AffectSnapshot,
                theme_id: int, matrix: ResourceMatrix, style: str,
                n_agents: int, constraint: RangeConstraint,
                explore_prob: float = 0.0, operate=apply_operator) -> Proposal | Abstention:
        """Full agent turn on one matrix; an Abstention carries why the agent
        sat out."""
        proposal = self.prepare(theme, snapshot, theme_id, explore_prob, operate)
        if isinstance(proposal, Abstention):
            return proposal
        return proposal.placed(self.search_placement(
            proposal.fragment, matrix, style, n_agents, constraint))


def placed_fragment(fragment: MelodicFragment, transposition: int,
                    time_shift: int) -> MelodicFragment:
    """The phrase as it sounds: transposed by `transposition` semitones, key
    included, and shifted by `time_shift` cells."""
    ticks = time_shift * TICKS_PER_CELL
    notes = tuple(Note(n.pitch + transposition, n.onset + ticks, n.duration, n.velocity)
                  for n in fragment.notes)
    key = Key((fragment.key.tonic + transposition) % 12, fragment.key.mode)
    return MelodicFragment(notes, fragment.length_measures, key)


def realize_reward(snapshot: AffectSnapshot, realized: MelodicFragment,
                   tempo_bpm: float) -> tuple[float, FragmentFeatures]:
    """Reward of a placed fragment (see `placed_fragment`) at the actual
    tempo, for the XCS update."""
    features = compute_features(realized, tempo_bpm)
    return reward(snapshot, features), features


# ---------------------------------------------------------------------------
# theme evolution

THEME_MUTATION_PROB = 0.1


def evolve_theme(parent_a: MelodicFragment, parent_b: MelodicFragment,
                 rng: random.Random) -> MelodicFragment:
    """Breed a theme for an unthemed concept.

    Pool = both parents plus every operator image of each that succeeds;
    two pool members are spliced at a random measure boundary, then each
    note independently mutates pitch or rhythm with probability
    THEME_MUTATION_PROB.  The pool holds (scaled parent, reshape) pairs, so
    only the two members drawn are reshaped.
    """
    if not parent_a.notes or not parent_b.notes:
        raise MelodyError("empty parent theme")
    pool = [(parent_a, None), (parent_b, None)]
    for parent in (parent_a, parent_b):
        scaled = {None: parent}  # time factor -> scaling, None where it fails
        for _name, factor, reshape in OPERATORS:
            if factor not in scaled:
                try:
                    scaled[factor] = _scale_time(parent, factor)
                except OperatorError:
                    scaled[factor] = None
            if scaled[factor] is not None:
                pool.append((scaled[factor], reshape))

    def draw() -> MelodicFragment:
        source, reshape = pool[rng.randrange(len(pool))]
        return source if reshape is None else reshape(source)
    first, second = draw(), draw()
    boundary = rng.randrange(0, first.length_measures) * MEASURE_TICKS
    head = [n for n in first.notes if n.onset < boundary]
    tail = [n for n in second.notes if n.onset >= boundary]
    notes = head + tail
    if not notes:
        notes = list(first.notes)

    mutated = []
    for n in notes:
        if rng.random() < THEME_MUTATION_PROB:
            if rng.random() < 0.5:
                delta = rng.choice([1, 2, 3, 4]) * rng.choice([-1, 1])
                pitch = min(MIDI_MAX, max(0, n.pitch + delta))
                n = replace(n, pitch=pitch)
            else:
                factor = rng.choice([0.5, 2.0])
                n = replace(n, duration=max(1, int(round(n.duration * factor))))
        mutated.append(n)

    # trim to the cap: drop notes that start past it, cut those that sound past it
    cap = MAX_FRAGMENT_MEASURES * MEASURE_TICKS
    mutated = [n if n.onset + n.duration <= cap else replace(n, duration=cap - n.onset)
               for n in mutated if n.onset < cap]
    if not mutated:
        mutated = list(first.notes)
    mutated.sort(key=lambda n: (n.onset, n.pitch))
    length = _length_from_span(max(n.onset + n.duration for n in mutated))
    return MelodicFragment(tuple(mutated), length, first.key)
