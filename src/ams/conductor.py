"""The engine loop: 30ms graph ticks, two-measure composition cycles,
harmony/melody leader election, voice ordering, XCS reward feedback and
score assembly."""

from __future__ import annotations

import json
import logging
import random

from .chord_model import ChordSequenceModel, ChordSymbol
from .config import EngineConfig
from .context_graph import AffectSnapshot, ConceptGraph, GraphError, VertexKind
from .harmonic_context import ResourceMatrix
from .melody import (
    Abstention,
    MelodicFragment,
    MelodyAgent,
    Note,
    OPERATOR_NAMES,
    OperatorError,
    Proposal,
    RangeConstraint,
    admissible_transpositions,
    apply_operator,
    evolve_theme,
    max_range,
    placed_fragment,
    realize_reward,
)
from .osc_gateway import THEME_IDS, AssignTheme, MessageQueue
from .percussion import GM_NOTES, generate_percussion
from .render import BLOCK_TICKS, PERCUSSION_CHANNEL, Score, ScoreNote, Track
from .themes import add_theme
from .xcs import XcsPopulation

log = logging.getLogger(__name__)

PERCUSSION_HIT_TICKS = 60


class ConductorError(RuntimeError):
    pass


class Engine:
    """Owns the graph, the agents and the growing score.

    Single-writer: one thread calls tick()/run(); the OSC receiver only
    appends to the message queue.
    """

    def __init__(self, config: EngineConfig, themes: dict[int, MelodicFragment],
                 chord_model: ChordSequenceModel):
        self.config = config
        self.themes = themes
        self.chord_model = chord_model
        self.queue = MessageQueue()
        self.graph = ConceptGraph(config.graph)
        rng = random.Random(config.seed)
        self.percussion_rng = random.Random(rng.randrange(2**32))
        self.evolution_rng = random.Random(rng.randrange(2**32))

        self.agents: list[MelodyAgent] = []
        for i in range(config.melody_agents):
            population = XcsPopulation(config.xcs, random.Random(rng.randrange(2**32)))
            self.agents.append(MelodyAgent(i + 1, population,
                                           reward_gate=config.reward_gate,
                                           h_min=config.h_min))

        self.matrix = ResourceMatrix()
        # (theme, operator) -> the phrase, or the failed operator's message
        self._phrases: dict[tuple[MelodicFragment, int], MelodicFragment | str] = {}
        self.chord_history: list[ChordSymbol] = []
        self.cycle_index = 0
        self.cycle_log: list[dict] = []
        self._checked: set[int] = set()  # object vertex indices checked for evolution

        self.melody_tracks = [
            Track(name=f"melody-{i + 1}", channel=self._channel(i))
            for i in range(config.melody_agents)
        ]
        self.percussion_track = Track(name="percussion", channel=PERCUSSION_CHANNEL)

    @staticmethod
    def _channel(index: int) -> int:
        return index + 1 if index >= PERCUSSION_CHANNEL else index  # skip percussion's

    # -- timing -------------------------------------------------------------

    @property
    def block_ms(self) -> float:
        return self.config.block_ms

    @property
    def time_ms(self) -> int:
        """Engine time: the graph's clock, advanced by each tick."""
        return self.graph.clock

    # -- graph maintenance --------------------------------------------------

    def ingest(self) -> None:
        """Drain the queue and apply messages; protocol errors are logged."""
        for msg in self.queue.drain():
            try:
                self.graph.apply_message(msg)
            except GraphError as exc:
                log.warning("rejecting message %r: %s", msg, exc)

    def tick(self) -> None:
        self.ingest()
        self._maybe_evolve_themes()
        self.graph.tick(self.config.tick_ms)

    def _maybe_evolve_themes(self) -> None:
        """Evolve a theme for each unthemed object in `graph.first_edges`
        that still has an edge, bred from the nearest themed objects.  An
        object is checked once, in vertex order; one themed by a message
        first is never checked.  Nothing evolves once every theme id is
        taken; nothing is searched while no vertex carries a loaded theme."""
        graph = self.graph
        if not graph.first_edges:
            return
        reported = sorted(set(graph.first_edges))
        graph.first_edges.clear()
        searchable = graph.has_themes(self.themes)
        for index in reported:
            # add_theme would store nothing: ids run 0..THEME_IDS-1, none is freed
            if len(self.themes) >= THEME_IDS:
                return
            vid = graph.ids[index]
            # an edge pruned since is reported again when the next one forms
            if index in self._checked or graph.degree(vid) == 0:
                continue
            vertex = graph.vertices[vid]
            if vertex.kind is not VertexKind.OBJECT or vertex.theme is not None:
                continue
            self._checked.add(index)
            parent_ids = graph.nearest_themed(vid, 2) if searchable else []
            parents = [self.themes[t] for t in parent_ids if t in self.themes]
            if not parents:
                continue
            # one themed neighbour breeds with itself
            child = evolve_theme(parents[0], parents[-1], self.evolution_rng)
            graph.apply_message(AssignTheme(vid, add_theme(self.themes, child)))

    # -- composition --------------------------------------------------------

    def _phrase(self, theme: MelodicFragment, operator: int) -> MelodicFragment:
        """`apply_operator(theme, operator)`, run once per (theme, operator):
        the phrase is kept, and with it the facts it computes once (see
        `MelodicFragment`); a failure is kept as its message and raised
        afresh on each call.  The themes are the engine's, so the memo holds
        at most THEME_IDS x len(OPERATORS) phrases."""
        key = (theme, operator)
        phrase = self._phrases.get(key)
        if phrase is None:
            try:
                phrase = apply_operator(theme, operator)
            except OperatorError as exc:
                phrase = str(exc)
            self._phrases[key] = phrase
        if isinstance(phrase, str):
            raise OperatorError(phrase)
        return phrase

    def composition_cycle(self, snapshot: AffectSnapshot,
                          theme_id: int) -> dict:
        """Compose one two-measure block; returns the decision log record.

        The turn order fixes every RNG draw, matrix consumption and XCS
        update, so replays are byte-identical.  The continuation at rank r
        is the first chord at rank r and its follow-up at rank 1.  Rank 1's
        is fetched first; the lead voice (agent 1) decides; leader election
        weighs its estimate against rank 1's confidence.  One rank walk
        then places the lead: it searches the lead's fragment over a trial
        matrix extended with each continuation in turn, fetched when the
        walk reaches its rank (only rank 1 when harmony leads, every rank up
        to `top_chord_ranks`, at most the vocabulary size, when melody
        leads, none when the lead abstained or fits no transposition), and
        adopts the first trial where it fits; otherwise the matrix takes the
        rank-1 chords.  The lead settles; then agent 2 (the lowest voice)
        and the inner voices ascending each propose and settle; last,
        percussion doubles agent 2's onsets.
        """
        config = self.config
        theme = self.themes[theme_id]
        n_agents = len(self.agents)
        span_limit = max_range(n_agents, config.style, config.range_factors)
        block_start = self.cycle_index * BLOCK_TICKS

        # the model reads at most `order` tokens, which as many chords cover
        history = self.chord_history[-self.chord_model.order:]
        n_ranks = min(config.top_chord_ranks, len(self.chord_model.chord_vocabulary))
        if n_ranks == 0:
            raise ConductorError("chord model produced no candidates")

        def continuation(rank: int) -> tuple[list[ChordSymbol], float]:
            first, conf_first = self.chord_model.next_chord(history, config.style, rank)
            second, conf_second = self.chord_model.next_chord(
                history + [first], config.style, 1)
            return [first, second], (conf_first + conf_second) / 2.0

        chords, harmony_confidence = continuation(1)

        # the lead voice decides before leader election
        lead_agent = self.agents[0]
        lead = lead_agent.prepare(theme, snapshot, theme_id, config.explore_prob,
                                  self._phrase)
        melody_confidence = lead.estimated_reward / config.reward_max
        constraint1 = RangeConstraint(*config.agent_range(1))
        if isinstance(lead, Abstention) or harmony_confidence >= melody_confidence:
            leader, walk_ranks = "harmony", 1
        else:
            leader, walk_ranks = "melody", n_ranks
        # a lead with no phrase, or one that fits no transposition, fits no matrix
        if (isinstance(lead, Abstention)
                or not admissible_transpositions(lead.fragment, constraint1)):
            walk_ranks = 0
        found, chosen_rank = None, 1
        for rank in range(1, walk_ranks + 1):
            chords_r = chords if rank == 1 else continuation(rank)[0]
            trial = self.matrix.copy()
            trial.extend(chords_r)
            found = lead_agent.search_placement(
                lead.fragment, trial, config.style, n_agents, constraint1)
            if found is not None:
                chosen_rank, chords, self.matrix = rank, chords_r, trial
                break
        if found is None:
            self.matrix.extend(chords)
        if not isinstance(lead, Abstention):
            lead = lead.placed(found)
        self.chord_history.extend(chords)

        record1, voice1_notes = self._settle(lead_agent, lead, snapshot, block_start)
        agent_records = [record1]
        voice1_min = min((n.pitch for n in voice1_notes), default=None)
        voice1_max = max((n.pitch for n in voice1_notes), default=None)

        # agent 2 (lowest voice), then inner voices ascending; every voice
        # stays below the lead, and each inner voice above the ones before
        lower_anchor: int | None = None
        lowest_notes: tuple[Note, ...] = ()
        for agent in self.agents[1:]:
            lo, hi = config.agent_range(agent.agent_id)
            if voice1_min is not None:
                hi = min(hi, voice1_min)
            if agent.agent_id == 2:
                if voice1_max is not None:
                    lo = max(lo, voice1_max - span_limit)
            elif lower_anchor is not None:
                lo = max(lo, lower_anchor)
            proposal = agent.propose(theme, snapshot, theme_id, self.matrix,
                                     config.style, n_agents, RangeConstraint(lo, hi),
                                     config.explore_prob, self._phrase)
            record, notes = self._settle(agent, proposal, snapshot, block_start)
            agent_records.append(record)
            if notes:
                top = max(n.pitch for n in notes)
                lower_anchor = top if lower_anchor is None else max(lower_anchor, top)
            if agent.agent_id == 2:
                lowest_notes = notes

        # percussion doubles the lowest committed line
        percussion_hits = []
        for lane, onset, velocity in generate_percussion(
                [n.onset for n in lowest_notes], config.style, self.percussion_rng):
            self.percussion_track.add(ScoreNote(
                GM_NOTES[lane], block_start + onset, PERCUSSION_HIT_TICKS, velocity))
            percussion_hits.append([lane, onset])

        record = {
            "cycle": self.cycle_index,
            "t_ms": self.time_ms,
            "theme_id": theme_id,
            "leader": leader,
            "chord_rank": chosen_rank,
            "chords": [str(chord) for chord in chords],
            "confidence_harmony": round(harmony_confidence, 6),
            "confidence_melody": round(melody_confidence, 6),
            "span_limit": span_limit,
            "agents": agent_records,
            "percussion": percussion_hits,
        }
        self.cycle_log.append(record)
        self.cycle_index += 1
        return record

    def _settle(self, agent: MelodyAgent, outcome: Proposal | Abstention,
                snapshot: AffectSnapshot, block_start: int) -> tuple[dict, tuple[Note, ...]]:
        """End an agent's turn; returns its log record and the notes it
        placed.  A placed proposal is committed: it is realized once, and
        that phrase is consumed from the matrix, written to the agent's
        track and rewarded (clamped).  A failed action is reinforced with
        zero reward; a gate abstention leaves the population untouched."""
        if isinstance(outcome, Abstention):
            if outcome.reason != "gate":
                agent.population.update(outcome.action_set, 0.0)
            return {
                "agent": agent.agent_id,
                "abstained": True,
                "reason": outcome.reason,
                "operator": OPERATOR_NAMES[outcome.operator],
                "estimated_reward": round(outcome.estimated_reward, 6),
            }, ()
        config = self.config
        realized = placed_fragment(outcome.fragment, outcome.transposition, outcome.time_shift)
        self.matrix.consume(outcome.fragment, outcome.transposition, outcome.time_shift)
        track = self.melody_tracks[agent.agent_id - 1]
        for note in realized.notes:
            track.add(ScoreNote(note.pitch, block_start + note.onset,
                                note.duration, note.velocity))
        raw_reward, features = realize_reward(snapshot, realized, config.tempo_bpm)
        agent.population.update(outcome.action_set,
                                min(config.reward_max, max(0.0, raw_reward)))
        return {
            "agent": agent.agent_id,
            "abstained": False,
            "operator": OPERATOR_NAMES[outcome.operator],
            "estimated_reward": round(outcome.estimated_reward, 6),
            "reward": round(raw_reward, 6),
            "harmonic_fitness": round(outcome.harmonic_fitness, 6),
            "style_fit": round(outcome.style_fit, 6),
            "score": round(outcome.harmonic_fitness + outcome.style_fit, 6),
            "transposition": outcome.transposition,
            "shift": outcome.time_shift,
            "pitches": [n.pitch for n in realized.notes],
            "onsets": [n.onset for n in realized.notes],
            "notes_per_second": round(features.notes_per_second, 6),
            "mean_interval": round(features.mean_interval, 6),
        }, realized.notes

    def compose_block(self) -> dict:
        """Snapshot the graph and compose the next block."""
        snapshot = self.graph.affect_snapshot()
        dominant = self.graph.dominant_theme()
        if dominant is not None and dominant[0] in self.themes:
            theme_id = dominant[0]
        else:
            theme_id = self.config.default_theme
        return self.composition_cycle(snapshot, theme_id)

    # -- main loop ----------------------------------------------------------

    def run(self, duration_ms: int, message_feed=None, on_block=None) -> Score:
        """Run ticks and composition for duration_ms of engine time.

        message_feed(t_ms) is called before each tick; it returns the
        GameMessages due at or before t_ms.  A trace feed returns them at
        once; a live feed returns none and waits for wall time, so it paces
        the run.  Without a feed the run goes as fast as possible.  Feed
        messages are ingested early rather than overflow the queue, and then
        reach this tick's composition.  Composition happens one block ahead
        of playback.
        """
        block_ms = self.config.block_ms
        n_blocks = -(-duration_ms // block_ms)
        queue = self.queue
        graph = self.graph
        # only tick() advances the clock, so one read serves the iteration
        while (now := graph.clock) < duration_ms:
            if message_feed is not None:
                for msg in message_feed(now):
                    if len(queue) >= queue.capacity:
                        self.ingest()
                    queue.put(msg)
            # compose every block whose lead-in deadline has passed
            while (self.cycle_index < n_blocks
                   and (self.cycle_index - 1) * block_ms <= now):
                record = self.compose_block()
                if on_block is not None:
                    on_block(record)
            self.tick()
        return self.score()

    def score(self) -> Score:
        tracks = [t for t in self.melody_tracks]
        tracks.append(self.percussion_track)
        return Score(tempo_bpm=self.config.tempo_bpm, tracks=tracks)

    def score_log_lines(self) -> list[str]:
        """One JSON object per committed note, for the line-oriented score log."""
        rows = []
        for track in self.score().tracks:
            for note in track.notes:
                rows.append({
                    "t_ticks": note.onset,
                    "instrument": track.name,
                    "pitch": note.pitch,
                    "dur": note.duration,
                    "vel": note.velocity,
                })
        rows.sort(key=lambda r: (r["t_ticks"], r["instrument"], r["pitch"]))
        return [json.dumps(r, sort_keys=True) for r in rows]
