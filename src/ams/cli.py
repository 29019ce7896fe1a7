"""Command line entry point.

Subcommands: serve (live OSC input, paced by wall time), replay
(deterministic trace playback, as fast as possible), train-chords, repl
(interactive console) and validate-config.  Exit codes: 0 success, 1 runtime
failure, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from dataclasses import replace

from .chord_model import (
    ChordError,
    ChordSequenceModel,
    STYLES,
    Token,
    ingest_corpus,
    perplexity,
    train,
)
from .conductor import ConductorError, Engine
from .config import ASSET_ROOT, ConfigError, EngineConfig, load_config, read_text
from .context_graph import GraphError
from .melody import MelodyError
from .osc_gateway import MESSAGE_TYPES, GameMessage, MessageType, OscServer
from .render import write_midi
from .themes import ThemeError, load_themes

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2

# the latest engine time a replay runs to, a trace event's included: one
# day, which replays in minutes, where an unbounded time runs until killed
MAX_ENGINE_MS = 86_400_000


class TraceError(ValueError):
    pass


# ---------------------------------------------------------------------------
# trace files: one JSON object per line, non-decreasing t_ms; each event
# obeys the OSC schema and has no key but t_ms, type and its type's fields


def parse_trace_line(obj: dict) -> GameMessage:
    kind = MESSAGE_TYPES.get(obj.get("type"))
    if kind is None:
        raise TraceError(f"unknown event type {obj.get('type')!r}")
    unknown = obj.keys() - {"t_ms", "type"} - {name for name, _, _ in kind.fields}
    if unknown:
        raise TraceError(f"unknown {kind.name} field {min(unknown)!r}")
    return kind.from_fields(obj)


def parse_trace(text: str, source: str = "<trace>") -> list[tuple[int, GameMessage]]:
    events: list[tuple[int, GameMessage]] = []
    last_t = 0
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            obj = json.loads(line)
            t_ms = obj["t_ms"]
            msg = parse_trace_line(obj)
        except (KeyError, ValueError, TypeError, OverflowError, RecursionError) as exc:
            raise TraceError(f"{source}:{lineno}: {exc}") from None
        # a JSON integer: `type` rather than isinstance, since JSON true loads
        # as a bool, which is an int
        if type(t_ms) is not int or not 0 <= t_ms <= MAX_ENGINE_MS:
            raise TraceError(f"{source}:{lineno}: t_ms must be an integer >= 0 "
                             f"and <= {MAX_ENGINE_MS}, got {t_ms!r}")
        if t_ms < last_t:
            raise TraceError(
                f"{source}:{lineno}: t_ms {t_ms} goes backwards (after {last_t})")
        last_t = t_ms
        events.append((t_ms, msg))
    if not events:
        raise TraceError(f"{source}: empty trace")
    return events


def trace_feed(events: list[tuple[int, GameMessage]]):
    """message_feed callable for Engine.run, consuming events in order."""
    index = 0

    def feed(t_ms: int) -> list[GameMessage]:
        nonlocal index
        due: list[GameMessage] = []
        while index < len(events) and events[index][0] <= t_ms:
            due.append(events[index][1])
            index += 1
        return due

    return feed


# ---------------------------------------------------------------------------
# engine bootstrap


def bundled_corpus() -> list[Token]:
    """The bundled chord corpora, one per style, as one token stream."""
    tokens: list[Token] = []
    for style in STYLES:
        path = ASSET_ROOT / "corpora" / f"{style}.chords"
        tokens.extend(ingest_corpus(path.read_text(), style))
    return tokens


def load_chord_model(config: EngineConfig) -> ChordSequenceModel:
    if config.chord_model is not None:
        return ChordSequenceModel.load(config.chord_model)
    return train(bundled_corpus(), order=config.chord_order)


def build_engine(config: EngineConfig) -> Engine:
    themes = load_themes(config.theme_path)
    if config.default_theme not in themes:
        raise ThemeError(f"default_theme {config.default_theme} is not in {config.theme_path}")
    model = load_chord_model(config)
    return Engine(config, themes, model)


def write_outputs(engine: Engine, args) -> None:
    if args.out:
        write_midi(engine.score(), args.out)
    if getattr(args, "cycle_log", None):
        with open(args.cycle_log, "w") as fh:
            for record in engine.cycle_log:
                fh.write(json.dumps(record, sort_keys=True) + "\n")
    if getattr(args, "score_log", None):
        with open(args.score_log, "w") as fh:
            for line in engine.score_log_lines():
                fh.write(line + "\n")


# ---------------------------------------------------------------------------
# subcommands


def cmd_serve(args) -> int:
    config = load_config(args.config) if args.config else EngineConfig()
    if args.port is not None:
        config = replace(config, osc_port=args.port)  # validated like the config key
    engine = build_engine(config)
    server = OscServer(engine.queue, port=config.osc_port, host=config.osc_host)
    server.start()
    print(f"listening on udp {config.osc_host}:{server.port}", flush=True)
    start = time.monotonic()

    def wait(t_ms: int) -> list[GameMessage]:
        # live messages reach the queue from the OSC thread; this feed only
        # holds the tick at t_ms back until that much wall time has passed
        delay = start + t_ms / 1000.0 - time.monotonic()
        if delay > 0:
            time.sleep(delay)
        return []

    try:
        engine.run(int(args.duration_s * 1000), message_feed=wait,
                   on_block=lambda rec: print(
                       f"cycle {rec['cycle']}: leader={rec['leader']} "
                       f"chords={' '.join(rec['chords'])}", flush=True))
    except KeyboardInterrupt:
        pass
    finally:
        server.close()
    write_outputs(engine, args)
    return EXIT_OK


def cmd_replay(args) -> int:
    config = load_config(args.config) if args.config else EngineConfig()
    if args.seed is not None:
        config.seed = args.seed
    engine = build_engine(config)
    events = parse_trace(read_text(args.trace, TraceError), str(args.trace))
    duration = args.duration_ms or events[-1][0] + int(2 * engine.block_ms)
    engine.run(duration, message_feed=trace_feed(events))
    write_outputs(engine, args)
    print(f"replayed {len(events)} events over {duration} ms: "
          f"{engine.cycle_index} cycles, "
          f"{sum(len(t.notes) for t in engine.score().tracks)} notes")
    return EXIT_OK


def cmd_train_chords(args) -> int:
    if args.corpus:
        tokens = []
        for spec in args.corpus:
            style, sep, path = spec.partition(":")
            if not sep or style not in STYLES:
                raise ChordError(
                    f"corpus must be style:path with style in {STYLES}, got {spec!r}")
            tokens.extend(ingest_corpus(read_text(path, ChordError), style))
    else:
        tokens = bundled_corpus()
    model = train(tokens, order=args.order)
    model.save(args.out)
    held_out = perplexity(model, tokens)
    print(f"trained order-{args.order} model on {len(tokens)} tokens, "
          f"{len(model.chord_vocabulary)} chords, "
          f"training perplexity {held_out:.3f}")
    return EXIT_OK


def cmd_validate_config(args) -> int:
    try:
        config = load_config(args.config)
    except ConfigError as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(f"ok: style={config.style} tempo={config.tempo_bpm} "
          f"agents={config.melody_agents} seed={config.seed}")
    return EXIT_OK


def _repl_fields(kind: MessageType) -> list[tuple[str, str, object]]:
    """REPL argument order: the required fields, then the defaulted ones."""
    return sorted(kind.fields, key=lambda f: f[0] in kind.defaults)


def repl_message(kind: MessageType, words: list[str]) -> GameMessage:
    """Build a message from REPL words; a field OSC sends as a float is parsed as one."""
    fields = _repl_fields(kind)
    if len(words) > len(fields):
        raise ValueError(f"{kind.name} takes at most {len(fields)} arguments")
    return kind.from_fields({name: float(word) if tag == "f" else word
                             for (name, tag, _), word in zip(fields, words)})


REPL_HELP = "game messages, with the values OSC accepts ([field] may be omitted):\n" + "".join(
    "  " + " ".join([kind.name] + [f"[{name}]" if name in kind.defaults else f"<{name}>"
                                   for name, _, _ in _repl_fields(kind)]) + "\n"
    for kind in MESSAGE_TYPES.values()) + """commands:
  tick [n]                         advance n engine ticks (default 1)
  compose                          compose the next two-measure block
  graph                            dump the context graph
  save <path.mid>                  write the score so far
  quit                             exit
"""


def cmd_repl(args) -> int:
    config = load_config(args.config) if args.config else EngineConfig()
    engine = build_engine(config)
    print(REPL_HELP, end="", flush=True)
    while True:
        try:
            line = input("ams> ")
        except EOFError:
            break
        words = line.split()
        if not words:
            continue
        cmd = words[0].lower()
        try:
            if cmd in ("quit", "exit"):
                break
            elif cmd == "help":
                print(REPL_HELP, end="")
            elif cmd in MESSAGE_TYPES:
                engine.queue.put(repl_message(MESSAGE_TYPES[cmd], words[1:]))
                engine.ingest()
            elif cmd == "tick":
                n = int(words[1]) if len(words) > 1 else 1
                for _ in range(n):
                    engine.tick()
                print(f"t={engine.time_ms} ms")
            elif cmd == "compose":
                record = engine.compose_block()
                print(json.dumps(record, indent=2, sort_keys=True))
            elif cmd == "graph":
                print(engine.graph.dump())
            elif cmd == "save" and len(words) == 2:
                write_midi(engine.score(), words[1])
                print(f"wrote {words[1]}")
            else:
                print(f"unrecognized: {line!r} (try 'help')")
        except (ValueError, GraphError, ConductorError, OSError) as exc:
            print(f"error: {exc}")
    return EXIT_OK


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ams", description="adaptive music system")
    sub = parser.add_subparsers(dest="command", required=True)

    # checked at parse time, before any file is read or socket opened
    def seconds(value: str) -> float:
        if not 0.0 <= float(value) < math.inf:
            raise argparse.ArgumentTypeError(f"duration must be finite and >= 0, got {value}")
        return float(value)

    def milliseconds(value: str) -> int:
        if not 1 <= int(value) <= MAX_ENGINE_MS:
            raise argparse.ArgumentTypeError(
                f"duration must be >= 1 and <= {MAX_ENGINE_MS} ms, got {value}")
        return int(value)

    def order(value: str) -> int:
        if int(value) < 1:
            raise argparse.ArgumentTypeError(f"order must be >= 1, got {value}")
        return int(value)

    p = sub.add_parser("serve", help="run live with an OSC listener")
    p.add_argument("--config", help="config file path")
    p.add_argument("--port", type=int, help="override the OSC UDP port")
    p.add_argument("--duration-s", type=seconds, default=60.0)
    p.add_argument("--out", help="write the final score as a MIDI file")
    p.add_argument("--cycle-log", help="write per-cycle JSON lines")
    p.add_argument("--score-log", help="write per-note JSON lines")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("replay", help="deterministically replay a trace file")
    p.add_argument("trace", help="JSONL trace of game events")
    p.add_argument("--config", help="config file path")
    p.add_argument("--seed", type=int, help="override the engine seed")
    p.add_argument("--duration-ms", type=milliseconds,
                   help="engine time to simulate (default: trace end + 2 blocks)")
    p.add_argument("--out", help="write the final score as a MIDI file")
    p.add_argument("--cycle-log", help="write per-cycle JSON lines")
    p.add_argument("--score-log", help="write per-note JSON lines")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("train-chords", help="train the next-chord model")
    p.add_argument("corpus", nargs="*",
                   help="style:path chord chart files (default: bundled corpora)")
    p.add_argument("--order", type=order, default=3)
    p.add_argument("--out", required=True, help="model output path")
    p.set_defaults(func=cmd_train_chords)

    p = sub.add_parser("repl", help="interactive console")
    p.add_argument("--config", help="config file path")
    p.set_defaults(func=cmd_repl)

    p = sub.add_parser("validate-config", help="check a config file")
    p.add_argument("config", help="config file path")
    p.set_defaults(func=cmd_validate_config)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (TraceError, ChordError, ThemeError, MelodyError,
            ConductorError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
