"""README against the code: the interface is read from the code, README
must name each part of it, and its Usage section must name nothing else."""

import argparse
import re
from pathlib import Path

import ams
from ams import cli
from ams.chord_model import STYLES
from ams.config import _KEYS, _SECTIONS, parse_config_text
from ams.osc_gateway import MESSAGE_TYPES

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")

# the config keys that stand for a family, one key per style or agent
FAMILIES = {"style.range_factor.<style>", "melody.range.N"}
# a backticked span that starts with a dotted name: `engine.seed`,
# `melody.range.N = lo:hi`
DOTTED = re.compile(r"`([a-z]+(?:\.[\w<>]+)+)")
FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
ADDRESS = re.compile(r"(?<!\w)/ams/\w+")


def section(title: str) -> str:
    """README's text under the heading `title`, up to the next heading of
    the same or a higher level; `#` lines in code blocks are not headings."""
    lines, level, fenced = [], None, False
    for line in README.splitlines():
        if line.startswith("```"):
            fenced = not fenced
        heading = None if fenced else re.match(r"(#+) (.*)", line)
        if heading and level is not None and len(heading[1]) <= level:
            break
        if level is not None:
            lines.append(line)
        elif heading and heading[2] == title:
            level = len(heading[1])
    assert level is not None, f"README has no section {title!r}"
    return "\n".join(lines)


USAGE = section("Usage")


def test_readme_names_every_config_key_and_no_other():
    """Extra keys are looked for in Usage only: a bench metric named
    elsewhere, such as `graph.tick_us_p50`, shares a section's prefix but
    is not a key."""
    prefixes = set(_SECTIONS) | {family.split(".")[0] for family in FAMILIES}

    def named(text):
        return {key for key in DOTTED.findall(text) if key.split(".")[0] in prefixes}

    keys = set(_KEYS) | FAMILIES
    missing, extra = keys - named(README), named(USAGE) - keys
    assert not missing, f"README omits config keys {sorted(missing)}"
    assert not extra, f"README names config keys the code lacks: {sorted(extra)}"


def test_key_families_are_config_keys():
    for style in STYLES:
        config = parse_config_text(f"style.range_factor.{style} = 1.5")
        assert config.range_factors[style] == 1.5
    assert parse_config_text("melody.range.4 = 40:80").agent_range(4) == (40, 80)


def test_readme_names_every_osc_address_with_its_type_tags():
    schema = {kind.address: [f"<{name}:{tag}>" for name, tag, _ in kind.fields]
              for kind in MESSAGE_TYPES.values()}
    assert set(ADDRESS.findall(README)) >= set(schema) >= set(ADDRESS.findall(USAGE))
    signatures = {address: args.split() for address, args
                  in re.findall(r"`(/ams/\w+)((?: <\w+:\w>)+)`", USAGE)}
    assert signatures == schema


def parser_flags() -> dict[str, set[str]]:
    """Subcommand -> its long options, as `cli.build_parser()` declares them."""
    subparsers = next(action for action in cli.build_parser()._actions
                      if isinstance(action, argparse._SubParsersAction))
    return {name: {option for action in parser._actions
                   for option in action.option_strings if option.startswith("--")} - {"--help"}
            for name, parser in subparsers.choices.items()}


def test_readme_names_every_subcommand_and_flag():
    """Each subcommand's example lines in the Usage code blocks together
    name all of its flags and no other; a flag named anywhere in Usage is
    some subcommand's."""
    examples: dict[str, set[str]] = {}
    for block in re.findall(r"^```sh\n(.*?)^```", USAGE, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            words = line.split()
            if words[:1] == ["ams"]:
                examples.setdefault(words[1], set()).update(FLAG.findall(line))
    flags = parser_flags()
    assert examples == flags
    assert set(FLAG.findall(USAGE)) <= set().union(*flags.values())


def test_readme_names_the_exit_codes():
    codes = {value for name, value in vars(cli).items() if name.startswith("EXIT_")}
    paragraph = re.search(r"^Exit codes:(.*?)\n\n", USAGE, re.M | re.S)[1]
    assert {int(code) for code in re.findall(r"`(\d+)`", paragraph)} == codes


def test_readme_architecture_lists_every_module():
    modules = {path.stem for path in Path(ams.__file__).parent.glob("*.py")} - {"__init__"}
    assert set(re.findall(r"^\| `(\w+)` \|", section("Architecture"), re.M)) == modules
