"""The README's command lines, run-configuration example and key table
match the code."""

import re
import shlex
from pathlib import Path

from cotn.cli import _KNOWN_KEYS, build_parser, load_run_config
from cotn.model import _parse

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| (\w+) \| (.+?) \|", re.MULTILINE)


def _table():
    return {(section, key): (kind, default.strip("`"))
            for section, key, kind, default in ROW.findall(README)}


def _defaults(tmp_path):
    """Each key's value when a run configuration gives only data.path."""
    path = tmp_path / "run.ini"
    path.write_text("[data]\npath = data.csv\n", encoding="utf-8")
    spec, model, train = load_run_config(str(path), [])
    mode = model.activation
    sources = {"data": vars(spec), "train": vars(train),
               "model": {**vars(model), **vars(mode), "activation": mode.kind}}
    return {(s, k): sources[s][k] for s, keys in _KNOWN_KEYS.items() for k in keys}


def test_ini_example_loads(tmp_path):
    example = re.search(r"```ini\n(.*?)```", README, re.DOTALL)
    assert example is not None
    path = tmp_path / "run.ini"
    path.write_text(example.group(1), encoding="utf-8")
    _, model, train = load_run_config(str(path), [])
    assert model.activation.kind == "gated"
    assert train.anomaly_weighting is True


def test_table_names_every_key_with_its_type():
    table = _table()
    assert set(table) == {(s, k) for s, keys in _KNOWN_KEYS.items() for k in keys}
    for (section, key), (kind, _) in table.items():
        assert kind == _KNOWN_KEYS[section][key], f"{section}.{key}"


def test_table_defaults_are_the_codes(tmp_path):
    table = _table()
    assert table[("data", "path")][1] == "required"
    for name, value in _defaults(tmp_path).items():
        if name == ("data", "path"):
            continue
        kind, default = table[name]
        assert _parse(kind, default) == value, f"{name}: {default} != {value!r}"


def test_command_examples_parse():
    # Parsed, not run: a flag the command line no longer takes cannot
    # linger in the examples, and every subcommand has one.
    parser = build_parser()
    blocks = re.findall(r"```sh\n(.*?)```", README, re.DOTALL)
    lines = [line for block in blocks for line in block.splitlines()
             if line.startswith("cotn ")]
    commands = set()
    for line in lines:
        try:
            commands.add(parser.parse_args(shlex.split(line)[1:]).command)
        except SystemExit:
            raise AssertionError(f"README example does not parse: {line}") from None
    assert commands == {"bifurcate", "table", "train", "eval", "forecast",
                        "sweep-types", "anomaly"}
