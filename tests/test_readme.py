"""The README's run-configuration example and key table match the code."""

import re
from pathlib import Path

from cotn.cli import (
    _KNOWN_KEYS,
    _build_activation,
    _build_data_spec,
    _build_model_cfg,
    _build_train_cfg,
    load_run_config,
)
from cotn.model import _parse

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
ROW = re.compile(r"^\| `(\w+)\.(\w+)` \| (\w+) \| (.+?) \|", re.MULTILINE)


def _table():
    return {(section, key): (kind, default.strip("`"))
            for section, key, kind, default in ROW.findall(README)}


def _defaults():
    """Each key's value when a run configuration gives only data.path."""
    cfg = {"data": {"path": "data.csv"}, "model": {}, "train": {}}
    spec = _build_data_spec(cfg)
    mode = _build_activation(cfg)
    model = _build_model_cfg(cfg, spec, n_features=1)
    train = _build_train_cfg(cfg, mode, None)
    sources = {"data": vars(spec), "train": vars(train),
               "model": {**vars(model), **vars(mode), "activation": mode.kind}}
    return {(s, k): sources[s][k] for s, keys in _KNOWN_KEYS.items() for k in keys}


def test_ini_example_loads(tmp_path):
    example = re.search(r"```ini\n(.*?)```", README, re.DOTALL)
    assert example is not None
    path = tmp_path / "run.ini"
    path.write_text(example.group(1), encoding="utf-8")
    cfg = load_run_config(str(path), [])
    assert cfg["model"]["activation"] == "gated"
    assert cfg["train"]["anomaly_weighting"] is True


def test_table_names_every_key_with_its_type():
    table = _table()
    assert set(table) == {(s, k) for s, keys in _KNOWN_KEYS.items() for k in keys}
    for (section, key), (kind, _) in table.items():
        assert kind == _KNOWN_KEYS[section][key], f"{section}.{key}"


def test_table_defaults_are_the_codes():
    table = _table()
    assert table[("data", "path")][1] == "required"
    for name, value in _defaults().items():
        if name == ("data", "path"):
            continue
        kind, default = table[name]
        assert _parse(kind, default) == value, f"{name}: {default} != {value!r}"
