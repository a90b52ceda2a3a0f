"""Damaged input files end in a named refusal, never in a traceback.

Five readers are fuzzed: the tensor container, checkpoint.bin,
autoencoder.bin with the data record cotn anomaly reads from it, the
data CSV and the run configuration. Each gets random bytes, truncations,
flipped bytes, deleted lines and edited or overlong fields of a file the
package writes; the two model files also get whole entries edited or
deleted in a container that stays valid. A reader may load the result
or raise ParseError, ConfigError, ValueError or OSError, which main()
turns into exit 1 or 2. Whatever a reader refuses also goes through
main() in a few cases, which must exit 1 or 2 with a message naming the
file.
"""

import io
import os
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cotn import tensor as te
from cotn.cli import ConfigError, _restore_autoencoder, load_run_config, main
from cotn.data import ParseError, load_csv
from cotn.model import load_forecaster
from cotn.training import write_synthetic_ett_csv

REFUSALS = (ParseError, ConfigError, ValueError, OSError)

FUZZ = settings(max_examples=60, deadline=None,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# Values an edited field takes: integers up to 10**15, floats with their
# specials, and short printable text.
FIELD = st.one_of(
    st.integers(-10 ** 15, 10 ** 15).map(str),
    st.floats().map(repr),
    st.text(st.characters(min_codepoint=32, max_codepoint=126), max_size=12),
)


@pytest.fixture(scope="module")
def run_dir(tmp_path_factory):
    """One gated training run: checkpoint.bin, autoencoder.bin, its data
    file and its config."""
    root = tmp_path_factory.mktemp("fuzz")
    csv = root / "synth.csv"
    write_synthetic_ett_csv(csv, seed=5, length=200)
    cfg = root / "run.ini"
    cfg.write_text(
        f"[data]\npath = {csv}\nenc_len = 16\nlabel_len = 8\nhorizon = 4\n\n"
        "[model]\nd_model = 8\nn_heads = 2\nn_enc_layers = 2\nn_dec_layers = 1\n"
        "d_ff = 16\nactivation = gated\ntype_id = 2\nlam = 0.5\n\n"
        "[train]\nepochs = 1\nseed = 1\nae_epochs = 1\n")
    out = root / "out"
    assert _main("train", "--config", str(cfg), "--out", str(out))[0] == 0
    return {"checkpoint": out / "checkpoint.bin", "ae": out / "autoencoder.bin",
            "csv": csv, "cfg": cfg}


def _main(*argv):
    """(exit code, stderr) of one in-process command; stdout is dropped."""
    out, err = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = io.StringIO(), io.StringIO()
    try:
        try:
            code = main(list(argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
        return code, sys.stderr.getvalue()
    finally:
        sys.stdout, sys.stderr = out, err


# A quoted field longer than the csv module's field size limit.
LONG_FIELD = b'"' + b"7" * 200_000 + b'"'


@st.composite
def damaged(draw, original: bytes) -> bytes:
    """original with one kind of damage: replaced by random bytes, cut
    short, up to four bytes flipped, a line deleted, or a field edited
    or replaced by LONG_FIELD."""
    kind = draw(st.sampled_from(["random", "cut", "flip", "drop_line", "edit_field",
                                 "long_field"]))
    if kind == "random":
        return draw(st.binary(max_size=300))
    if kind == "cut":
        return original[:draw(st.integers(0, len(original) - 1))]
    if kind == "flip":
        out = bytearray(original)
        for pos, bits in draw(st.lists(st.tuples(st.integers(0, len(out) - 1),
                                                 st.integers(1, 255)),
                                       min_size=1, max_size=4)):
            out[pos] ^= bits
        return bytes(out)
    # A tensor container's payload follows END; only its manifest has lines.
    end = original.find(b"\nEND\n")
    head, tail = (original, b"") if end < 0 else (original[:end], original[end:])
    lines = head.split(b"\n")
    i = draw(st.integers(0, len(lines) - 1))
    if kind == "drop_line":
        del lines[i]
    else:
        sep = b"=" if b"=" in lines[i] else b"," if b"," in lines[i] else b" "
        fields = lines[i].split(sep)
        j = draw(st.integers(0, len(fields) - 1))
        fields[j] = LONG_FIELD if kind == "long_field" else draw(FIELD).encode("ascii")
        lines[i] = sep.join(fields)
    return b"\n".join(lines) + tail


@st.composite
def entries_edited(draw, path) -> bytes:
    """The model file at path re-saved with up to three meta entries
    edited, up to two tensors deleted and one value of a statistics
    tensor replaced, in a container whose manifest and digest stay valid."""
    tensors, meta = te.load_tensors(path)
    meta.update(draw(st.dictionaries(st.sampled_from(sorted(meta)), FIELD, max_size=3)))
    for name in draw(st.lists(st.sampled_from(sorted(tensors)), max_size=2)):
        tensors.pop(name, None)
    stats = sorted(k for k in tensors if k.startswith("x.norm."))
    if stats and draw(st.booleans()):
        values = tensors[draw(st.sampled_from(stats))]
        values[draw(st.integers(0, values.size - 1))] = draw(st.floats())
    with tempfile.TemporaryDirectory() as root:
        te.save_tensors(os.path.join(root, "edited.bin"), tensors, meta)
        with open(os.path.join(root, "edited.bin"), "rb") as fh:
            return fh.read()


def _loads_or_refuses(reader, path, data: bytes):
    """Write data to path and read it; None when the reader refuses it."""
    path.write_bytes(data)
    try:
        return reader(path)
    except REFUSALS:
        return None


class TestReaders:
    @FUZZ
    @given(data=st.data())
    def test_tensor_container(self, run_dir, tmp_path, data):
        original = run_dir["checkpoint"].read_bytes()
        _loads_or_refuses(te.load_tensors, tmp_path / "c.bin", data.draw(damaged(original)))

    @FUZZ
    @given(data=st.data())
    def test_checkpoint(self, run_dir, tmp_path, data):
        original = run_dir["checkpoint"].read_bytes()
        _loads_or_refuses(load_forecaster, tmp_path / "c.bin", data.draw(damaged(original)))

    @FUZZ
    @given(data=st.data())
    def test_checkpoint_entries_edited(self, run_dir, tmp_path, data):
        _loads_or_refuses(load_forecaster, tmp_path / "c.bin",
                          data.draw(entries_edited(run_dir["checkpoint"])))

    @FUZZ
    @given(data=st.data())
    def test_autoencoder_entries_edited(self, run_dir, tmp_path, data):
        # Also the data record: norm.* and data.* entries and the
        # x.norm.mean and x.norm.std tensors.
        _loads_or_refuses(_restore_autoencoder, tmp_path / "a.bin",
                          data.draw(entries_edited(run_dir["ae"])))

    @FUZZ
    @given(data=st.data())
    def test_csv(self, run_dir, tmp_path, data):
        original = run_dir["csv"].read_bytes()
        _loads_or_refuses(lambda p: load_csv(p, "ett"), tmp_path / "d.csv",
                          data.draw(damaged(original)))

    @FUZZ
    @given(data=st.data())
    def test_run_config(self, run_dir, tmp_path, data):
        original = run_dir["cfg"].read_bytes()
        _loads_or_refuses(lambda p: load_run_config(str(p), []), tmp_path / "r.ini",
                          data.draw(damaged(original)))

    @FUZZ
    @given(overrides=st.lists(FIELD, max_size=3))
    def test_run_config_overrides(self, run_dir, overrides):
        try:
            load_run_config(str(run_dir["cfg"]), overrides)
        except ConfigError:
            pass


class TestThroughMain:
    """What a reader refuses exits 1 or 2 with the reader's message."""

    MAIN = settings(FUZZ, max_examples=15)

    @staticmethod
    def _refused_exits_naming(reader, path, data: bytes, *argv) -> None:
        if _loads_or_refuses(reader, path, data) is not None:
            return
        code, err = _main(*argv)
        assert code in (1, 2)
        assert err.startswith("error: ") and str(path) in err, err

    @MAIN
    @given(data=st.data())
    def test_eval_checkpoint(self, run_dir, tmp_path, data):
        path = tmp_path / "c.bin"
        self._refused_exits_naming(
            load_forecaster, path, data.draw(damaged(run_dir["checkpoint"].read_bytes())),
            "eval", "--checkpoint", str(path), "--data", str(run_dir["csv"]))

    @MAIN
    @given(data=st.data())
    def test_eval_data(self, run_dir, tmp_path, data):
        path = tmp_path / "d.csv"
        self._refused_exits_naming(
            lambda p: load_csv(p, "ett"), path, data.draw(damaged(run_dir["csv"].read_bytes())),
            "eval", "--checkpoint", str(run_dir["checkpoint"]), "--data", str(path))

    @MAIN
    @given(data=st.data())
    def test_anomaly_autoencoder(self, run_dir, tmp_path, data):
        path = tmp_path / "a.bin"
        damage = st.one_of(damaged(run_dir["ae"].read_bytes()), entries_edited(run_dir["ae"]))
        self._refused_exits_naming(
            _restore_autoencoder, path, data.draw(damage),
            "anomaly", "--ae", str(path), "--data", str(run_dir["csv"]),
            "--out", str(tmp_path))

    @MAIN
    @given(data=st.data())
    def test_train_config(self, run_dir, tmp_path, data):
        # A config error names section.key, or the file when the INI
        # syntax is broken; main() prints the reader's message.
        path = tmp_path / "r.ini"
        path.write_bytes(data.draw(damaged(run_dir["cfg"].read_bytes())))
        try:
            load_run_config(str(path), [])
        except REFUSALS as exc:
            code, err = _main("train", "--config", str(path), "--out", str(tmp_path))
            assert code == (2 if isinstance(exc, ConfigError) else 1)
            assert err == f"error: {exc}\n"
