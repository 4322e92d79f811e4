"""Property tests for the file readers on truncated and mutated files.

Each reader (FQT1, FQZ1, code16/v1) raises nothing but QuantLabError
subclasses, and ``quantlab quantize --code`` and ``quantlab dequantize`` on
such files exit 0 or 2, with one ``error:`` line on exit 2, never a
traceback.
"""

import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quantlab.blockquant as bq
import quantlab.codebook as qc
from quantlab.cli import main
from quantlab.errors import QuantLabError

FILES = ("t.fqt", "t.fqz", "c.json")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding one valid file of each format."""
    d = tmp_path_factory.mktemp("fuzz")
    w = np.random.default_rng(7).standard_normal((5, 6)).astype(np.float32)
    code = qc.nf4_code()
    bq.tensor_write(w, d / "t.fqt")
    bq.qtensor_write(bq.quantize(w, code, 4, axis=1), d / "t.fqz")
    qc.code_write(code, d / "c.json")
    return d


def byte_mutations(data):
    """A truncation, an overwrite or an insertion of a few bytes."""
    n = len(data)
    chunk = st.binary(min_size=1, max_size=8)
    return st.one_of(
        st.integers(0, n - 1).map(lambda k: data[:k]),
        st.tuples(st.integers(0, n - 1), chunk).map(
            lambda t: data[:t[0]] + t[1] + data[t[0] + len(t[1]):]),
        st.tuples(st.integers(0, n), chunk).map(
            lambda t: data[:t[0]] + t[1] + data[t[0]:]),
    )


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: (st.lists(inner, max_size=17)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=20)
_SIXTEEN_NUMBERS = st.lists(st.floats(-1.5, 1.5) | st.integers(-2, 2),
                            min_size=16, max_size=16).map(sorted)
_SPECIAL_TEXT = ["[" * 100000 + "]" * 100000, str(10**400), "-5", "0", "1e999"]


def code16_field_mutations(doc):
    """The code16/v1 document with one field's JSON text replaced."""
    text = st.one_of(st.sampled_from(_SPECIAL_TEXT),
                     (_JSON_VALUES | _SIXTEEN_NUMBERS).map(json.dumps))

    def build(field_and_text):
        field, value = field_and_text
        fields = {k: json.dumps(v) for k, v in doc.items()}
        fields[field] = value
        body = ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items())
        return ("{" + body + "}").encode()

    return st.tuples(st.sampled_from(sorted(doc) + ["values"] * 3), text).map(build)


def run_cli(*argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main([str(a) for a in argv])
    return code, err.getvalue()


@pytest.mark.parametrize("name", FILES)
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_files_give_format_errors(workdir, name, data):
    original = (workdir / name).read_bytes()
    mutations = byte_mutations(original)
    if name == "c.json":
        mutations |= code16_field_mutations(json.loads(original))
    bad = workdir / f"bad-{name}"
    bad.write_bytes(data.draw(mutations))

    reader = {"t.fqt": bq.tensor_read, "t.fqz": bq.qtensor_read,
              "c.json": qc.code_read}[name]
    with contextlib.suppress(QuantLabError):
        reader(bad)

    out = workdir / "out"
    if name == "t.fqt":
        code, err = run_cli("quantize", bad, out, "--code", workdir / "c.json")
    elif name == "t.fqz":
        code, err = run_cli("dequantize", bad, out)
    else:
        code, err = run_cli("quantize", workdir / "t.fqt", out, "--code", bad)
    assert code in (0, 2), err
    if code == 2:
        assert err.startswith("error:") and len(err.splitlines()) == 1, err
