"""The README's examples run as written: every ``quantlab`` line of its
"Command line" block, in order, and its "Library quick start" block.  And
every package name it cites exists."""

import importlib
import re
import shlex
from pathlib import Path

import numpy as np

import quantlab
from quantlab.blockquant import tensor_write
from quantlab.cli import main

README = (Path(__file__).resolve().parent.parent / "README.md").read_text()


def _block(section, lang):
    """The first ```lang fenced block under the README's ## section."""
    body = README.split(f"\n## {section}\n", 1)[1]
    return re.search(rf"```{lang}\n(.*?)```", body, re.S).group(1)


def test_readme_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # The quantize line reads w.fqt; its blocks of 4096 along axis 0 come
    # out as one short block per column of this small tensor.
    rng = np.random.default_rng(0)
    tensor_write(rng.standard_normal((64, 8)).astype(np.float32), "w.fqt")
    commands = [shlex.split(line) for line in _block("Command line", "sh").splitlines()
                if line.startswith("quantlab ")]
    assert commands
    for argv in commands:
        code = main(argv[1:])
        assert code == 0, (argv, capsys.readouterr().err)
    exec(_block("Library quick start", "python"), {})


MODULES = ("distributions", "codebook", "blockquant", "montecarlo", "cli", "errors")
# code16/v1 fields, which "File formats" names as JSON keys
FIELDS = {"format", "kind", "block_size", "values", "params"}


def _cited_names():
    """Each backticked Python name (a dotted name, or a call of one) in the
    README's prose that belongs to the package: its first part is
    ``quantlab`` or one of its modules, or it has an underscore."""
    prose = re.sub(r"```.*?```", "", README, flags=re.S)
    for span in re.findall(r"`([^`\n]+)`", prose):
        m = re.fullmatch(r"([A-Za-z_]\w*(?:\.\w+)*)(\(.*\))?", span)
        if m is None:
            continue
        name = m.group(1)
        first = name.split(".")[0]
        if first == "quantlab" or first in MODULES or ("_" in name and name not in FIELDS):
            yield name


def _resolve(name):
    """The object ``name`` cites: a module's attribute path, or a path from a
    public name of ``quantlab``."""
    parts = name.split(".")
    if parts[0] == "quantlab":
        parts = parts[1:]
    if parts and parts[0] in MODULES:
        obj, parts = importlib.import_module(f"quantlab.{parts[0]}"), parts[1:]
    elif parts and parts[0] not in quantlab.__all__:
        raise AttributeError(f"quantlab has no public name {parts[0]!r}")
    else:
        obj = quantlab
    for part in parts:
        obj = getattr(obj, part)
    return obj


def test_readme_names_resolve():
    names = sorted(set(_cited_names()))
    assert "fx_cdf" in names and "montecarlo.MAX_BLOCK_SIZE" in names
    missing = []
    for name in names:
        try:
            _resolve(name)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{name}: {exc}")
    assert not missing, missing
