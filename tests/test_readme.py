"""The README's examples run as written: every ``quantlab`` line of its
"Command line" block, in order, and its "Library quick start" block."""

import re
import shlex
from pathlib import Path

import numpy as np

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
