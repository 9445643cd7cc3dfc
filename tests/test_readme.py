"""The Python examples in README.md run against the package as it is."""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

from prestigesim import cli

ROOT = Path(__file__).resolve().parents[1]


def test_readme_python_blocks_run(tmp_path):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    assert blocks, "README.md has no ```python block"
    # one fresh interpreter runs the blocks in order, as a reader would paste them
    path = os.pathsep.join(p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", "\n".join(blocks)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def test_readme_shell_examples_run(tmp_path, monkeypatch):
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.DOTALL | re.MULTILINE)
    commands = [shlex.split(line) for block in blocks for line in block.splitlines()
                if line.startswith("prestigesim ")]
    # `run --all`, `check` and `step` are slow or need a snapshot file;
    # tests/test_cli.py covers them
    runnable = [argv[1:] for argv in commands
                if argv[1] == "list" or (argv[1] == "run" and "--all" not in argv)]
    assert len(runnable) >= 4, commands
    monkeypatch.chdir(tmp_path)
    for argv in runnable:
        if argv[0] == "run":
            if "--out" in argv:
                del argv[argv.index("--out"):argv.index("--out") + 2]
            argv += ["--out", str(tmp_path)]
        assert cli.main(argv) == 0, argv
