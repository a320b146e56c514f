"""The README's library example runs and its entry points exist."""

import re
from pathlib import Path

import ehdetect

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks
    monkeypatch.chdir(ROOT)  # the examples use repo-relative scenario paths
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


def test_readme_entry_points_exist():
    section = README.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", section)
    assert names
    missing = [n for n in names if not hasattr(ehdetect, n)]
    assert missing == []
