"""The README's library example and shell commands run, and its entry
points exist."""

import re
import shlex
import shutil
from pathlib import Path

import ehdetect
from ehdetect.cli import main as cli_main

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_readme_python_blocks_run(monkeypatch, capsys):
    blocks = re.findall(r"```python\n(.*?)```", README, flags=re.S)
    assert blocks
    monkeypatch.chdir(ROOT)  # the examples use repo-relative scenario paths
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
    assert capsys.readouterr().out


# the tables a command writes into the directory its --out names
_OUT_TABLES = {
    "powermap": ("power_map.csv", "battery_psi.csv", "summary.csv"),
    "simulate": ("report.csv", "occupancy.csv"),
}


def test_readme_shell_commands_run(tmp_path, monkeypatch, capsys):
    section = README.split("## Command line", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section, flags=re.S).group(1)
    commands = [line.strip() for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("python -m ehdetect ")]
    assert [shlex.split(c)[3] for c in commands] == ["powermap", "sweep", "simulate",
                                                      "validate"]
    shutil.copytree(ROOT / "scenarios", tmp_path / "scenarios")
    monkeypatch.chdir(tmp_path)  # the commands use repo-relative paths
    for command in commands:
        argv = shlex.split(command)[3:]
        assert cli_main(argv) == 0, command
        if "--out" in argv:
            out = Path(argv[argv.index("--out") + 1])
            names = _OUT_TABLES.get(argv[0], ())
            written = [out / name for name in names] if names else [out]
            assert all(path.is_file() for path in written), command
    capsys.readouterr()


def test_readme_entry_points_exist():
    section = README.split("Key entry points:", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"`(\w+)`", section)
    assert names
    missing = [n for n in names if not hasattr(ehdetect, n)]
    assert missing == []
