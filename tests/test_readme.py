"""README examples run as written.

The ```python blocks run in order in one namespace, as a reader pasting
them into one session would.  The ```ini block is a complete config file;
it runs through `codedconv run` with its out_dir moved to a temporary
directory.
"""

import configparser
import re
from pathlib import Path

from codedconv.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language: str) -> list[str]:
    return re.findall(rf"^```{language}\n(.*?)^```$",
                      README.read_text(encoding="utf-8"),
                      flags=re.DOTALL | re.MULTILINE)


def test_python_examples_run_in_order():
    code = blocks("python")
    assert code
    namespace = {}
    for block in code:
        exec(compile(block, str(README), "exec"), namespace)


def test_config_example_runs(tmp_path, capsys):
    (text,) = blocks("ini")
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(text)
    out_dir = tmp_path / "results"
    parser["experiment"]["out_dir"] = str(out_dir)
    path = tmp_path / "example.cfg"
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    assert main(["run", str(path)]) == 0, capsys.readouterr().err
    kind = parser["experiment"]["kind"]
    assert sorted(p.name for p in out_dir.iterdir()) == [
        f"{kind}.csv", f"{kind}.manifest.txt"]
