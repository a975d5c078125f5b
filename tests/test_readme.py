"""The README's library example runs as written."""

import re
from pathlib import Path

from conftest import EDGE_FIXTURE

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.match(r"\s*```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    (tmp_path / "edges.csv").write_text(EDGE_FIXTURE, encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    assert namespace["results"][namespace["registry"].get("A")].d_value >= 0.0
