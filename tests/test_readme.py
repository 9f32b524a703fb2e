"""The README's Library example runs as written against the d1 fixture."""

from __future__ import annotations

import re
from pathlib import Path

from conftest import make_d1
from lqplan.model import serialize_dictionary

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    [block] = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    (tmp_path / "d1.json").write_bytes(serialize_dictionary(make_d1()))
    monkeypatch.chdir(tmp_path)
    exec(compile(block, str(README), "exec"), {})
