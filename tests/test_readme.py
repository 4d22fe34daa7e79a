"""The README's library example runs as written."""

import re
from pathlib import Path

from weightsteg.dataset import synth_collection

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.S | re.M)
    assert len(blocks) == 1
    # the two model files the example opens
    synth_collection(tmp_path / "mc", n_zoos=1, n_models=2, n_params=10_000, seed=11)
    monkeypatch.chdir(tmp_path)
    exec(compile(blocks[0], str(README), "exec"), {})
