"""The README's Library example runs against the current API."""

import re
from pathlib import Path

from dualvit import training

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_example_runs(tmp_path, monkeypatch):
    snippet = re.search(r"## Library\n\n```python\n(.*?)```",
                        README.read_text(encoding="utf-8"), re.S).group(1)
    train_toy = training.train_toy
    monkeypatch.setattr(training, "train_toy",
                        lambda *args, **kwargs: train_toy(*args, **{**kwargs, "steps": 2}))
    monkeypatch.chdir(tmp_path)
    exec(compile(snippet, str(README), "exec"), {})
    assert (tmp_path / "model.dvcp").is_file()
