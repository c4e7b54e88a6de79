"""The benchmark's traced run wraps rackcoop functions by name; a renamed or
deleted one would break only that run, so check every name here."""

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


class _Recorder:
    def __init__(self):
        self.wrapped = []

    def add(self, owner, attr, name, **options):
        self.wrapped.append((owner, attr))


def test_traced_names_exist(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers

    recorder = _Recorder()
    layers.register(recorder)
    assert len(set(recorder.wrapped)) == len(recorder.wrapped) == 31
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr in recorder.wrapped if not callable(getattr(owner, attr, None))]
    assert missing == []
