import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def boyd_calls(monkeypatch):
    """The model of each f that reaches the Boyd iteration, in order."""
    from ltp import tempered

    calls = []
    original = tempered._boyd_norms

    def counting(fs, *args, **kwargs):
        calls.extend(f.group.name for f in fs)
        return original(fs, *args, **kwargs)

    monkeypatch.setattr(tempered, "_boyd_norms", counting)
    return calls
