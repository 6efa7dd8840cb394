import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))


@pytest.fixture
def boyd_calls(monkeypatch):
    """The models of the calls that reach the Boyd iteration, in order."""
    from ltp import tempered

    calls = []
    original = tempered._boyd

    def counting(*args, **kwargs):
        calls.append(args[0].group.name)
        return original(*args, **kwargs)

    monkeypatch.setattr(tempered, "_boyd", counting)
    return calls
