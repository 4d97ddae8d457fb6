import sys

import pytest


@pytest.fixture
def rebind(monkeypatch):
    """rebind(fn, replacement) replaces fn wherever a loaded camrng module holds it.

    `from .x import fn` makes a second binding, so patching the one module
    misses callers that hold fn in another.  Bindings are found by
    identity, the way perfbench's tracer finds the functions it wraps,
    and monkeypatch restores each of them after the test.
    """

    def rebind(fn, replacement) -> None:
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] != "camrng":
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, replacement)

    return rebind
