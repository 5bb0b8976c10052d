import importlib
import pkgutil
import sys
from pathlib import Path

import sympy  # noqa: F401  (lcbench traces sympy.Poly.factor_list)

import lcivt

LCBENCH = Path(__file__).resolve().parents[1] / "lcbench"


def test_every_traced_name_is_bound(monkeypatch):
    # lcbench wraps lcivt functions by name; a renamed or removed one must
    # fail here, not only in a traced benchmark run
    for info in pkgutil.iter_modules(lcivt.__path__):
        importlib.import_module("lcivt." + info.name)
    monkeypatch.syspath_prepend(str(LCBENCH))
    tracing = importlib.import_module("tracing")
    targets = tracing.traced_targets()
    assert len(targets) == len(tracing._FUNCTIONS)
    for modname, attr, _counter in tracing._COUNTED:
        assert callable(getattr(sys.modules[modname], attr))
