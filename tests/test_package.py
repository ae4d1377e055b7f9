"""The package's exports agree with its modules' own."""
import importlib

import rumorwalks as rw


def test_exports_are_their_modules_exports():
    for name in rw.__all__:
        if name == "__version__":
            continue
        module = importlib.import_module(getattr(rw, name).__module__)
        assert name in module.__all__, (name, module.__name__)
