"""README.md names the code it describes; each dotted name must still exist."""

import importlib
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"
MODULES = ("lattice", "oscsum", "modular", "poly", "exppairs", "cli")
NAME = re.compile(rf"`((?:{'|'.join(MODULES)})(?:\.[A-Za-z_]\w*)+)`")


def test_readme_dotted_names_resolve():
    names = sorted(set(NAME.findall(README.read_text())))
    assert names  # the pattern still finds the README's references
    missing = []
    for name in names:
        module, *attrs = name.split(".")
        obj = importlib.import_module(f"latharm.{module}")
        for attr in attrs:
            obj = getattr(obj, attr, None)
        if obj is None:
            missing.append(name)
    assert not missing, f"README.md names code that does not exist: {missing}"
