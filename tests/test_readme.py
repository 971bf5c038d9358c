"""README.md names the code it describes; each dotted name must still exist."""

import ast
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


def test_readme_names_every_cap():
    # a module-level *_CAP constant, or the residue table's byte budget, that
    # is added without its README line fails here
    text = README.read_text()
    names = ["lattice.RESIDUE_TABLE_BYTES"]
    for path in sorted((README.parent / "src" / "latharm").glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                names += [f"{path.stem}.{t.id}" for t in node.targets
                          if isinstance(t, ast.Name) and t.id.endswith("_CAP")]
    assert len(names) > 1
    missing = [name for name in names if f"`{name}`" not in text]
    assert not missing, f"README.md does not name these caps: {missing}"
