"""The runtime depends on the Python standard library alone.

Importing every ``repro`` module in a fresh interpreter must load no
top-level package outside the standard library.  Site packages stay on
the path, so an optional ``try: import X`` fallback is caught when X
happens to be installed, not only when it is missing.
"""

import json
import subprocess
import sys
from pathlib import Path

import repro

_SCRIPT = """
import importlib, json, pkgutil, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import repro
names = [repro.__name__]
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
    names.append(info.name)
main = sys.modules["__main__"]
loaded = {
    name.partition(".")[0]
    for name, module in sys.modules.items()
    # multiprocessing registers __main__ again as __mp_main__
    if name not in before and module is not main
}
foreign = sorted(
    name for name in loaded
    if name != "repro" and name not in sys.stdlib_module_names
)
print(json.dumps({"modules": names, "foreign": foreign}))
"""


def test_every_repro_module_imports_with_the_stdlib_alone():
    src = Path(repro.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(src)],
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    result = json.loads(proc.stdout)
    assert "repro.core.fingerprint" in result["modules"]
    assert result["foreign"] == []
