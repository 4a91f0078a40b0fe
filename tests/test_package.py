import importlib
import json
import subprocess
import sys

import pytest

import reiterate


def test_import_loads_no_numpy_until_a_name_is_used():
    script = ("import json, sys, reiterate\n"
              "loaded = sorted(m for m in sys.modules\n"
              "                if m.split('.')[0] in ('numpy', 'reiterate'))\n"
              "print(json.dumps([loaded, reiterate.grid.Grid is reiterate.Grid]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [["reiterate"], True]


@pytest.mark.parametrize("name", [n for n in reiterate.__all__ if n != "__version__"])
def test_public_name_is_its_module_object(name):
    value = getattr(reiterate, name)
    assert value.__module__.startswith("reiterate.")
    assert getattr(importlib.import_module(value.__module__), name) is value


def test_version_and_dir_list_every_public_name():
    assert reiterate.__version__ == "0.1.0"
    assert set(reiterate.__all__) <= set(dir(reiterate))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        reiterate.no_such_name
    with pytest.raises(ImportError):
        from reiterate import no_such_name  # noqa: F401
