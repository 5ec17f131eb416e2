"""The package surface: every exported name, loaded on first use."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pdsemcom


def _loaded_by(script: str, *args: str) -> list:
    """The pdsemcom modules a fresh interpreter has loaded after `script`
    (this process has loaded the whole pipeline)."""
    script += ("print(' '.join(sorted(m for m in sys.modules\n"
               "                      if m.split('.')[0] == 'pdsemcom')))\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script, *args],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_building_a_config_loads_only_config_and_errors(tmp_path):
    assert _loaded_by("import sys\n"
                      "import pdsemcom\n"
                      "pdsemcom.ExperimentConfig(out=sys.argv[1])\n",
                      str(tmp_path / "r.csv")) == [
        "pdsemcom", "pdsemcom.config", "pdsemcom.errors"]


def test_a_submodule_loads_on_first_use():
    assert _loaded_by("import sys\n"
                      "import pdsemcom\n"
                      "assert pdsemcom.homology.vr_diagram\n") == [
        "pdsemcom", "pdsemcom.config", "pdsemcom.errors",
        "pdsemcom.homology"]


def test_the_package_exports_exactly_its_table():
    table = pdsemcom._EXPORTS
    names = [name for names in table.values() for name in names]
    assert len(set(names)) == len(names)
    assert sorted(pdsemcom.__all__) == sorted(names)
    assert set(names) | {"__version__"} <= set(dir(pdsemcom))
    for module, owned in table.items():
        source = importlib.import_module(f"pdsemcom.{module}")
        assert getattr(pdsemcom, module) is source
        for name in owned:
            assert getattr(pdsemcom, name) is getattr(source, name), name
    star = {}
    exec("from pdsemcom import *", star)
    assert set(names) <= set(star)
    assert all(star[name] is getattr(pdsemcom, name) for name in names)
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        pdsemcom.no_such_name
    assert not hasattr(pdsemcom, "MAX_RANGE")
    with pytest.raises(ImportError):
        exec("from pdsemcom import no_such_name", {})
