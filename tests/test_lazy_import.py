"""Fresh processes load only the modules they use.

The in-process suite imports every module, so each check here starts a new
interpreter: importing the CLI loads neither dataclasses nor dh and ecc, a
bare `import toycrypt` loads no submodule until one is used, and the CLI
commands that import dh and ecc on demand still print their goldens.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vectors import DH_DEMO_SEED_7

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["bigmod", "classical", "dh", "ecc", "envelope", "numtheory", "rsa", "sha1"]


def fresh(argv):
    """Run python with argv in a new process that imports toycrypt from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                            timeout=120, env=env)
    assert result.stderr == "", result.stderr
    return result


def fresh_json(code):
    """The JSON value that code prints as its last line in a fresh process."""
    result = fresh(["-c", "import json, sys\n" + code])
    assert result.returncode == 0
    return json.loads(result.stdout.splitlines()[-1])


def test_cli_import_loads_neither_dataclasses_nor_dh_nor_ecc():
    loaded = fresh_json(
        "before = set(sys.modules)\n"
        "import toycrypt.cli\n"
        "print(json.dumps(sorted(set(sys.modules) - before)))"
    )
    assert "toycrypt.cli" in loaded
    assert not {"dataclasses", "toycrypt.dh", "toycrypt.ecc"} & set(loaded)


def test_bare_import_loads_submodules_on_first_access():
    steps = fresh_json(
        "import toycrypt\n"
        "def ours():\n"
        "    return sorted(m for m in sys.modules if m.startswith('toycrypt.'))\n"
        "steps = [ours()]\n"
        "curve = toycrypt.ecc.make_curve(2, 3, 97)\n"
        "steps += [ours(), repr(curve)]\n"
        "try:\n"
        "    toycrypt.missing\n"
        "except AttributeError as exc:\n"
        "    steps.append(str(exc))\n"
        "print(json.dumps(steps))"
    )
    assert steps[0] == []
    assert "toycrypt.ecc" in steps[1] and "toycrypt.dh" not in steps[1]
    assert steps[2] == "EccCurve(a=2, b=3, p=97)"
    assert steps[3] == "module 'toycrypt' has no attribute 'missing'"


def test_star_import_binds_every_module():
    bound, listed = fresh_json(
        "import types, toycrypt\n"
        "from toycrypt import *\n"
        f"names = {MODULES!r}\n"
        "bound = [n for n in names if isinstance(globals().get(n), types.ModuleType)]\n"
        "print(json.dumps([bound, [n for n in names if n in dir(toycrypt)]]))"
    )
    assert bound == listed == MODULES


def test_dh_demo_golden_in_a_fresh_process():
    result = fresh(["-m", "toycrypt", "dh-demo", "--seed", "7"])
    assert (result.returncode, result.stdout) == (0, DH_DEMO_SEED_7)


@pytest.mark.parametrize("argv, out", [
    (["dlog", "23", "5", "8"], "k=6 steps=6\n"),
    (["ecc", "--curve", "2,3,97", "mul", "7", "3,6"], "80,10\n"),
])
def test_lazily_imported_commands_in_a_fresh_process(argv, out):
    result = fresh(["-m", "toycrypt", *argv])
    assert (result.returncode, result.stdout) == (0, out)
