"""Fresh processes load only the modules they use.

The in-process suite imports every module, so each check here starts a new
interpreter: importing the CLI loads neither dataclasses nor dh, ecc and
rsa, a bare `import toycrypt` loads no submodule until one is used, each
command loads only the modules it uses, dir(toycrypt) lists every module
without loading one, and the CLI commands that load modules on demand still
print their goldens.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toycrypt
from vectors import DH_DEMO_SEED_7, KEYGEN_256_SEED_1_KEY, KEYGEN_256_SEED_1_PUB

ROOT = Path(__file__).resolve().parents[1]
MODULES = ["bigmod", "classical", "dh", "ecc", "envelope", "numtheory", "rsa", "sha1"]


def fresh(argv, cwd=None):
    """Run python with argv in a new process that imports toycrypt from src."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    result = subprocess.run([sys.executable, *argv], capture_output=True, text=True,
                            stdin=subprocess.DEVNULL, timeout=120, env=env, cwd=cwd)
    assert result.stderr == "", result.stderr
    return result


def command_loads(argv, cwd):
    """The toycrypt submodules loaded once `python -m toycrypt argv` has run; it must exit 0.

    runpy runs the package's __main__ as -m does, and the loaded set is read
    in the same process after the command has exited.
    """
    result = fresh(["-c", (
        "import json, runpy, sys\n"
        f"sys.argv = ['toycrypt', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('toycrypt', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as exc:\n"
        "    assert exc.code == 0, exc.code\n"
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('toycrypt.'))))"
    )], cwd)
    assert result.returncode == 0
    loaded = json.loads(result.stdout.splitlines()[-1])  # after the command's own output
    return {name.removeprefix("toycrypt.") for name in loaded}


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
    assert not {"dataclasses", "toycrypt.dh", "toycrypt.ecc", "toycrypt.rsa"} & set(loaded)


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


def test_dir_lists_every_module_without_importing_one(monkeypatch):
    # in-process, where the modules are loaded already; dir may not load one
    def refuse(name, package=None):
        raise AssertionError(f"dir imported {name}")

    monkeypatch.setattr(toycrypt.importlib, "import_module", refuse)
    assert set(MODULES) | {"__version__"} <= set(dir(toycrypt))
    listed, loaded = fresh_json(
        "import toycrypt\n"
        "listed = dir(toycrypt)\n"
        "print(json.dumps([listed, [m for m in sys.modules if m.startswith('toycrypt.')]]))"
    )
    assert set(MODULES) <= set(listed) and loaded == []


def test_keygen_seal_open_load_only_what_they_use(tmp_path):
    (tmp_path / "msg").write_bytes(b"one process per command")
    loaded = command_loads(["keygen", "--bits", "256", "--seed", "1", "--out", "k"], tmp_path)
    assert not {"envelope", "sha1", "classical", "dh", "ecc"} & loaded
    assert {"cli", "rsa", "numtheory"} <= loaded
    assert (tmp_path / "k.pub").read_text() == KEYGEN_256_SEED_1_PUB
    assert (tmp_path / "k.key").read_text() == KEYGEN_256_SEED_1_KEY

    loaded = command_loads(["seal", "--key", "k.pub", "--in", "msg", "--out", "env"], tmp_path)
    assert "numtheory" not in loaded and "envelope" in loaded

    command_loads(["open", "--key", "k.key", "--in", "env", "--out", "out"], tmp_path)
    assert (tmp_path / "out").read_bytes() == b"one process per command"


# one row per module family; every command loads cli, and bigmod and
# _record with it.  The top-level help builds every command's parser, and
# loads nothing more.
@pytest.mark.parametrize("argv, modules", [
    (["-h"], set()),
    (["hash"], {"sha1"}),
    (["caesar", "--shift", "3", "abc"], {"classical"}),
    (["factor", "171371"], {"numtheory"}),
    (["dlog", "23", "5", "8"], {"dh", "numtheory"}),
    (["ecc", "--curve", "2,3,97", "mul", "7", "3,6"], {"ecc", "numtheory"}),
    (["rsa-demo"], {"rsa", "numtheory"}),
], ids=["-h", "hash", "caesar", "factor", "dlog", "ecc", "rsa-demo"])
def test_each_command_loads_exactly_its_modules(argv, modules, tmp_path):
    assert command_loads(argv, tmp_path) == {"cli", "bigmod", "_record", *modules}


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
