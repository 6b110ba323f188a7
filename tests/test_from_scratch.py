"""Nothing on a shipping path hides behind a library call.

Built-in pow and hashlib may serve as test oracles only: every module of
the package is parsed, and any use of the name `pow` or the attribute
`__pow__`, any import of hashlib, and the string "pow" or "hashlib" passed
to a call (getattr, __import__, importlib.import_module) fail the test.
So do `math.gcd` and `math.lcm`, imported or as attributes, since bigmod
owns those kernels, and any import of dataclasses, whose generated record
methods are replaced by toycrypt._record.
"""

import ast
from pathlib import Path

import pytest

import toycrypt

MODULES = sorted(Path(toycrypt.__file__).parent.glob("*.py"))
MATH_KERNELS = ("gcd", "lcm")
BANNED_MODULES = ("hashlib", "dataclasses")


def shortcuts(source: str) -> list[str]:
    """Line-numbered uses of pow, math.gcd and math.lcm, and imports of hashlib or dataclasses."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and node.id == "pow":
            found.append(f"line {node.lineno}: pow")
        elif isinstance(node, ast.Attribute) and node.attr == "pow":
            if isinstance(node.value, ast.Name) and node.value.id == "builtins":
                found.append(f"line {node.lineno}: builtins.pow")
        elif isinstance(node, ast.Attribute) and node.attr == "__pow__":
            found.append(f"line {node.lineno}: __pow__")
        elif isinstance(node, ast.Attribute) and node.attr in MATH_KERNELS:
            if isinstance(node.value, ast.Name) and node.value.id == "math":
                found.append(f"line {node.lineno}: math.{node.attr}")
        elif isinstance(node, ast.Call):
            for arg in node.args + [keyword.value for keyword in node.keywords]:
                if isinstance(arg, ast.Constant) and arg.value in ("pow", *BANNED_MODULES):
                    found.append(f"line {node.lineno}: {arg.value!r} passed to a call")
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] in BANNED_MODULES:
                    found.append(f"line {node.lineno}: import {alias.name}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in BANNED_MODULES:
            found.append(f"line {node.lineno}: from {node.module} import")
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            for alias in node.names:
                if alias.name in MATH_KERNELS or alias.name == "*":
                    found.append(f"line {node.lineno}: from math import {alias.name}")
    return found


def test_every_module_is_scanned():
    names = {path.stem for path in MODULES}
    assert {"bigmod", "numtheory", "rsa", "sha1", "envelope", "ecc", "dh", "cli"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_builtin_pow_or_hashlib(path):
    assert shortcuts(path.read_text()) == []


@pytest.mark.parametrize("source", [
    "q_inv = pow(q, -1, p)",
    "f = pow\nf(3, 5, 7)",
    "import builtins\nbuiltins.pow(3, 5, 7)",
    "import hashlib",
    "import os, hashlib as h",
    "from hashlib import sha1",
    "int.__pow__(3, 5, 7)",
    "(3).__pow__(5, 7)",
    'import builtins\ngetattr(builtins, "pow")',
    '__import__("hashlib")',
    'import importlib\nimportlib.import_module("hashlib")',
    "import math\nmath.gcd(12, 18)",
    "import math\nmath.lcm(4, 6)",
    "from math import gcd",
    "from math import lcm",
    "from math import isqrt, gcd as g",
    "from math import *",
    "from dataclasses import dataclass",
    "import dataclasses",
    "import os, dataclasses as dc",
    'import importlib\nimportlib.import_module("dataclasses")',
])
def test_shortcut_detected(source):
    assert shortcuts(source)


@pytest.mark.parametrize("source", ["bigmod.mod_pow(3, 5, 7)", "math.pow(2.0, 0.5)", "x ** 2",
                                    "bigmod.gcd(12, 18)", "from math import isqrt"])
def test_own_arithmetic_allowed(source):
    assert shortcuts(source) == []
