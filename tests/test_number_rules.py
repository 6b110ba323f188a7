"""Each number rule is written once.

The int rule ("X must be an int, got T") lives in toycrypt._record.check_int
and the non-negative rule ("X must be non-negative, got N") in
toycrypt.bigmod.check_natural.  Every other module calls them: every module
of the package is parsed, and a raise outside those two modules whose
message holds either phrase fails the test.
"""

import ast
from pathlib import Path

import pytest

import toycrypt

MODULES = sorted(Path(toycrypt.__file__).parent.glob("*.py"))
OWNERS = ("_record.py", "bigmod.py")
RULES = ("must be an int", "must be non-negative")


def copied_rules(source: str) -> list[str]:
    """Line-numbered raises whose message text holds one of RULES."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise) and node.exc is not None:
            texts = [part.value for part in ast.walk(node.exc)
                     if isinstance(part, ast.Constant) and isinstance(part.value, str)]
            found += [f"line {node.lineno}: {rule!r}" for rule in RULES
                      if any(rule in text for text in texts)]
    return found


def test_the_owners_are_scanned():
    assert set(OWNERS) <= {path.name for path in MODULES}
    for owner in OWNERS:
        assert copied_rules((Path(toycrypt.__file__).parent / owner).read_text())


@pytest.mark.parametrize("path", [p for p in MODULES if p.name not in OWNERS],
                         ids=lambda path: path.name)
def test_no_copy_of_a_number_rule(path):
    assert copied_rules(path.read_text()) == []


@pytest.mark.parametrize("source", [
    'raise ValueError(f"scalar must be non-negative, got {k}")',
    'raise ValueError("blocks must be non-negative")',
    'raise TypeError(f"{what} must be an int, got {type(n).__name__}")',
    'raise TypeError("n must be an int")',
    'if x:\n    raise TypeError(f"x must be an int, got {t}") from None',
])
def test_copy_detected(source):
    assert copied_rules(source)


@pytest.mark.parametrize("source", [
    'bigmod.check_natural(k, "scalar")',
    'raise ValueError(f"factor must be positive, got {k}")',
    'raise ValueError(f"sieve limit must be >= 2, got {limit}")',
])
def test_other_messages_allowed(source):
    assert copied_rules(source) == []
