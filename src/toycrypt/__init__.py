"""toycrypt: an educational, from-scratch public-key cryptography toolkit.

Everything here is built for inspection, not protection: textbook RSA
without padding, Diffie-Hellman without authentication, SHA-1 despite its
deprecation, and brute-force attackers sized for a desk.  Do not use any of
it to protect real data.

Submodules load on first attribute access (PEP 562), so `import toycrypt`
costs nothing until a module is used, and a CLI command compiles only the
modules it needs.
"""

import importlib

__all__ = [
    "bigmod",
    "classical",
    "dh",
    "ecc",
    "envelope",
    "numtheory",
    "rsa",
    "sha1",
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in __all__:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
