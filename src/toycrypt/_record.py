"""Frozen records: field-wise __init__, ==, hash and repr, built without code generation.

dataclass(frozen=True) writes each class's methods as source text and
execs them, and importing dataclasses loads inspect, ast and dis: work
that every fresh CLI process would repeat.  record installs plain closures
instead.  A record lists its fields as class annotations, in order, with
any default as a class attribute.  Only record checks their types, once per
field on each build, before __post_init__ checks ranges: a bool is an int,
an int field is refused by check_int, the package's one int rule, and a
tuple's items are not checked.  Decoration looks each annotation's text up
in _FORMS, the record's module, then builtins, and fails if it names no
class.  Instances keep a __dict__, so functools.cached_property works, and
refuse assignment and deletion.
"""

import builtins
import sys
from operator import attrgetter

_FORMS = {"int | None": (int, type(None)), "tuple[int, ...]": tuple,
          "tuple[tuple[int, int], ...]": tuple}


def check_int(n: int, what: str) -> None:
    """Refuse anything but an int (a bool is one) with TypeError naming it: a
    float or a Fraction would pass every range check and give a wrong answer,
    not an error, as gcd(7.5, 3) would read 1.5."""
    if not isinstance(n, int):
        raise TypeError(f"{what} must be an int, got {type(n).__name__}")


def record(cls):
    """Class decorator: cls becomes an immutable record of its annotated fields."""
    annotations = cls.__annotations__  # its own, in or out of cls.__dict__ (3.14)
    names = tuple(annotations)
    scope = {**vars(builtins), **vars(sys.modules[cls.__module__]), **_FORMS}
    kinds = tuple(scope.get(text) for text in annotations.values())
    for text, kind in zip(annotations.values(), kinds):
        if not (isinstance(kind, type) or text in _FORMS):
            raise TypeError(f"record {cls.__name__}: the annotation {text!r} names no class")
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    # the field tuple; attrgetter of a single name returns the bare value
    values = get if count > 1 else lambda self: (get(self),)

    # object.__setattr__ rather than a write into __dict__: CPython then keeps
    # the fields in the instance's shared-key storage, where reads are fastest
    set_field = object.__setattr__

    def fill(args, kwargs):
        # every field's value: args, then the rest from kwargs or the defaults
        rest = []
        for name in names[len(args):]:
            if name in kwargs:
                rest.append(kwargs.pop(name))
            elif name in defaults:
                rest.append(defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing the field {name!r}")
        if kwargs or len(args) > count:
            raise TypeError(f"{cls.__name__}() takes each of its fields {names} once")
        return args + tuple(rest)

    def __init__(self, *args, **kwargs):
        # the all-positional call, as in Residue(value, m), skips fill
        if kwargs or len(args) != count:
            args = fill(args, kwargs)
        for name, kind, value in zip(names, kinds, args):
            if not isinstance(value, kind):
                if kind in (int, _FORMS["int | None"]):
                    check_int(value, name)
                raise TypeError(f"{name} must be {annotations[name]}, got {type(value).__name__}")
            set_field(self, name, value)
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return values(self) == values(other)

    def __hash__(self):
        return hash(values(self))

    def __repr__(self):
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(names, values(self)))
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    for method in (__init__, __eq__, __hash__, __repr__, __setattr__, __delattr__):
        method.__qualname__ = f"{cls.__qualname__}.{method.__name__}"
        setattr(cls, method.__name__, method)
    return cls
