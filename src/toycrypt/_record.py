"""Frozen records: field-wise __init__, ==, hash and repr, built without code generation.

dataclass(frozen=True) writes each class's methods as source text and
execs them, and importing dataclasses loads inspect, ast and dis: work
that every fresh CLI process would repeat.  record installs plain closures
instead.  A record lists its fields as class annotations, in order, with
any default as a class attribute; once the fields are set, __post_init__
(if defined) validates them.  Instances keep a __dict__, so
functools.cached_property works, and refuse assignment and deletion with
AttributeError.
"""

from operator import attrgetter


def record(cls):
    """Class decorator: cls becomes an immutable record of its annotated fields."""
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = getattr(cls, "__post_init__", None)
    get = attrgetter(*names)
    # the field tuple; attrgetter of a single name returns the bare value
    values = get if count > 1 else lambda self: (get(self),)

    # object.__setattr__ rather than a write into __dict__: CPython then keeps
    # the fields in the instance's shared-key storage, where reads are fastest
    set_field = object.__setattr__

    def fill(self, given, kwargs):
        # the fields after the first `given`, from kwargs or the defaults
        if given > count:
            raise TypeError(f"{cls.__name__}() takes {count} arguments but {given} were given")
        used = 0
        for name in names[given:]:
            if name in kwargs:
                set_field(self, name, kwargs[name])
                used += 1
            elif name in defaults:
                set_field(self, name, defaults[name])
            else:
                raise TypeError(f"{cls.__name__}() missing the field {name!r}")
        if used != len(kwargs):
            unexpected = sorted(kwargs.keys() - names[given:])
            raise TypeError(f"{cls.__name__}() got unexpected or repeated arguments {unexpected}")

    def __init__(self, *args, **kwargs):
        for name, value in zip(names, args):
            set_field(self, name, value)
        # the all-positional call, as in Residue(value, m), skips fill
        if kwargs or len(args) != count:
            fill(self, len(args), kwargs)
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
