"""Record classes, ``@record`` or ``@record(frozen=True, eq=False)``.

The stdlib's dataclass module imports :mod:`inspect` and ``exec``s code
for every class: about 10 ms of each CLI run's start-up.  ``record``
builds the same methods from closures, keeping any the class defines:
``__init__`` (then ``__post_init__``), ``__repr__`` of the ``repr``
fields, ``__eq__`` on the tuple of ``compare`` fields (a NaN field equals
itself), its hash if frozen (no hash if mutable), and refused assignment.
"""

from operator import attrgetter

_MISSING = object()


class Field:
    def __init__(self, *, default=_MISSING, default_factory=None, compare=True, repr=True):
        self.default, self.default_factory = default, default_factory
        self.compare, self.repr = compare, repr


field = Field
fields = attrgetter("__record_fields__")  # of a class or instance: its own annotations


def record(cls=None, /, *, frozen: bool = False, eq: bool = True):
    if cls is None:
        return lambda c: record(c, frozen=frozen, eq=eq)
    own, fs = dict(cls.__dict__), []
    for name in own.get("__annotations__", {}):
        f = own.get(name, _MISSING)
        f = f if isinstance(f, Field) else Field(default=f)
        f.name = name
        if f.default is not _MISSING:
            setattr(cls, name, f.default)
        elif name in own:
            delattr(cls, name)
        fs.append(f)
    fs = cls.__record_fields__ = tuple(fs)
    names, post = tuple(f.name for f in fs), hasattr(cls, "__post_init__")

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(names):  # bind the rest by keyword or default
            extra = [*args[len(names):], *(kwargs.keys() - set(names[len(args):]))]
            args = [*args, *(kwargs.get(f.name, f.default) for f in fs[len(args):])]
            missing = [f.name for f, v in zip(fs, args) if v is _MISSING and not f.default_factory]
            if extra or missing:
                raise TypeError(f"{cls.__name__}() got unexpected {extra}, missing {missing}")
            args = [f.default_factory() if v is _MISSING else v for f, v in zip(fs, args)]
        self.__dict__.update(zip(names, args))
        if post:
            self.__post_init__()

    def __repr__(self):
        shown = (f"{f.name}={getattr(self, f.name)!r}" for f in fs if f.repr)
        return f"{type(self).__qualname__}({', '.join(shown)})"

    compared = tuple(f.name for f in fs if f.compare)
    key = attrgetter(*compared) if len(compared) > 1 else (
        lambda self: tuple(getattr(self, name) for name in compared))

    def __eq__(self, other):
        return key(self) == key(other) if other.__class__ is self.__class__ else NotImplemented

    def refuse(self, name, *value):
        raise AttributeError(f"cannot {'assign to' if value else 'delete'} field {name!r}")

    refuse = frozen and refuse
    for name, method in [("__init__", __init__), ("__repr__", __repr__), ("__eq__", eq and __eq__),
                         ("__setattr__", refuse), ("__delattr__", refuse)]:
        if method and name not in own:
            setattr(cls, name, method)
    if eq and own.get("__hash__") is None:  # none, or the None an own __eq__ implies
        cls.__hash__ = (lambda self: hash(key(self))) if frozen else None
    return cls


def asdict(obj):
    """Fields as dicts, through records, lists, tuples and dicts; leaves are shared."""
    if hasattr(type(obj), "__record_fields__"):
        return {f.name: asdict(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, (list, tuple, dict)):  # a dict from its (key, value) tuples
        return type(obj)(map(asdict, obj.items() if isinstance(obj, dict) else obj))
    return obj


def replace(obj, /, **changes):
    """A new record with ``changes`` applied; ``__post_init__`` runs again."""
    return type(obj)(**{**{f.name: getattr(obj, f.name) for f in fields(obj)}, **changes})
