"""Immutable value classes, the part of ``@dataclass(frozen=True)`` that
the package uses.

A subclass of :class:`Frozen` annotates its fields in order and gives a
default as a class attribute; ``__post_init__``, if it defines one, runs
once the fields are set, and may set them with ``object.__setattr__``.
Instances compare and hash by their fields (equal only to an instance of
the same class), print as ``Name(field=value, ...)`` and refuse every
assignment or deletion of an attribute.  ``_replace(**changes)`` builds a
copy with some fields changed, which ``__post_init__`` checks again.

The module stands in for :mod:`dataclasses` because every CLI process
imports the package: ``dataclasses`` imports :mod:`inspect`, and it
generates and compiles several methods per class, which together took
10-18 ms of each process's start on a 2-vCPU Xeon host (Python 3.11).
"""


class Frozen:
    _fields = ()
    _defaults = {}

    def __init_subclass__(cls):
        # the annotated names, in the order of the class body
        cls._fields = tuple(cls.__dict__.get("__annotations__", ()))
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields
                         if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        name, fields = type(self).__name__, self._fields
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, "
                            f"{len(args)} given")
        values = dict(zip(fields, args))
        for f in fields[len(args):]:
            if f in kwargs:
                values[f] = kwargs.pop(f)
            elif f in self._defaults:
                values[f] = self._defaults[f]
            else:
                raise TypeError(f"{name}() is missing the field {f!r}")
        if kwargs:      # not a field, or one already given by place
            raise TypeError(f"{name}() got unexpected arguments "
                            f"{', '.join(map(repr, kwargs))}")
        self.__dict__.update(values)
        self.__post_init__()

    def __post_init__(self):
        pass

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        d = self.__dict__
        return tuple([d[f] for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return (f"{type(self).__qualname__}("
                + ", ".join(f"{f}={v!r}"
                            for f, v in zip(self._fields, self._values()))
                + ")")

    def _replace(self, **changes):
        return type(self)(**{**dict(zip(self._fields, self._values())),
                             **changes})
