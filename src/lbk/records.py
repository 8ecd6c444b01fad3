"""Values and records: classes of named fields, equal by class and fields, built without generated code.

Each class lists its fields in order as its ``__slots__`` and takes them in that order in its own ``__init__``.
"""
from operator import attrgetter

set_field = object.__setattr__  # how a Value's __init__ sets each field once: the Value refuses assignment


class Record:
    """Equal to an object of its class with equal fields, and shown as ``Name(field=value!r, ...)``; no hash."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        fields = vars(cls).get("__slots__")
        if fields:  # _values(obj) is the tuple of obj's fields, read by one attrgetter
            get = attrgetter(*fields)
            cls._fields, cls._values = fields, get if len(fields) > 1 else staticmethod(lambda obj: (get(obj),))

    def __eq__(self, other: object) -> bool:
        return self._values(self) == other._values(other) if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values(self)))
        return f"{self.__class__.__qualname__}({shown})"


class Value(Record):
    """A record that cannot change: hashed as its fields' tuple, copied and pickled through ``__init__``."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"{self.__class__.__name__}.{name} cannot change")

    __delattr__ = __setattr__

    def __reduce__(self):
        return self.__class__, self._values(self)
