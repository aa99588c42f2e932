"""Immutable records, the base of tiltkit's input and result types.

A subclass declares its fields as class annotations, in order, with optional
defaults; the annotations are never evaluated and no code is generated.  A
record is built from positional or keyword arguments, then checked by
``__post_init__``, which may also normalise a field and keep derived state
(an index, a memo) beside the fields, both through ``vars(self)``.  Repr,
equality (only within one class) and hash read the fields alone; assignment
and deletion are refused.
"""


class Record:
    __slots__ = ()

    def __init_subclass__(cls):
        cls._fields = tuple(cls.__annotations__)
        cls._defaults = {f: cls.__dict__[f] for f in cls._fields if f in cls.__dict__}

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._fields):
            args = self._bind(args, kwargs)
        self.__dict__.update(zip(self._fields, args))
        self.__post_init__()

    @classmethod
    def _bind(cls, args, kwargs) -> list:
        given = dict(zip(cls._fields, args))
        values = {**cls._defaults, **kwargs, **given}
        if len(args) > len(given) or given.keys() & kwargs or values.keys() != set(cls._fields):
            raise TypeError(f"{cls.__name__}() takes ({', '.join(cls._fields)}), with "
                            f"defaults for {sorted(cls._defaults)}")
        return [values[f] for f in cls._fields]

    def __post_init__(self):
        pass

    def _values(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        body = ", ".join([f"{f}={getattr(self, f)!r}" for f in self._fields])
        return f"{self.__class__.__qualname__}({body})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
