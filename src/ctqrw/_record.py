"""Records: classes whose annotated attributes are fields, read into a table
that drives ``__init__``, ``__repr__``, ``__eq__`` and ``__hash__``, written once
below: defining a record generates no code.  They behave as the standard
library's data-class methods with the same options, but ``__post_init__`` sets
``init=False`` fields."""

_MISSING = object()


class FrozenInstanceError(AttributeError):
    """Assignment to or deletion of an attribute of a frozen record."""


class Field:
    """A field's options, given as its class attribute: ``name: type = Field(...)``."""

    def __init__(self, *, default=_MISSING, default_factory=_MISSING, init=True, repr=True, compare=True):
        self.default, self.init, self.repr, self.compare = default, init, repr, compare
        self.required = default is _MISSING and default_factory is _MISSING
        self.make_default = (lambda: default) if default_factory is _MISSING else default_factory


def _bind(self, names: tuple, args: tuple, kwargs: dict) -> list:
    """The values of the init fields `names`, in order, from a call that does not
    pass one value per field by position; the errors name the class."""
    fields, where = type(self)._fields, f"{type(self).__qualname__}.__init__()"
    values = dict(zip(names, args))
    for name, value in kwargs.items():
        if name not in names:
            raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
        if name in values:
            raise TypeError(f"{where} got multiple values for argument {name!r}")
        values[name] = value
    if len(args) > len(names):
        raise TypeError(f"{where} takes at most {len(names) + 1} positional arguments but {len(args) + 1} were given")
    missing = [repr(name) for name in names if name not in values and fields[name].required]
    if missing:
        listed = " and ".join(missing) if len(missing) < 3 else ", ".join(missing[:-1]) + ", and " + missing[-1]
        raise TypeError(f"{where} missing {len(missing)} required positional argument{'s' * (len(missing) > 1)}: {listed}")
    return [values[name] if name in values else fields[name].make_default() for name in names]


def _init(self, *args, **kwargs):
    names = type(self)._init_fields
    if kwargs or len(args) != len(names):
        args = kwargs.values() if not args and tuple(kwargs) == names else _bind(self, names, args, kwargs)
    self.__dict__.update(zip(names, args))
    if type(self)._post_init:
        self.__post_init__()


def _repr(self) -> str:
    shown = (f"{name}={getattr(self, name)!r}" for name, f in type(self)._fields.items() if f.repr)
    return f"{type(self).__qualname__}({', '.join(shown)})"


def _key(self) -> tuple:
    return tuple(getattr(self, name) for name, f in type(self)._fields.items() if f.compare)


def _eq(self, other):
    return _key(self) == _key(other) if other.__class__ is self.__class__ else NotImplemented


def _hash(self) -> int:
    return hash(_key(self))


def _frozen(self, name, *value):  # __setattr__ and __delattr__ of a frozen record
    raise FrozenInstanceError(f"cannot {'assign to' if value else 'delete'} field {name!r}")


def record(cls=None, *, frozen: bool = True):
    """``@record`` makes a class a frozen record, ``@record(frozen=False)`` a mutable, unhashable one."""
    if cls is None:
        return lambda cls: record(cls, frozen=frozen)
    cls._fields = {}
    for name in cls.__dict__.get("__annotations__", {}):
        value = cls.__dict__.get(name, _MISSING)
        f = cls._fields[name] = value if isinstance(value, Field) else Field(default=value)
        if f.default is not _MISSING:  # the class attribute is the default, if there is one
            setattr(cls, name, f.default)
        elif value is not _MISSING:
            delattr(cls, name)
    cls._init_fields = tuple(name for name, f in cls._fields.items() if f.init)
    cls._post_init = hasattr(cls, "__post_init__")
    methods = {"__init__": _init, "__repr__": _repr, "__eq__": _eq, "__hash__": _hash if frozen else None}
    if frozen:
        methods.update(__setattr__=_frozen, __delattr__=_frozen)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    return cls


def asdict(obj) -> dict:
    """A record's fields by name, in order (the values, not copies)."""
    return {name: getattr(obj, name) for name in type(obj)._fields}
