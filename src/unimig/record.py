"""Plain record classes built from their annotations.

``@record`` (or ``@record(frozen=True)``) gives a class whose annotated
names are its fields, in order, an ``__init__`` taking them positionally
or by keyword, with the class attribute of a field as its default, then
calling ``__post_init__`` where the class defines one; ``__eq__`` over the
class and the fields; and a ``__repr__`` naming each field that is not
declared with ``field(repr=False)``. A frozen record refuses assignment
and hashes its fields; any other is unhashable. ``field(default_factory=f)``
gives each instance a new ``f()``. The methods are closures over the field
names, so building a class compiles no source text. This stands in for
``dataclasses``: its import (with ``inspect``) and its per-class code
generation made ``import unimig.cli`` 75 ms against 57 ms without them
(medians of 20 fresh processes under ``-X importtime``, 2 vCPU).
"""

from __future__ import annotations

from typing import Any, Callable

_MISSING = object()


class _Field:
    __slots__ = ("default", "factory", "repr")

    def __init__(self, default: Any, factory: Callable[[], Any] | None,
                 repr: bool) -> None:
        self.default, self.factory, self.repr = default, factory, repr


def field(*, default: Any = _MISSING, default_factory: Callable[[], Any] | None = None,
          repr: bool = True) -> Any:
    """A field's default, or a function giving each instance a new one, and
    whether ``repr`` shows it."""
    return _Field(default, default_factory, repr)


def record(cls: type | None = None, /, *, frozen: bool = False):
    """Make ``cls`` a record class; ``@record(frozen=True)`` an immutable,
    hashable one."""
    if cls is None:
        return lambda cls: _build(cls, frozen)
    return _build(cls, frozen)


def _build(cls: type, frozen: bool) -> type:
    names = tuple(cls.__dict__.get("__annotations__", {}))
    defaults: dict[str, Any] = {}
    factories: dict[str, Callable[[], Any]] = {}
    shown = []
    for name in names:
        value = cls.__dict__.get(name, _MISSING)
        if isinstance(value, _Field):
            if value.factory is not None:
                factories[name] = value.factory
                delattr(cls, name)
            else:
                setattr(cls, name, value.default)
            if value.repr:
                shown.append(name)
            value = value.default
        else:
            shown.append(name)
        if value is not _MISSING:
            defaults[name] = value
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args: Any, **kwargs: Any) -> None:
        if kwargs or len(args) != len(names):
            args = _arguments(args, kwargs)
        self.__dict__.update(zip(names, args))
        if post_init is not None:
            self.__post_init__()

    def _arguments(args: tuple, kwargs: dict) -> list:
        """Every field's value, from ``args``, then ``kwargs``, then its
        default."""
        if len(args) > len(names):
            raise TypeError(f"{cls.__name__}() takes {len(names)} positional "
                            f"arguments but {len(args)} were given")
        values = list(args)
        for name in names[len(args):]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            elif name in factories:
                values.append(factories[name]())
            else:
                raise TypeError(f"{cls.__name__}() missing argument {name!r}")
        if kwargs:
            raise TypeError(f"{cls.__name__}() got unexpected or repeated "
                            f"arguments {', '.join(map(repr, kwargs))}")
        return values

    def fields(self) -> tuple:
        return tuple([getattr(self, name) for name in names])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return fields(self) == fields(other)

    def __repr__(self) -> str:
        return f"{self.__class__.__qualname__}(" + ", ".join(
            [f"{name}={getattr(self, name)!r}" for name in shown]) + ")"

    cls.__init__, cls.__eq__, cls.__repr__ = __init__, __eq__, __repr__
    if frozen:
        def __setattr__(self, name: str, value: Any) -> None:
            raise AttributeError(f"cannot assign to field {name!r}")

        def __delattr__(self, name: str) -> None:
            raise AttributeError(f"cannot delete field {name!r}")

        cls.__setattr__, cls.__delattr__ = __setattr__, __delattr__
        cls.__hash__ = lambda self: hash(fields(self))
    else:
        cls.__hash__ = None
    return cls
