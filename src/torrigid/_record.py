"""Frozen value records: a light stand-in for ``@dataclass(frozen=True)``.

``@frozen`` reads a class's annotated fields and their defaults and adds
``__init__``, ``__eq__`` and ``__hash__``, compiled in one ``exec`` per class,
plus a shared ``__repr__`` and ``__setattr__``/``__delattr__`` that raise
``AttributeError``.  ``__init__`` sets the fields in order and then calls
``__post_init__`` when the class has one.  Two records are equal when they are
of the same class and their field tuples are equal; the hash is the hash of
that tuple.  A method the class defines itself is kept.
"""

from __future__ import annotations


def _repr(self) -> str:
    shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._record_fields)
    return f"{type(self).__qualname__}({shown})"


def _setattr(self, name, value) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _delattr(self, name) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def frozen(cls):
    """Make ``cls`` a frozen record; use as ``@frozen``."""
    names = tuple(cls.__annotations__)
    scope = {"_set": object.__setattr__}
    params = ["self"]
    for name in names:
        if name in cls.__dict__:
            scope[f"_d_{name}"] = cls.__dict__[name]
            params.append(f"{name}=_d_{name}")
        else:
            params.append(name)
    body = [f" _set(self, {name!r}, {name})" for name in names]
    if hasattr(cls, "__post_init__"):
        body.append(" self.__post_init__()")
    mine = "".join(f"self.{name}," for name in names)
    theirs = "".join(f"other.{name}," for name in names)
    source = "\n".join(
        [
            f"def __init__({', '.join(params)}):",
            *(body or [" pass"]),
            "def __eq__(self, other):",
            f" if other.__class__ is self.__class__: return ({mine}) == ({theirs})",
            " return NotImplemented",
            f"def __hash__(self): return hash(({mine}))",
        ]
    )
    exec(source, scope)
    methods = {"__repr__": _repr, "__setattr__": _setattr, "__delattr__": _delattr}
    methods.update((name, scope[name]) for name in ("__init__", "__eq__", "__hash__"))
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    cls._record_fields = names
    return cls
