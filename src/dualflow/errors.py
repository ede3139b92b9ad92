"""Shared exception types.

The split mirrors how failures are reported at the CLI: shape and contract
violations are caller bugs, numeric errors are diagnosed aborts, and the
file-format errors name the offending artifact. ``check_field_types`` is
the one type check of every config dataclass, raising ``ContractError``.
"""

import dataclasses
import functools
import numbers
import typing


class ShapeError(ValueError):
    """Operand dimensions are incompatible with the requested operation."""


class ContractError(ValueError):
    """An API precondition was violated by the caller."""


class NumericError(ArithmeticError):
    """A non-finite value appeared where the computation requires finite ones."""


class CheckpointError(RuntimeError):
    """A checkpoint file is unreadable, truncated, or from an unknown version."""


class DataError(RuntimeError):
    """A dataset file or manifest entry is malformed."""


def _checked(value, kind, name: str):
    if kind is int and isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    if kind is float and isinstance(value, numbers.Real) and not isinstance(value, bool):
        return float(value)
    if kind is str and isinstance(value, str):
        return str(value)
    raise ContractError(f"{name} must be {kind.__name__}, got {value!r}")


@functools.cache
def _field_types(cls) -> tuple:
    """(field, annotated type, qualified name) of each field of a dataclass,
    resolved once: ``typing.get_type_hints`` takes tens of microseconds."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name], f"{cls.__name__}.{f.name}")
                 for f in dataclasses.fields(cls))


def check_field_types(cfg) -> None:
    """Store each field of the frozen dataclass ``cfg`` as its annotated
    type: an integral value that is not a bool as ``int``, a real one that
    is not a bool as ``float``, a ``tuple[T, ...]`` field as a tuple of such
    ``T`` (from a tuple or a list), and a ``str`` field only as a ``str``.
    Anything else raises ``ContractError``. So every accepted value is one
    the INI echo writes and reads back equal."""
    for field, hint, name in _field_types(type(cfg)):
        value = getattr(cfg, field)
        if typing.get_origin(hint) is tuple:
            if not isinstance(value, (tuple, list)):
                raise ContractError(f"{name} must be a tuple, got {value!r}")
            value = tuple(_checked(v, typing.get_args(hint)[0], name) for v in value)
        else:
            value = _checked(value, hint, name)
        object.__setattr__(cfg, field, value)
