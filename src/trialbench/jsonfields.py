"""Strict conversion between JSON values and frozen dataclasses.

``parse`` walks a dataclass's fields and their type hints, so a config
accepts exactly the keys its fields name, each with the JSON type its
annotation gives. Range and membership checks live in each class's
``__post_init__``, so they also hold for programmatic construction and
``dataclasses.replace``; ``parse`` names the config before their messages.

``dump`` is the one way a value becomes JSON: configs, report records and
whole reports. It writes every field of a dataclass, turns mapping keys into
strings, numpy scalars and arrays into Python values and lists, and
non-finite floats into null.

Type rules: ``bool`` is true or false only; ``int`` is an integer that is not
a bool; ``float`` is a finite integer or float that is not a bool; ``str`` is
a string; ``tuple`` and ``list`` are JSON lists, of fixed length for
``tuple[T, U]``; ``dict[str, T]`` and nested dataclasses are JSON objects; a
union takes the first option whose JSON shape fits the value.
"""

from __future__ import annotations

import dataclasses
import math
import types
import typing
from typing import Any, Mapping

import numpy as np

from .errors import ConfigError

_NONE = type(None)
_WORDS = {
    bool: "true or false",
    int: "an integer",
    float: "a number",
    str: "a string",
    _NONE: "null",
}


def _is_union(tp: Any) -> bool:
    return typing.get_origin(tp) in (typing.Union, types.UnionType)


def _describe(tp: Any) -> str:
    if _is_union(tp):
        return " or ".join(_describe(option) for option in typing.get_args(tp))
    if tp in _WORDS:
        return _WORDS[tp]
    return "a list" if typing.get_origin(tp) in (tuple, list) else "an object"


def _fits(tp: Any, value: Any) -> bool:
    """Whether the JSON shape of ``value`` is the one ``tp`` takes."""
    if tp is _NONE:
        return value is None
    if tp is bool or tp is str:
        return isinstance(value, tp)
    if tp is int or tp is float:
        numbers = int if tp is int else (int, float)
        # JSON true and false load as Python bools, which are ints too.
        return isinstance(value, numbers) and not isinstance(value, bool)
    if typing.get_origin(tp) in (tuple, list):
        return isinstance(value, (list, tuple))
    return isinstance(value, Mapping)


def _value(tp: Any, value: Any, where: str, label: str) -> Any:
    """``value`` read as ``tp``; ``label`` names it inside ``where``."""
    wrong = ConfigError(f"{where}: {label} must be {_describe(tp)}, got {value!r}")
    if _is_union(tp):
        tp = next((option for option in typing.get_args(tp) if _fits(option, value)), None)
    if tp is None or not _fits(tp, value):
        raise wrong
    if tp is float:
        try:
            value = float(value)
        except OverflowError:
            raise wrong from None
        if not math.isfinite(value):
            raise wrong
        return value
    if dataclasses.is_dataclass(tp):
        return parse(tp, value, f"{where}[{label}]")
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is dict:
        return {key: _value(args[1], v, where, f"{label}[{key!r}]") for key, v in value.items()}
    if origin in (tuple, list):
        if origin is list or args[-1] is Ellipsis:
            args = (args[0],) * len(value)
        elif len(value) != len(args):
            raise ConfigError(
                f"{where}: {label} must be a list of {len(args)} values, got {value!r}"
            )
        items = enumerate(zip(args, value))
        return origin(_value(t, v, where, f"{label}[{i}]") for i, (t, v) in items)
    return value


def parse(cls: type, raw: Any, where: str) -> Any:
    """Build dataclass ``cls`` from the JSON object ``raw``, strictly.

    Unknown keys, missing required keys and values of the wrong JSON type
    raise ConfigError naming the key; ``where`` says which config it is.
    """
    if not isinstance(raw, Mapping):
        raise ConfigError(f"{where} must be an object, got {raw!r}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    unknown = sorted(str(key) for key in raw if key not in fields)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {unknown}; allowed: {sorted(fields)}")
    hints = typing.get_type_hints(cls)
    values = {}
    for name, f in fields.items():
        if name in raw:
            values[name] = _value(hints[name], raw[name], where, repr(name))
        elif f.default is dataclasses.MISSING:
            raise ConfigError(f"{where}: missing required key {name!r}")
    try:
        return cls(**values)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from None


def parser(where: str) -> classmethod:
    """A config's ``from_dict``: ``parse`` of its class, naming ``where``."""
    return classmethod(lambda cls, raw: parse(cls, raw, where))


def dump(obj: Any) -> Any:
    """The JSON value of ``obj``, ready for ``json.dump(..., allow_nan=False)``.

    A dataclass becomes an object of all its fields, a tuple or an array a
    list, a mapping key a string, a numpy scalar its Python value, and a NaN
    or infinite float null.
    """
    if dataclasses.is_dataclass(obj):
        return {f.name: dump(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    # bool before int: a bool is an int too.
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        return value if math.isfinite(value) else None
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, (list, tuple)):
        return [dump(v) for v in obj]
    if isinstance(obj, Mapping):
        return {str(key): dump(v) for key, v in obj.items()}
    return obj
