"""Small shared helpers: immutable records, Horner evaluation and report
float formatting."""

from __future__ import annotations

import math

import numpy as np


_set_field = object.__setattr__


class Record:
    """An immutable record.  Its fields are the names annotated in the
    class body, in order, after those of a record class it extends; a
    field's class-level value is its default.

    A record is built from its fields by position or keyword; then its
    `__post_init__` method, where the class defines one, validates it (and
    may normalise a field with `object.__setattr__`).  Assignment and
    deletion raise.  Records are equal, and hash alike, when their classes
    are the same and their field values are equal; a class declared with
    ``eq=False`` compares and hashes by identity.  The methods are
    ordinary code shared by every record class, so defining one generates
    no code."""

    _fields: tuple = ()
    _defaults: dict = {}
    _tails: dict = {}  # n -> the defaults of the fields after the first n
    __post_init__ = None

    def __init_subclass__(cls, eq: bool = True, **kwargs):
        super().__init_subclass__(**kwargs)
        own = cls.__dict__.get("__annotations__", {})
        cls._fields = tuple(dict.fromkeys((*cls._fields, *own)))
        cls._defaults = {**cls._defaults, **{n: cls.__dict__[n] for n in own if n in cls.__dict__}}
        cls._tails = {n: tuple(cls._defaults[f] for f in cls._fields[n:])
                      for n in range(len(cls._fields)) if cls._defaults.keys() >= set(cls._fields[n:])}
        if not eq:
            cls.__eq__ = object.__eq__
            cls.__hash__ = object.__hash__

    def __init__(self, *args, **kwargs):
        fields = self._fields
        if kwargs or len(args) != len(fields):
            tail = None if kwargs else self._tails.get(len(args))
            args = self._arguments(args, kwargs) if tail is None else args + tail
        # object.__setattr__, as a frozen dataclass does: touching
        # self.__dict__ would give every record a dict of its own, which
        # takes more memory and makes reading a field slower (a counter, as
        # it is faster here than enumerate or zip)
        i = 0
        for name in fields:
            _set_field(self, name, args[i])
            i += 1
        if self.__post_init__ is not None:
            self.__post_init__()

    def _arguments(self, args: tuple, kwargs: dict) -> tuple:
        """The value of every field, from the positional values args, then
        the keyword values kwargs, then the defaults."""
        name = type(self).__name__
        if len(args) > len(self._fields):
            raise TypeError(f"{name} takes {len(self._fields)} fields, "
                            f"got {len(args)} positional values")
        later = self._fields[len(args):]
        unknown = [n for n in kwargs if n not in later]
        if unknown:
            raise TypeError(f"{name} got unknown or repeated fields {', '.join(map(repr, unknown))}")
        missing = [n for n in later if n not in kwargs and n not in self._defaults]
        if missing:
            raise TypeError(f"{name} is missing fields {', '.join(map(repr, missing))}")
        return (*args, *(kwargs[n] if n in kwargs else self._defaults[n] for n in later))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{n}={v!r}" for n, v in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({fields})"

    def replace(self, **changes):
        """A new record of this class with the given fields changed,
        validated as any new record is."""
        return type(self)(**{**dict(zip(self._fields, self._values())), **changes})


def polyval(x, c, tensor: bool = True):
    """sum_i c[i] x^i by Horner's rule, with the operations and the order of
    `numpy.polynomial.polynomial.polyval`, so with its bits, for float or
    complex coefficients: with tensor and an array x, every polynomial
    c[:, ...] at every x (one more axis per axis of x); without, each
    polynomial at its own x."""
    c = np.asarray(c)
    if tensor and isinstance(x, np.ndarray):
        c = c.reshape(c.shape + (1,) * x.ndim)
    c0 = c[-1] + x * 0
    for i in range(2, len(c) + 1):
        c0 = c[-i] + c0 * x
    return c0


def round12(x: float) -> float | None:
    """Round to 12 significant digits (round-half-even), for report output;
    None (JSON null) for inf and NaN, which strict JSON cannot hold."""
    x = float(x)
    if not math.isfinite(x):
        return None
    if x == 0.0:
        return x
    return float(f"{x:.12g}")


def _rounded12(values) -> tuple[list[float], np.ndarray, bool]:
    """float(f"{x:.12g}") of every distinct value (by bit pattern, so -0.0
    stays apart from 0.0), formatted in one batch; the index of each value
    among them; and whether any is inf or NaN (the only texts with an "n")."""
    bits, index = np.unique(np.asarray(values, dtype=float).view(np.int64),
                            return_inverse=True)
    text = ("%.12g " * len(bits)) % tuple(bits.view(float).tolist())
    return list(map(float, text.split())), index, "n" in text


def round12_all(values) -> list[float | None]:
    """[round12(x) for x in values], each distinct value rounded once."""
    out, index, nonfinite = _rounded12(values)
    if nonfinite:
        out = [x if math.isfinite(x) else None for x in out]
    return np.array(out, dtype=object)[index].tolist()


def json12_all(values) -> list[str]:
    """`json`'s text for round12(x) of every x, each distinct value
    formatted once: `float.__repr__` of the rounded value, "null" for inf
    and NaN."""
    out, index, nonfinite = _rounded12(values)
    text = ("%r " * len(out)) % tuple(out)
    if nonfinite:
        text = text.replace("-inf", "null").replace("inf", "null").replace("nan", "null")
    return np.array(text.split(), dtype=object)[index].tolist()


def fmt12(x: float) -> str:
    """Fixed 12-significant-digit text rendering of a float."""
    return f"{float(x):.12g}"


def fmt_complex(z: complex) -> str:
    re, im = fmt12(z.real), fmt12(abs(z.imag))
    if z.imag == 0:
        return re
    sign = "+" if z.imag >= 0 else "-"
    if z.real == 0:
        return f"{'-' if z.imag < 0 else ''}{im}i"
    return f"{re}{sign}{im}i"
