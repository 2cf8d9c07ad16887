"""Small shared helpers: report float formatting."""

from __future__ import annotations

import math


def round12(x: float) -> float | None:
    """Round to 12 significant digits (round-half-even), for report output;
    None (JSON null) for inf and NaN, which strict JSON cannot hold."""
    x = float(x)
    if not math.isfinite(x):
        return None
    if x == 0.0:
        return x
    return float(f"{x:.12g}")


class FloatCache(dict):
    """fn(x) for a float x, computed once per value: report values repeat
    (a root's parts across modes, zeros most of all).  -0.0 == 0.0 would
    share one entry, and the two print apart, so zeros are kept by sign,
    apart from the other values."""

    def __init__(self, fn=round12):
        super().__init__()
        self.fn = fn
        self.zeros = {}

    def __missing__(self, x: float):
        if x:
            self[x] = out = self.fn(x)
            return out
        sign = math.copysign(1.0, x)
        if sign not in self.zeros:
            self.zeros[sign] = self.fn(x)
        return self.zeros[sign]


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
