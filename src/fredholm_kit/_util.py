"""Small shared helpers: report float formatting."""

from __future__ import annotations

import math

import numpy as np


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
