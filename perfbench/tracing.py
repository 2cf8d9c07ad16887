"""Spans and counters around fredholm-kit's layers, recorded from the
benchmark's side: each public function is replaced, in the module that
looks it up, by a wrapper that records a span (name, start, end, parent)
or bumps a counter read from the returned object.  Nothing in the
program changes; the wrappers exist only in traced runs.
"""

from __future__ import annotations

import time
from collections import Counter

# per-layer metrics: self-time spans in seconds, then counts
SPAN_METRICS = (
    "cli.parse_spec", "cli.render_report", "crosssec.spectrum",
    "limitops.indicial_family", "limitops.det_poly", "opalg.is_elliptic",
    "opalg.symbol_min_singular", "fredholm.indicial_roots",
    "fredholm.certified_weight_range", "fredholm.sc_invertible",
    "fredholm.fredholm_check", "numoracle.brute_roots", "numoracle.scan_line",
    "numoracle.half_space_sample", "numoracle.cross_check",
)
COUNT_METRICS = (
    "crosssec.modes", "crosssec.channels", "limitops.distinct_polys",
    "limitops.det_poly_calls", "opalg.symbol_evals", "fredholm.roots",
    "fredholm.tail_bound_calls", "fredholm.sc_grid_points",
    "numoracle.brute_roots_calls", "numoracle.brute_roots_failed",
    "numoracle.scan_evals", "numoracle.half_space_svds",
)


class Tracer:
    """Spans kept in memory; one flat list, parents by index."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def span(self, name: str, fn, count=None):
        def wrapped(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                if count is not None:
                    count(self.counts, args, None)
                raise
            finally:
                self.spans[idx][2] = time.perf_counter()
                self.stack.pop()
            if count is not None:
                count(self.counts, args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def counter(self, fn, count):
        def wrapped(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, result)
            return result

        wrapped.__wrapped__ = fn
        return wrapped

    def self_times(self) -> dict[str, float]:
        """Per span name: total duration minus the duration of its
        children."""
        out: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            out[name] = out.get(name, 0.0) + (end - start)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                pname = self.spans[parent][0]
                out[pname] -= end - start
        return out

    def take(self) -> dict:
        """Self times and counts since the last take, then reset."""
        if self.stack:
            raise RuntimeError("take() inside an open span")
        times = self.self_times()
        out = {f"{name}_s": times.get(name, 0.0) for name in SPAN_METRICS}
        out.update({name: self.counts.get(name, 0) for name in COUNT_METRICS})
        self.spans.clear()
        self.counts.clear()
        return out


# ---------------------------------------------------------------------------
# counters read from arguments and returned objects (result None: raised)
# ---------------------------------------------------------------------------


def _spectrum(c, args, table):
    if table is not None:
        c["crosssec.modes"] += len(table)


def _family(c, args, fam):
    if fam is not None:
        c["crosssec.channels"] += len(fam.channels)
        c["limitops.distinct_polys"] += len({p.tobytes() for p in fam.polys.values()})


def _det_poly(c, args, det):
    c["limitops.det_poly_calls"] += 1


def _principal_symbol(c, args, value):
    c["opalg.symbol_evals"] += 1


def _roots(c, args, roots):
    if roots is not None:
        c["fredholm.roots"] += len(roots)


def _tail_bound(c, args, tb):
    c["fredholm.tail_bound_calls"] += 1


def _sc_grid(c, args, value):
    n = 1
    for axis in args[1]:
        n *= len(axis)
    c["fredholm.sc_grid_points"] += n


def _brute(c, args, found):
    c["numoracle.brute_roots_calls"] += 1
    if found is None:
        c["numoracle.brute_roots_failed"] += 1


def _scan(c, args, scan):
    if scan is not None:
        c["numoracle.scan_evals"] += sum(s["points"] for s in scan.ladder) * len(args[0].channels)


def _half_space(c, args, scan):
    if scan is not None:
        c["numoracle.half_space_svds"] += len(scan.min_singular)


def install(tracer: Tracer):
    """Wrap the layers where fredholm-kit looks them up, for the rest of
    the process."""
    from fredholm_kit import cli, crosssec, fredholm, limitops, numoracle, opalg

    def spans(name, fn, owners, count=None):
        w = tracer.span(name, fn, count)
        for owner in owners:
            setattr(owner, fn.__name__, w)

    spans("cli.parse_spec", cli.parse_spec, [cli])
    spans("cli.render_report", cli.render_report, [cli])
    spans("fredholm.fredholm_check", fredholm.fredholm_check, [cli, fredholm])
    spans("numoracle.cross_check", numoracle.cross_check, [cli, numoracle])
    spans("crosssec.spectrum", crosssec.spectrum, [fredholm, numoracle], _spectrum)
    spans("limitops.indicial_family", limitops.indicial_family, [fredholm, numoracle],
          _family)
    setattr(limitops.IndicialFamily, "det_poly",
        tracer.span("limitops.det_poly", limitops.IndicialFamily.det_poly, _det_poly))
    spans("opalg.is_elliptic", opalg.is_elliptic, [fredholm])
    spans("opalg.symbol_min_singular", opalg.symbol_min_singular, [fredholm])
    setattr(opalg, "principal_symbol", tracer.counter(opalg.principal_symbol, _principal_symbol))
    spans("fredholm.indicial_roots", fredholm.indicial_roots, [fredholm], _roots)
    spans("fredholm.certified_weight_range", fredholm.certified_weight_range, [fredholm])
    setattr(fredholm, "tail_bound", tracer.counter(fredholm.tail_bound, _tail_bound))
    spans("fredholm.sc_invertible", fredholm.sc_invertible, [fredholm])
    setattr(fredholm, "_sc_eval_grid", tracer.counter(fredholm._sc_eval_grid, _sc_grid))
    spans("numoracle.brute_roots", numoracle.brute_roots, [numoracle], _brute)
    spans("numoracle.scan_line", numoracle.scan_line, [numoracle], _scan)
    spans("numoracle.half_space_sample", numoracle.half_space_sample, [numoracle],
          _half_space)
