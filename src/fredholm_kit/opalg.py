"""Operator algebra on a boundary collar.

An operator is a finite sum over multi-indices

    P = sum_alpha a_alpha(r) * X^alpha1 * Y^alpha' * L^p

where X = r^a d/dr and Y_j = r^s d/dy_j are the frame fields of the
collar structure, L = r^(2s) * (cross-section Laplace-Beltrami operator,
analyst sign) is the frame-scaled second-order tangential generator, and
the coefficients a_alpha are finite sums r^nu * value * q(lambda) with
nu >= 0, value a scalar or k x k matrix, and q an optional polynomial
acting mode-diagonally in the eigenvalue lambda >= 0 of the nonnegative
cross-section Laplacian.  L acts on a mode as -lambda * r^(2s); a power
of L contributes -|eta|^2 to the principal symbol.

Operators, coefficients and their monomials are records (`_util.Record`)
in a canonical form (terms merged and sorted, values frozen, the true
order), so two operators with the same terms are equal however built.

Internally every operator is normal-ordered over the b generators
T = r d/dr, d/dy_j and the plain Laplacian, where the only nontrivial
commutation is T r^mu = r^mu (T + mu).  Composition, conjugation, and
coefficient freezing keep monomial coefficients monomial and drop no
term; their coefficient arithmetic rounds (`conjugate`).

Symbols are built in one place: `symbol_monomial` evaluates
(i xi)^a (-|eta|^2)^l prod_j (i eta_j)^p_j for a stack of covectors and
`symbol_stack` sums factor * value over the terms.  One term walker,
`_symbol_pieces`, feeds them the principal symbol (the ellipticity scans
and symbol floors here) and the full symbol of a frozen operator (the sc
and c_gamma limit operator, `fredholm.sc_invertible`), through
`_symbol_stack` at one radius; `is_elliptic` walks the terms once for
all its radii.  The half-space diagonal (`fredholm.half_space_sample`)
goes through `symbol_monomial` as well.  Mode actions are built in one
place too: `_mode_factor` gives q(lambda), the Laplacian powers and the
tangential partials on every channel of a table, for `apply` and for the
indicial family (`limitops.indicial_family`).

Symbols and mode factors are plain numpy products and powers over the
whole stack of covectors or channels.  They agree with a per-covector or
per-channel loop to rounding, not bit for bit; the reports print few
enough digits that none moves (tools/report_digest.txt).
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from ._util import Record, polyval
from .crosssec import ChannelTable, CrossSection, ModeTable, channels
from .liestruct import (
    FredholmKitError,
    LieStructure,
    NotRepresentableError,
    StructureKind,
    _nu_key,
)

_EXPANSION_TOL = 1e-9


def _is_matrix(v) -> bool:
    return isinstance(v, np.ndarray)


def _value_dim(v) -> int:
    return v.shape[0] if _is_matrix(v) else 1


def _value_zero(v) -> bool:
    if _is_matrix(v):
        return not np.any(v)
    return v == 0


def _value_norm(v) -> float:
    if _is_matrix(v):
        return float(np.linalg.norm(v, 2))
    return abs(v)


def _value_mul(a, b):
    if _is_matrix(a) and _is_matrix(b):
        return a @ b
    return a * b


def _freeze(v):
    if _is_matrix(v):
        out = np.array(v, dtype=complex)
        out.setflags(write=False)
        return out
    return complex(v)


def _poly_mul(p: tuple, q: tuple) -> tuple:
    out = [0j] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return tuple(out)


def _poly_trim(p: tuple) -> tuple:
    n = len(p)
    while n > 1 and p[n - 1] == 0:
        n -= 1
    return tuple(p[:n])


class MultiIndex(Record):
    """Derivative monomial exponents: radial frame power, explicit
    tangential partials (circle/torus coordinates), and powers of the
    frame-scaled cross-section Laplacian (each counting 2 toward the
    order)."""

    radial: int = 0
    cross: tuple[int, ...] = ()
    laplacian: int = 0

    def __post_init__(self):
        if self.radial < 0 or self.laplacian < 0 or any(c < 0 for c in self.cross):
            raise ValueError("multi-index entries must be nonnegative")
        # canonical form: no trailing zero partials
        cross = tuple(self.cross)
        while cross and cross[-1] == 0:
            cross = cross[:-1]
        object.__setattr__(self, "cross", cross)

    @property
    def total(self) -> int:
        return self.radial + sum(self.cross) + 2 * self.laplacian

    def _sort_key(self):
        return (-self.total, -self.radial, -self.laplacian, self.cross)


class CoeffTerm(Record):
    """One coefficient monomial r^nu * value * q(lambda); a matrix value compares by entries."""

    nu: float = 0.0
    value: complex | np.ndarray = 1.0
    lam_poly: tuple | None = None

    def __post_init__(self):
        if self.nu < 0:
            raise NotRepresentableError(
                f"coefficient exponent nu={self.nu:g} is negative; only r^nu with "
                "nu >= 0 is supported"
            )
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "value", _freeze(self.value))
        if self.lam_poly is not None:
            lam_poly = _poly_trim(tuple(complex(c) for c in self.lam_poly))
            object.__setattr__(self, "lam_poly", None if lam_poly == (1 + 0j,) else lam_poly)

    @property
    def lam_degree(self) -> int:
        return 0 if self.lam_poly is None else len(self.lam_poly) - 1

    @cached_property
    def norm(self) -> float:
        """||value||_2 (|value| for a scalar), computed once: the operators
        derived from one (`limitops.freeze_coefficients`) share its terms."""
        return _value_norm(self.value)

    def lam_value(self, lam: float) -> complex:
        if self.lam_poly is None:
            return 1.0 + 0j
        out = 0j
        for c in reversed(self.lam_poly):
            out = out * lam + c
        return out

    def __eq__(self, other):
        if not isinstance(other, CoeffTerm):
            return NotImplemented
        a, b = self.value, other.value
        return ((self.nu, self.lam_poly) == (other.nu, other.lam_poly)
                and _is_matrix(a) == _is_matrix(b)
                and (np.array_equal(a, b) if _is_matrix(a) else a == b))

    def __hash__(self):
        v = self.value.tobytes() if _is_matrix(self.value) else self.value
        return hash((self.nu, self.lam_poly, v))


class Coefficient(Record):
    """A finite sum of coefficient monomials, merged, nonzero and sorted."""

    terms: tuple[CoeffTerm, ...]

    def __post_init__(self):
        merged: dict[tuple, CoeffTerm] = {}
        for t in self.terms:
            key = (_nu_key(t.nu), t.lam_poly)
            if key in merged:
                prev = merged[key]
                merged[key] = CoeffTerm(prev.nu, prev.value + t.value, t.lam_poly)
            else:
                merged[key] = t
        kept = [t for t in merged.values() if not _value_zero(t.value)]
        dims = {_value_dim(t.value) for t in kept}
        if len(dims) > 1:
            raise ValueError("all matrix values in a coefficient must share a dimension")
        kept.sort(key=lambda t: (t.nu, t.lam_degree))
        object.__setattr__(self, "terms", tuple(kept))

    @staticmethod
    def constant(value) -> "Coefficient":
        return Coefficient([CoeffTerm(0.0, value)])

    @staticmethod
    def monomial(nu: float, value=1.0) -> "Coefficient":
        return Coefficient([CoeffTerm(nu, value)])

    @staticmethod
    def laplacian_poly(coeffs, nu: float = 0.0, value=1.0) -> "Coefficient":
        return Coefficient([CoeffTerm(nu, value, tuple(coeffs))])

    @property
    def system_size(self) -> int:
        return _value_dim(self.terms[0].value) if self.terms else 1

    def scaled(self, factor) -> "Coefficient":
        return Coefficient([CoeffTerm(t.nu, _value_mul(factor, t.value), t.lam_poly) for t in self.terms])

    def shifted(self, dnu: float) -> "Coefficient":
        return Coefficient([CoeffTerm(t.nu + dnu, t.value, t.lam_poly) for t in self.terms])


def _as_coefficient(v) -> Coefficient:
    return v if isinstance(v, Coefficient) else Coefficient.constant(v)


class BTerm(Record):
    """Normal-ordered term over the b generators:
    r^nu * value * q(lambda) * T^t * d/dy^cross * Lap^lap."""

    nu: float
    value: complex | np.ndarray
    lam_poly: tuple | None
    t: int
    cross: tuple[int, ...]
    lap: int


def _radial_frame_expansion(n: int, c: float) -> tuple:
    """(r^c T)^n = r^(n c) * prod_{i<n} (T + i c); returns the T-polynomial
    coefficients (ascending)."""
    poly = (1 + 0j,)
    for i in range(n):
        poly = _poly_mul(poly, (complex(i * c), 1 + 0j))
    return poly


def _round6(c: complex) -> float | complex:
    """A q(lambda) coefficient rounded to 6 digits, real when its imaginary
    part is 0; 0.0 + turns a signed zero into +0."""
    if c.imag == 0:
        return 0.0 + round(c.real, 6)
    return complex(0.0 + round(c.real, 6), 0.0 + round(c.imag, 6))


def _fmt_value(v: complex) -> str:
    """A coefficient value or matrix entry as `:g`, real when it is."""
    return f"{v.real if v.imag == 0 else v:g}"


def _raised(word: str, p: int) -> str:
    return word + (f"^{p}" if p > 1 else "")


def _render_terms(terms, radial: str, cross, laplacian: str, weight) -> str:
    """The display of a sorted term list: per coefficient term its value,
    weight(nu) for its r^nu, its q(lambda) and its frame monomial, whose
    fields read as radial, cross(j) (j from 1) and laplacian."""
    chunks = []
    for mi, co in terms:
        for ct in co.terms:
            factors = []
            val = ct.value
            if _is_matrix(val):
                rows = (", ".join(_fmt_value(v) for v in row) for row in val.tolist())
                factors.append("[" + ", ".join(f"[{r}]" for r in rows) + "]")
            elif val != 1 or (ct.nu == 0 and ct.lam_poly is None and mi.total == 0):
                factors.append(f"({_fmt_value(val)})")
            if ct.nu:
                factors.append(weight(ct.nu))
            if ct.lam_poly is not None:
                factors.append(f"q{tuple(_round6(c) for c in ct.lam_poly)}(lam)")
            if mi.radial:
                factors.append(_raised(radial, mi.radial))
            factors += [_raised(cross(j + 1), p) for j, p in enumerate(mi.cross) if p]
            if mi.laplacian:
                factors.append(_raised(laplacian, mi.laplacian))
            chunks.append(" ".join(factors) if factors else "1")
    return " + ".join(chunks)


class BoundaryOperator(Record):
    """A differential operator on the collar, canonically represented as a
    sorted tuple of (MultiIndex, Coefficient) pairs over the structure's
    frame monomials (given as pairs or a dict, a constant coefficient as
    its value); `order`, if given, must be the true order it then holds."""

    structure: LieStructure
    cross_section: CrossSection
    terms: tuple
    order: int | None = None

    def __post_init__(self):
        structure, cross_section = self.structure, self.cross_section
        if structure.cross_dim != cross_section.dimension:
            raise ValueError(
                f"structure collar ({structure.cross_dim}-dim cross) does not "
                f"match cross-section {cross_section} ({cross_section.dimension}-dim)"
            )
        merged: dict[MultiIndex, list] = {}
        items = self.terms.items() if isinstance(self.terms, dict) else self.terms
        for mi, coeff in items:
            if not isinstance(mi, MultiIndex):
                raise TypeError(f"cannot interpret {mi!r} as a multi-index")
            co = _as_coefficient(coeff)
            if len(mi.cross) > cross_section.coordinate_count:
                raise ValueError(
                    f"multi-index {mi} uses explicit tangential partials; "
                    f"cross-section {cross_section} supports them only via "
                    "Laplacian powers"
                )
            merged.setdefault(mi, []).append(co)
        canon = []
        for mi, cos in merged.items():
            # a coefficient is canonical already; only a repeated index merges
            co = cos[0] if len(cos) == 1 else Coefficient([t for c in cos for t in c.terms])
            if co.terms:
                canon.append((mi, co))
        canon.sort(key=lambda pair: pair[0]._sort_key())
        if not canon:
            raise ValueError("operator has no nonzero terms")
        if len({co.system_size for _, co in canon} - {1}) > 1:
            raise ValueError("inconsistent system sizes across coefficients")
        true_order = max(mi.total + 2 * ct.lam_degree for mi, co in canon for ct in co.terms)
        if self.order is not None and self.order != true_order:
            raise ValueError(
                f"declared order {self.order} does not match the leading terms "
                f"(true order {true_order})"
            )
        object.__setattr__(self, "terms", tuple(canon))
        object.__setattr__(self, "order", true_order)

    @cached_property
    def system_size(self) -> int:
        return max(co.system_size for _, co in self.terms)

    # -- rendering ---------------------------------------------------------

    def __str__(self):
        a, s = self.structure.radial_exponent, self.structure.cross_exponent
        return _render_terms(
            self.terms,
            radial="(r d/dr)" if a == 1 else f"(r^{a:g} d/dr)",
            cross=lambda j: f"d/dy{j}" if s == 0 else (
                f"(r d/dy{j})" if s == 1 else f"(r^{s:g} d/dy{j})"),
            laplacian="L",
            weight=lambda nu: "r" if nu == 1 else f"r^{nu:g}")

    def __repr__(self):
        return f"BoundaryOperator<{self.structure.kind.value}, {self.cross_section}; {self}>"

    # -- normal-ordered b form --------------------------------------------

    @cached_property
    def _bterms(self) -> tuple[BTerm, ...]:
        a = self.structure.radial_exponent
        s = self.structure.cross_exponent
        c = a - 1.0
        out = []
        for mi, co in self.terms:
            radial_poly = _radial_frame_expansion(mi.radial, c)
            shift = mi.radial * c + s * sum(mi.cross) + 2 * s * mi.laplacian
            for ct in co.terms:
                for j, rc in enumerate(radial_poly):
                    if rc == 0:
                        continue
                    out.append(BTerm(ct.nu + shift, _value_mul(rc, ct.value),
                                     ct.lam_poly, j, mi.cross, mi.laplacian))
        return tuple(out)

    def _from_bterms(self, bterms) -> "BoundaryOperator":
        """Regroup normal-ordered b terms into frame monomials (exact)."""
        a = self.structure.radial_exponent
        s = self.structure.cross_exponent
        c = a - 1.0
        groups: dict[tuple, dict] = {}
        for bt in bterms:
            gkey = (bt.cross, bt.lap, bt.lam_poly)
            g = groups.setdefault(gkey, {})
            key = (_nu_key(bt.nu), bt.t)
            if key in g:
                nu, val = g[key]
                g[key] = (nu, val + bt.value)
            else:
                g[key] = (bt.nu, bt.value)
        frame_terms: list[tuple[MultiIndex, Coefficient]] = []
        for (cross, lap, lam_poly), g in groups.items():
            shift = s * sum(cross) + 2 * s * lap
            entries = {k: v for k, v in g.items() if not _value_zero(v[1])}
            while entries:
                n = max(t for (_, t) in entries)
                radial_poly = _radial_frame_expansion(n, c)
                for (nu_k, t), (nu, val) in sorted(entries.items()):
                    if t != n:
                        continue
                    rel = nu - n * c - shift
                    if rel < -_EXPANSION_TOL:
                        raise NotRepresentableError(
                            f"product leaves the frame module: needs r^{rel:g} "
                            "coefficient"
                        )
                    rel = max(rel, 0.0)
                    mi = MultiIndex(n, cross, lap)
                    frame_terms.append(
                        (mi, Coefficient([CoeffTerm(rel, val, lam_poly)])))
                    # subtract the full b expansion of this frame term
                    for j, rc in enumerate(radial_poly):
                        if rc == 0:
                            continue
                        piece = _value_mul(rc, val)
                        key = (_nu_key(nu), j)
                        if key in entries:
                            nu0, v0 = entries[key]
                            entries[key] = (nu0, v0 - piece)
                        else:
                            entries[key] = (nu, _value_mul(-1.0, piece))
                entries = {k: v for k, v in entries.items() if not _value_zero(v[1])}
        return BoundaryOperator(self.structure, self.cross_section, frame_terms)

    # -- channels and application ------------------------------------------

    def needs_signed_modes(self) -> bool:
        """Signed lattice channels are needed when explicit tangential
        partials cannot be recovered from the eigenvalue alone (any odd
        power, or any partial on a torus of dimension >= 2)."""
        has_partial = any(any(mi.cross) for mi, _ in self.terms)
        if not has_partial:
            return False
        if self.cross_section.coordinate_count >= 2:
            return True
        return any(any(p % 2 for p in mi.cross) for mi, _ in self.terms)

    def mode_channels(self, table: ModeTable) -> ChannelTable:
        if table.cross_section != self.cross_section:
            raise ValueError("mode table belongs to a different cross-section")
        return channels(self.cross_section, table, self.needs_signed_modes())

    def apply(self, u: np.ndarray, grid: "RadialGrid", table: ModeTable) -> np.ndarray:
        """Act on mode-expanded samples u of shape (n_channels, n) or
        (n_channels, k, n) over the grid, channel by channel."""
        return _apply_bterms(self._bterms, self.system_size, self.mode_channels(table), grid, u)

    # -- algebra -------------------------------------------------------------

    @cached_property
    def tail_envelope(self) -> tuple[tuple[int, int, float], ...]:
        """The tail envelope of this operator read as a normal operator,
        as pieces (d, e, w): each bounds a non-principal term of its
        indicial family by w * delta^e * s^d on |Re z| <= delta
        (`fredholm.tail_bound`).  Computed once per operator."""
        m = self.order
        pieces = []
        for mi, co in self.terms:
            for ct in co.terms:
                q = ct.lam_poly or (1.0 + 0j,)
                qtop = len(q) - 1
                for i, qi in enumerate(q):
                    if qi == 0:
                        continue
                    for j in range(mi.radial + 1):
                        d = j + sum(mi.cross) + 2 * mi.laplacian + 2 * i
                        if d == m and j == mi.radial and i == qtop:
                            continue  # this piece is the principal symbol itself
                        pieces.append((d, mi.radial - j,
                                       ct.norm * abs(qi) * math.comb(mi.radial, j)))
        return tuple(pieces)


make_operator = BoundaryOperator


def identity_operator(structure, cross_section, k: int = 1) -> BoundaryOperator:
    value = np.eye(k, dtype=complex) if k > 1 else 1.0
    return BoundaryOperator(structure, cross_section, {MultiIndex(): value})


# ---------------------------------------------------------------------------
# grids and application
# ---------------------------------------------------------------------------


class RadialGrid(Record):
    """Uniform grid in the logarithmic variable t = log r on [t0, t1).

    Radial frame derivatives act by exact spectral differentiation in t,
    so the grid never touches r = 0 and functions are treated as periodic
    on the window; test data should decay at the window ends.
    """

    t0: float
    t1: float
    n: int

    def __post_init__(self):
        if self.t1 <= self.t0:
            raise ValueError("need t1 > t0")
        if self.n < 4:
            raise ValueError("need at least 4 grid points")

    @property
    def dt(self) -> float:
        return (self.t1 - self.t0) / self.n

    @cached_property
    def t(self) -> np.ndarray:
        return self.t0 + self.dt * np.arange(self.n)

    @cached_property
    def r(self) -> np.ndarray:
        return np.exp(self.t)

    @cached_property
    def ik(self) -> np.ndarray:
        return 2j * np.pi * np.fft.fftfreq(self.n, d=self.dt)


def _mode_factor(lam_poly, cross: tuple[int, ...], laplacian: int,
                 chans: ChannelTable) -> np.ndarray:
    """q(lambda) (-lambda)^laplacian (d/dy^cross) on every channel, one
    complex array.  q(lambda) is a Horner pass (`polyval`); a signed
    partial d/dy_j^p is (i v_j)^p of the channel frequencies v.  Unsigned
    circle channels admit even partials through lambda = k^2 only, as
    (-lambda)^(p/2)."""
    lams = chans.eigenvalues
    if lam_poly is None:
        factor = np.ones(len(chans), dtype=complex)
    else:
        factor = polyval(lams, lam_poly)
    if laplacian:
        factor = factor * (-lams) ** laplacian
    for j, p in enumerate(cross):
        if not p:
            continue
        if chans.vectors is not None:
            factor = factor * (1j * chans.vectors[:, j]) ** p
        elif p % 2 == 0 and len(cross) == 1:
            factor = factor * (-lams) ** (p // 2)
        else:
            raise FredholmKitError(
                "explicit tangential partials need signed mode channels")
    return factor


def _apply_bterms(bterms, k, chans, grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=complex)
    flat = u.ndim == 2
    if flat:
        if k != 1:
            raise ValueError(f"system operator (k={k}) needs samples of shape "
                             "(channels, k, n)")
        u = u[:, None, :]
    if u.shape[0] != len(chans):
        raise FredholmKitError(
            f"mode mismatch: {u.shape[0]} sample channels vs {len(chans)} "
            "operator channels")
    if u.shape[1] != k or u.shape[2] != grid.n:
        raise ValueError("sample array does not match system size or grid")
    spectra = np.fft.fft(u, axis=-1)
    out = np.zeros_like(u)
    for bt in bterms:
        w = np.fft.ifft(spectra * grid.ik ** bt.t, axis=-1) if bt.t else u
        if bt.nu:
            w = w * np.exp(bt.nu * grid.t)
        w = _mode_factor(bt.lam_poly, bt.cross, bt.lap, chans)[:, None, None] * w
        out += bt.value @ w if _is_matrix(bt.value) else bt.value * w
    return out[:, 0, :] if flat else out


# ---------------------------------------------------------------------------
# composition, conjugation, transforms
# ---------------------------------------------------------------------------


def compose(p: BoundaryOperator, q: BoundaryOperator) -> BoundaryOperator:
    """Exact symbolic product p ∘ q via b-normal ordering:
    T^n r^mu = r^mu (T + mu)^n."""
    if p.structure != q.structure or p.cross_section != q.cross_section:
        raise FredholmKitError("cannot compose operators on different collars")
    if p.system_size != q.system_size and 1 not in (p.system_size, q.system_size):
        raise FredholmKitError("incompatible system sizes")
    out = []
    for tp in p._bterms:
        for tq in q._bterms:
            mu = tq.nu
            lam = tp.lam_poly
            if tq.lam_poly is not None:
                lam = tq.lam_poly if lam is None else _poly_mul(lam, tq.lam_poly)
            value = _value_mul(tp.value, tq.value)
            cross_len = max(len(tp.cross), len(tq.cross))
            cross = tuple(
                (tp.cross[j] if j < len(tp.cross) else 0)
                + (tq.cross[j] if j < len(tq.cross) else 0)
                for j in range(cross_len))
            lap = tp.lap + tq.lap
            # move T^tp.t past r^mu
            for j in range(tp.t, -1, -1):
                binom = math.comb(tp.t, j) * mu ** (tp.t - j)
                if binom == 0:
                    continue
                out.append(BTerm(tp.nu + tq.nu, _value_mul(binom, value),
                                 lam, j + tq.t, cross, lap))
    return p._from_bterms(out)


def conjugate(p: BoundaryOperator, delta: float) -> BoundaryOperator:
    """r^(-delta) P r^(delta), via r d/dr -> r d/dr + delta: each term
    (r d/dr)^a becomes sum_j C(a, j) delta^(a - j) (r d/dr)^j.  The
    products C(a, j) delta^(a - j) c and their sums over terms are
    rounded in floating point, exact only where they fit the mantissa
    (delta on a coarse dyadic grid).  Elsewhere the indicial roots move
    by rounding, and a multiple root of P can become distinct simple
    roots close together: conjugate(T^2 + L, 0.12643404551702297) has on
    mode 0 the Mellin roots z = -delta +- 1.36e-9 i, T = r d/dr, where
    T^2 + L has a double root at 0."""
    if p.structure.kind is not StructureKind.B:
        raise FredholmKitError("weight conjugation is defined on the b frame only")
    delta = float(delta)
    new_terms = []
    for mi, co in p.terms:
        for j in range(mi.radial, -1, -1):
            factor = math.comb(mi.radial, j) * delta ** (mi.radial - j)
            if factor == 0:
                continue
            new_terms.append((MultiIndex(j, mi.cross, mi.laplacian), co.scaled(factor)))
    return BoundaryOperator(p.structure, p.cross_section, new_terms)


def kondratiev_transform(p: BoundaryOperator) -> str:
    """The text of a b operator rewritten on the full cylinder
    R x cross-section via t = log r: radial frame derivatives become d/dt
    and each coefficient monomial r^nu becomes e^(nu t), so the
    coefficients converge to the boundary values (`limitops.normal_operator`
    of p) as t -> -infinity.  p itself does the acting (`apply`)."""
    if p.structure.kind is not StructureKind.B:
        raise FredholmKitError(
            "the log-radius substitution applies to b-frame operators only")
    return _render_terms(p.terms, radial="(d/dt)", cross=lambda j: f"d/dy{j}",
                         laplacian="Lap", weight=lambda nu: "e^t" if nu == 1 else f"e^{nu:g}t")


# ---------------------------------------------------------------------------
# symbols and ellipticity
# ---------------------------------------------------------------------------


def _eta_vector(p: BoundaryOperator, eta) -> np.ndarray:
    d = p.cross_section.coordinate_count
    eta = np.atleast_1d(np.asarray(eta, dtype=float))
    if d > 0:
        if eta.shape != (d,):
            raise ValueError(f"covector eta must have {d} tangential components")
        return eta
    if eta.shape not in ((0,), (1,)):
        raise ValueError("covector eta must be a magnitude for this cross-section")
    return eta


def symbol_monomial(mi: MultiIndex, xi: np.ndarray, eta: np.ndarray,
                    eta2: np.ndarray) -> np.ndarray:
    """(i xi)^a (-|eta|^2)^l prod_j (i eta_j)^p_j for the multi-index
    (a, p, l), elementwise over n covectors: xi and eta2 have shape (n,),
    eta has shape (n, d).  |eta|^2 is an input because callers round it
    differently (a per-covector dot product or an elementwise sum)."""
    factor = (-eta2) ** mi.laplacian
    if mi.radial:
        factor = (1j * xi) ** mi.radial * factor
    for j, pw in enumerate(mi.cross):
        if pw:
            factor = factor * (1j * eta[:, j]) ** pw
    return factor


def symbol_stack(pieces, k: int, n: int) -> np.ndarray:
    """Sum of factor * value over (factor, value) pairs, where factor has
    shape (n,) and value is a scalar or a k x k matrix: an (n,) stack for
    k == 1, an (n, k, k) stack otherwise.  The pairs are added in order,
    with numpy's complex arithmetic."""
    acc = np.zeros((n, k, k), dtype=complex)
    for factor, value in pieces:
        if _is_matrix(value):
            acc += factor[:, None, None] * value
            continue
        piece = factor * value
        for i in range(k):
            acc[:, i, i] += piece
    return acc[:, 0, 0] if k == 1 else acc


def _symbol_pieces(p: BoundaryOperator, xi: np.ndarray, eta: np.ndarray,
                   eta2: np.ndarray, principal: bool = True):
    """(nu, factor, value) of every term of sigma_m(P) (of every term with
    principal=False) at n covectors, one term at a time: the term is
    r^nu * factor * value."""
    for mi, co in p.terms:
        for ct in co.terms:
            if principal and mi.total + 2 * ct.lam_degree != p.order:
                continue
            factor = symbol_monomial(mi, xi, eta, eta2)
            if ct.lam_degree:
                factor = factor * (ct.lam_poly[-1] * eta2 ** ct.lam_degree)
            yield ct.nu, factor, ct.value


def _at_radius(pieces, r: float):
    """The (factor, value) pairs of `_symbol_pieces` at radius r, one at a
    time, so that a single stack holds no more than its sum."""
    return ((factor * float(r) ** nu, value) for nu, factor, value in pieces)


def _symbol_stack(p: BoundaryOperator, r: float, xi: np.ndarray, eta: np.ndarray,
                  eta2: np.ndarray, principal: bool = True) -> np.ndarray:
    """sigma_m(P) at radius r for n covectors, as a symbol_stack.  With
    principal=False every term counts: the full symbol, which for a frozen
    operator without q(lambda) coefficients at r = 0 is the limit operator
    at an sc or c_gamma end."""
    pieces = _symbol_pieces(p, xi, eta, eta2, principal)
    return symbol_stack(_at_radius(pieces, r), p.system_size, xi.shape[0])


def principal_symbol(p: BoundaryOperator, r: float, xi: float, eta=()):
    """sigma_m(P) at radius r and covector (xi, eta) in the frame-rescaled
    cotangent variables; Laplacian powers contribute -|eta|^2 per power."""
    eta = _eta_vector(p, eta)
    sym = _symbol_stack(p, r, np.array([xi], dtype=float), eta[None, :],
                        np.array([np.dot(eta, eta)]))[0]
    return sym if p.system_size > 1 else complex(sym)


_COVECTOR_SEED = 20260809  # of the random directions sampled in dimensions above 3
FLOOR_DIRECTIONS = 720  # covector samples behind a symbol floor


@lru_cache(maxsize=None)
def unit_covectors(dim_total: int, n_dir: int,
                   magnitude_slot: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic samples of the unit covector sphere in R^dim_total,
    always including the coordinate axes (where degenerate symbols tend to
    vanish).  When the tangential slot is a magnitude, only eta >= 0 is
    sampled.  Returns xi (n,), eta (n, dim_total - 1) and |eta|^2 (n,),
    the last rounded as principal_symbol rounds it.  Computed once per
    argument triple; the arrays are read-only."""
    rows = [[sign if j == i else 0.0 for j in range(dim_total)]
            for i in range(dim_total) for sign in (1.0, -1.0)
            if not (magnitude_slot and i >= 1 and sign < 0)]
    if dim_total == 2:
        if magnitude_slot:
            th = np.linspace(0.0, np.pi, max(3, n_dir // 2 + 1))
        else:
            th = np.linspace(0.0, 2 * np.pi, max(4, n_dir), endpoint=False)
        rows += [[math.cos(a), math.sin(a)] for a in th]
    elif dim_total == 3:
        na = max(4, int(math.sqrt(n_dir)))
        rows += [[math.cos(a), math.sin(a) * math.cos(b), math.sin(a) * math.sin(b)]
                 for a in np.linspace(0.0, np.pi, na)
                 for b in np.linspace(0.0, 2 * np.pi, 2 * na, endpoint=False)]
    elif dim_total > 3:
        vecs = np.random.default_rng(_COVECTOR_SEED).normal(size=(n_dir, dim_total))
        rows += (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).tolist()
    rows = np.array(rows)
    eta = rows[:, 1:]
    # per-row dot products, as principal_symbol rounds |eta|^2: a sum or
    # einsum rounds it differently and moves four hyperbolic_laplacian reports
    out = rows[:, 0], eta, np.array([np.dot(e, e) for e in eta])
    for a in out:
        a.flags.writeable = False
    return out


def _covector_dim(p: BoundaryOperator) -> tuple[int, bool]:
    d = p.cross_section.coordinate_count
    if d > 0:
        return 1 + d, False
    if p.cross_section.dimension >= 1:
        return 2, True
    return 1, False


class EllipticityResult(Record):
    elliptic: bool
    min_abs_det: float
    witness_r: float
    witness_covector: tuple
    grid: tuple[int, int]

    def as_dict(self):
        return {
            "elliptic": self.elliptic,
            "min_abs_det": self.min_abs_det if math.isfinite(self.min_abs_det) else None,
            "witness_r": self.witness_r,
            "witness_covector": list(np.atleast_1d(np.array(self.witness_covector, dtype=float))),
            "threshold": _ELLIPTIC_THRESHOLD,
            "grid": list(self.grid),
        }


def _min_singular(stack: np.ndarray) -> float:
    """Smallest singular value over a symbol_stack (|value| for scalars)."""
    if stack.ndim == 1:
        return float(np.min(np.abs(stack)))
    return float(np.min(np.linalg.svd(stack, compute_uv=False)[:, -1]))


_ELLIPTIC_THRESHOLD = 1e-8  # on min |det sigma_m|, absolute
_ELLIPTIC_R_MAX = 1.0
_ELLIPTIC_RADII = 9
_ELLIPTIC_DIRECTIONS = 96


def is_elliptic(p: BoundaryOperator) -> EllipticityResult:
    """Sampled ellipticity check: min |det sigma_m| over _ELLIPTIC_RADII
    radii in [0, _ELLIPTIC_R_MAX] (including r = 0) and the unit covector
    sphere, against _ELLIPTIC_THRESHOLD.  The witness is the first minimum
    in (radius, direction) order.  The covector factors of the principal
    terms are built once and scaled by r^nu per radius; when no principal
    coefficient depends on r, every radius gives the row of r = 0 bit for
    bit (r^0 is 1), so that row alone is evaluated."""
    dim_total, mag = _covector_dim(p)
    xi, eta, eta2 = unit_covectors(dim_total, _ELLIPTIC_DIRECTIONS, mag)
    pieces = list(_symbol_pieces(p, xi, eta, eta2))
    rs = np.linspace(0.0, _ELLIPTIC_R_MAX, _ELLIPTIC_RADII)
    if not any(nu for nu, _, _ in pieces):
        rs = rs[:1]
    absdet = np.empty((rs.shape[0], xi.shape[0]))
    for row, r in zip(absdet, rs):
        sym = symbol_stack(_at_radius(pieces, r), p.system_size, xi.shape[0])
        with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, not a warning
            det = sym if sym.ndim == 1 else np.linalg.det(sym)
        row[:] = np.abs(det)
    i, j = np.unravel_index(np.argmin(absdet), absdet.shape)
    best = float(absdet[i, j])
    return EllipticityResult(best >= _ELLIPTIC_THRESHOLD, best, float(rs[i]),
                             (float(xi[j]), *(float(e) for e in eta[j])),
                             (_ELLIPTIC_RADII, xi.shape[0]))


def symbol_min_singular(p: BoundaryOperator) -> float:
    """min over FLOOR_DIRECTIONS unit covectors of the smallest singular
    value of sigma_m at r = 0 (used for quantitative tail bounds)."""
    dim_total, mag = _covector_dim(p)
    return _min_singular(_symbol_stack(p, 0.0, *unit_covectors(dim_total, FLOOR_DIRECTIONS, mag)))


# ---------------------------------------------------------------------------
# singular Schrodinger rewriting
# ---------------------------------------------------------------------------


def cgamma_rewrite(n: int, gamma: float, v0) -> tuple[float, BoundaryOperator]:
    """Rewrite Delta + r^(-2 gamma) V0 on R^n as r^(-factor) * P with P in
    the b frame (2 gamma in {0, 1, 2}) or in the c_gamma frame (gamma > 1).

    Delta is the analyst's Laplacian; on smooth functions supported in
    r > 0 the identity r^(-factor) P = Delta + r^(-2 gamma) V0 holds
    exactly.  Gamma in (0, 1) other than 1/2 is rejected: those exponents
    need a modified calculus this toolkit does not model.
    """
    if n < 2:
        raise ValueError("ambient dimension n must be >= 2")
    gamma = float(gamma)
    if not math.isfinite(gamma) or gamma < 0:
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma}")
    v0 = _as_coefficient(v0)
    cross = CrossSection.sphere(n - 1)
    if 2 * gamma in (0.0, 1.0, 2.0):
        factor = 2.0
        structure = LieStructure.b(n - 1)
        terms = [
            (MultiIndex(2), Coefficient.constant(1.0)),
            (MultiIndex(0, (), 1), Coefficient.constant(1.0)),
            (MultiIndex(0), v0.shifted(2.0 - 2.0 * gamma)),
        ]
        if n != 2:
            terms.append((MultiIndex(1), Coefficient.constant(float(n - 2))))
        return factor, BoundaryOperator(structure, cross, terms)
    if gamma > 1:
        factor = 2.0 * gamma
        structure = LieStructure.c_gamma(gamma, n - 1)
        terms = [
            (MultiIndex(2), Coefficient.constant(1.0)),
            (MultiIndex(0, (), 1), Coefficient.constant(1.0)),
            (MultiIndex(0), v0),
        ]
        if n - 1 - gamma != 0:
            terms.append(
                (MultiIndex(1), Coefficient.monomial(gamma - 1.0, float(n) - 1.0 - gamma)))
        return factor, BoundaryOperator(structure, cross, terms)
    raise NotRepresentableError(
        f"gamma={gamma:g} lies in (0,1) with 2*gamma not in {{0,1,2}}; the "
        "rescaled frames implemented here do not cover that range"
    )


# ---------------------------------------------------------------------------
# built-in model operators
# ---------------------------------------------------------------------------


def make_model(name: str, **params) -> BoundaryOperator:
    """Construct a named model operator.

    polar_laplacian            (r d/dr)^2 + d_theta^2 on the half-plane collar
    spherical_schrodinger      (r d/dr)^2 + (n-2) r d/dr + Lap_S + Z r
    black_scholes              (sigma^2/2)(x d/dx)^2 + (rate - sigma^2/2) x d/dx - rate
    cyl_coord_laplacian        (r d/dr)^2 + d_theta^2 + (r d/dz)^2  (mixed scalings)
    cgamma_schrodinger         rescaled singular Schrodinger operator (n, gamma, V0)
    sc_laplacian               (r^2 d/dr)^2 + L + shift on a conical collar
    hyperbolic_laplacian       -(r d/dr)^2 + d r d/dr - L + shift (zero frame)

    The overall singular prefactor (r^-2 or r^-2 gamma) is already removed;
    cross-section Laplacians carry the analyst sign (-lambda on modes).  A
    model checks as its explicit spec does: the mixed-scaling caveat of
    cyl_coord_laplacian, whose (r d/dz)^2 scales as in the sc frame, is
    read from its terms (`fredholm.fredholm_check`).
    """
    try:
        factory = _MODELS[name]
    except KeyError:
        raise FredholmKitError(
            f"unknown model {name!r}; available: {', '.join(sorted(_MODELS))}"
        ) from None
    return factory(**params)


def _model_polar_laplacian() -> BoundaryOperator:
    return BoundaryOperator(
        LieStructure.b(1), CrossSection.circle(),
        {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0})


def _model_spherical_schrodinger(n: int = 3, Z=1.0) -> BoundaryOperator:
    if n < 2:
        raise ValueError("spherical coordinates need n >= 2")
    terms = {
        MultiIndex(2): Coefficient.constant(1.0),
        MultiIndex(0, (), 1): Coefficient.constant(1.0),
        MultiIndex(0): Coefficient.monomial(1.0, complex(Z)),
    }
    if n != 2:
        terms[MultiIndex(1)] = Coefficient.constant(float(n - 2))
    return BoundaryOperator(LieStructure.b(n - 1), CrossSection.sphere(n - 1), terms)


def _model_black_scholes(sigma: float = 1.0, rate: float = 0.0) -> BoundaryOperator:
    if sigma <= 0:
        raise ValueError("volatility sigma must be positive")
    terms = {
        MultiIndex(2): 0.5 * sigma * sigma,
        MultiIndex(1): rate - 0.5 * sigma * sigma,
        MultiIndex(0): -rate,
    }
    return BoundaryOperator(LieStructure.b(0), CrossSection.generic([[0.0]]), terms)


def _model_cyl_coord_laplacian() -> BoundaryOperator:
    return BoundaryOperator(
        LieStructure.b(2), CrossSection.torus(2),
        {
            MultiIndex(2): Coefficient.constant(1.0),
            MultiIndex(0, (2, 0), 0): Coefficient.constant(1.0),
            MultiIndex(0, (0, 2), 0): Coefficient.monomial(2.0, 1.0),
        })


def _model_cgamma_schrodinger(n: int = 3, gamma: float = 2.0, V0=1.0) -> BoundaryOperator:
    return cgamma_rewrite(n, gamma, V0)[1]


def _model_sc_laplacian(cross_dim: int = 2, shift: float = 0.0) -> BoundaryOperator:
    terms = {MultiIndex(2): 1.0, MultiIndex(0, (), 1): 1.0}
    if shift:
        terms[MultiIndex(0)] = complex(shift)
    return BoundaryOperator(LieStructure.sc(cross_dim),
                            CrossSection.sphere(cross_dim), terms)


def _model_hyperbolic_laplacian(cross_dim: int = 1, shift: float = 0.0) -> BoundaryOperator:
    terms = {
        MultiIndex(2): -1.0,
        MultiIndex(1): float(cross_dim),
        MultiIndex(0, (), 1): -1.0,
    }
    if shift:
        terms[MultiIndex(0)] = complex(shift)
    return BoundaryOperator(LieStructure.zero(cross_dim),
                            CrossSection.torus(cross_dim), terms)


_MODELS = {
    "polar_laplacian": _model_polar_laplacian,
    "spherical_schrodinger": _model_spherical_schrodinger,
    "black_scholes": _model_black_scholes,
    "cyl_coord_laplacian": _model_cyl_coord_laplacian,
    "cgamma_schrodinger": _model_cgamma_schrodinger,
    "sc_laplacian": _model_sc_laplacian,
    "hyperbolic_laplacian": _model_hyperbolic_laplacian,
}


def builtin_suite() -> list[tuple[str, BoundaryOperator]]:
    """The demo instances of every built-in model, used by the oracle suite."""
    return [
        ("polar_laplacian", make_model("polar_laplacian")),
        ("spherical_schrodinger(3,1)", make_model("spherical_schrodinger", n=3, Z=1.0)),
        ("black_scholes(1,0)", make_model("black_scholes", sigma=1.0, rate=0.0)),
        ("cyl_coord_laplacian", make_model("cyl_coord_laplacian")),
        ("sc_laplacian(2,-1)", make_model("sc_laplacian", cross_dim=2, shift=-1.0)),
        ("hyperbolic_laplacian(1,+1)", make_model("hyperbolic_laplacian", cross_dim=1, shift=1.0)),
        ("cgamma_schrodinger(3,2,1)", make_model("cgamma_schrodinger", n=3, gamma=2.0, V0=1.0)),
    ]


def default_mode_cutoff(p: BoundaryOperator) -> float:
    """Default spectral cutoff: 10 * (max coefficient magnitude) * order^2."""
    scale = max(ct.norm * max(1.0, sum(abs(c) for c in (ct.lam_poly or (1,))))
                for _, co in p.terms for ct in co.terms)
    return max(1.0, 10.0 * scale * max(1, p.order) ** 2)
