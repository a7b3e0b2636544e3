"""Scheme data model, grid sequences and stencil taps.

The objects here describe explicit multi-level finite difference schemes
for a first order hyperbolic system on the half-line j >= 1-r.  One time
step advances

    U_j^{n+1} = sum_{sigma=0}^{s} (Q_sigma U^{n-sigma})_j + dt * F_j^n      (j >= 1)
    U_j^{n+1} = sum_{sigma=-1}^{s} (B_{j,sigma} U^{n-sigma})_1 + g_j^{n+1}  (1-r <= j <= 0)

with Q_sigma = sum_{ell=-r}^{p} A[ell,sigma] T^ell and
B_{j,sigma} = sum_{ell=0}^{q} B[ell,j,sigma] T^ell, where T is the
spatial shift (T^ell v)_j = v_{j+ell}.  D = T - I denotes the forward
difference.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

SCHEME_SCHEMA_VERSION = 1

#: tolerance used for the consistency flag sum_{ell,sigma} A[ell,sigma] = I
CONSISTENCY_TOL = 1e-12

#: singular values below this fail the sampled invertibility check
NONCHARACTERISTIC_TOL = 1e-10
#: |z| circles and points per circle of the sampled invertibility check
NONCHARACTERISTIC_RADII = (1.0, 1.5, 2.0, 3.0, 4.0)
NONCHARACTERISTIC_NTHETA = 32


class SchemeError(ValueError):
    """Malformed or inconsistent scheme data."""


class RangeError(IndexError):
    """A grid index outside the valid range of a sequence was requested."""


# ---------------------------------------------------------------------------
# scheme definition


@dataclass(frozen=True, eq=False)
class SchemeDef:
    """Explicit multi-level difference scheme with boundary closure.

    Parameters
    ----------
    N : int
        Number of unknowns per grid point.
    r, p : int
        Left and right stencil widths of the interior operators (r >= 1).
    q : int
        Right stencil width of the boundary rows.
    s : int
        Number of extra time levels (two-level scheme: s = 0).
    lam : float
        Grid ratio dt/dx, positive and finite, fixed once and for all.
    interior : ndarray, shape (p+r+1, s+1, N, N)
        Finite real coefficients A[ell, sigma], indexed by [ell+r, sigma].
    boundary : ndarray, shape (q+1, r, s+2, N, N)
        Finite real coefficients B[ell, j, sigma], indexed by
        [ell, j-(1-r), sigma+1]; sigma = -1 couples to the new time level.
    label : str
        Optional human-readable name used in reports.
    """

    N: int
    r: int
    p: int
    q: int
    s: int
    lam: float
    interior: np.ndarray
    boundary: np.ndarray
    label: str = ""

    def __post_init__(self):
        if self.N < 1 or self.r < 1 or self.p < 0 or self.q < 0 or self.s < 0:
            raise SchemeError(
                f"need N>=1, r>=1, p,q,s>=0; got N={self.N} r={self.r} "
                f"p={self.p} q={self.q} s={self.s}"
            )
        if not (0 < self.lam < math.inf):
            raise SchemeError(
                f"grid ratio lambda must be positive and finite, got {self.lam}"
            )
        interior = np.asarray(self.interior, dtype=float)
        boundary = np.asarray(self.boundary, dtype=float)
        if interior.shape != (self.p + self.r + 1, self.s + 1, self.N, self.N):
            raise SchemeError(
                f"interior shape {interior.shape} != "
                f"{(self.p + self.r + 1, self.s + 1, self.N, self.N)}"
            )
        if boundary.shape != (self.q + 1, self.r, self.s + 2, self.N, self.N):
            raise SchemeError(
                f"boundary shape {boundary.shape} != "
                f"{(self.q + 1, self.r, self.s + 2, self.N, self.N)}"
            )
        for name, arr in (("interior", interior), ("boundary", boundary)):
            if not np.isfinite(arr).all():
                raise SchemeError(f"{name} coefficients must be finite")
        interior.setflags(write=False)
        boundary.setflags(write=False)
        object.__setattr__(self, "interior", interior)
        object.__setattr__(self, "boundary", boundary)

    # -- coefficient access ------------------------------------------------

    def A(self, ell: int, sigma: int) -> np.ndarray:
        """Interior coefficient A[ell, sigma], ell in [-r, p], sigma in [0, s]."""
        if not (-self.r <= ell <= self.p) or not (0 <= sigma <= self.s):
            raise RangeError(f"A[{ell},{sigma}] outside declared ranges")
        return self.interior[ell + self.r, sigma]

    def B(self, ell: int, j: int, sigma: int) -> np.ndarray:
        """Boundary coefficient B[ell, j, sigma], ell in [0,q], j in [1-r,0],
        sigma in [-1, s]."""
        if (
            not (0 <= ell <= self.q)
            or not (1 - self.r <= j <= 0)
            or not (-1 <= sigma <= self.s)
        ):
            raise RangeError(f"B[{ell},{j},{sigma}] outside declared ranges")
        return self.boundary[ell, j - (1 - self.r), sigma + 1]

    @cached_property
    def tap_table(self) -> tuple:
        """(interior, boundary), the nonzero taps, built once per scheme for
        every reader: ``interior[sigma]`` lists the (ell, A[ell, sigma]) of
        Q_sigma, ``boundary[k]`` the (sigma, taps) of row j = k + 1 - r with
        taps the (ell, B[ell, j, sigma]), sigmas without a nonzero tap left
        out.  Each list runs in ascending order."""
        nonzero = lambda pairs: tuple((ell, m) for ell, m in pairs if m.any())
        interior = tuple(nonzero((ell, self.A(ell, sigma)) for ell in range(-self.r, self.p + 1))
                         for sigma in range(self.s + 1))
        boundary = tuple(tuple((sigma, taps) for sigma in range(-1, self.s + 1) if (taps := nonzero(
            (ell, self.B(ell, j, sigma)) for ell in range(self.q + 1)))) for j in range(1 - self.r, 1))
        return interior, boundary

    def interior_op(self, sigma: int) -> "DifferenceOp":
        """The operator Q_sigma as a DifferenceOp."""
        if not 0 <= sigma <= self.s:
            raise RangeError(f"Q_{sigma} outside declared range [0, {self.s}]")
        return DifferenceOp(dict(self.tap_table[0][sigma]) or {0: np.zeros((self.N, self.N))})

    def consistency_sum(self) -> np.ndarray:
        """sum over all (ell, sigma) of A[ell, sigma]; equals I if consistent."""
        return self.interior.sum(axis=(0, 1))


# ---------------------------------------------------------------------------
# grid sequences


@dataclass(frozen=True, eq=False)
class GridSequence:
    """Vector-valued sequence on a contiguous integer index range.

    ``values[k]`` holds the vector at grid index ``offset + k``.  With
    ``implicit_zero`` the sequence is treated as zero outside the stored
    range (finitely supported); otherwise out-of-range access is an error.
    """

    offset: int
    values: np.ndarray
    implicit_zero: bool = False

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.ndim == 1:
            values = values[:, None]
        if values.ndim != 2 or values.shape[0] == 0:
            raise SchemeError(f"values must be (L, N) with L >= 1, got {values.shape}")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)

    @classmethod
    def zeros(cls, offset: int, length: int, N: int = 1, implicit_zero: bool = False):
        return cls(offset, np.zeros((length, N), dtype=complex), implicit_zero)

    @property
    def N(self) -> int:
        return self.values.shape[1]

    @property
    def last(self) -> int:
        """Largest stored index."""
        return self.offset + len(self.values) - 1

    def __len__(self) -> int:
        return self.values.shape[0]

    def get(self, j: int) -> np.ndarray:
        """Value at grid index j (zero-padded when implicit_zero)."""
        k = j - self.offset
        if 0 <= k < len(self.values):
            return self.values[k]
        if self.implicit_zero:
            return np.zeros(self.N, dtype=complex)
        raise RangeError(f"index {j} outside stored range [{self.offset}, {self.last}]")

    def window(self, jmin: int, jmax: int) -> np.ndarray:
        """Values on [jmin, jmax] as an array, zero-padded if implicit_zero."""
        if jmax < jmin:
            raise RangeError(f"empty window [{jmin}, {jmax}]")
        if not self.implicit_zero and (jmin < self.offset or jmax > self.last):
            raise RangeError(
                f"window [{jmin}, {jmax}] outside stored range "
                f"[{self.offset}, {self.last}]"
            )
        out = np.zeros((jmax - jmin + 1, self.N), dtype=complex)
        lo = max(jmin, self.offset)
        hi = min(jmax, self.last)
        if lo <= hi:
            out[lo - jmin : hi - jmin + 1] = self.values[
                lo - self.offset : hi - self.offset + 1
            ]
        return out

    def norm_sq(self, dx: float = 1.0) -> float:
        """dx-weighted squared l2 norm of the stored values."""
        return float(dx * np.sum(np.abs(self.values) ** 2))


# ---------------------------------------------------------------------------
# stencil taps


@dataclass(frozen=True, eq=False)
class DifferenceOp:
    """Finite linear combination of shifts: (P u)_j = sum_ell taps[ell] u_{j+ell}."""

    taps: dict

    def __post_init__(self):
        if not self.taps:
            raise SchemeError("operator needs at least one tap")
        N = None
        taps = {}
        for ell, m in sorted(self.taps.items()):
            m = np.asarray(m, dtype=float)
            if m.ndim == 0:
                m = m[None, None]
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise SchemeError(f"tap {ell} is not square: {m.shape}")
            if N is None:
                N = m.shape[0]
            elif m.shape[0] != N:
                raise SchemeError("taps have mismatched sizes")
            m.setflags(write=False)
            taps[int(ell)] = m
        object.__setattr__(self, "taps", taps)

    @property
    def N(self) -> int:
        return next(iter(self.taps.values())).shape[0]

    @property
    def ell_min(self) -> int:
        return min(self.taps)

    @property
    def ell_max(self) -> int:
        return max(self.taps)


def apply_op(op: DifferenceOp, u: GridSequence) -> GridSequence:
    """Apply a shift-polynomial operator to a sequence.

    Without implicit zeros the valid range shrinks by the stencil extent:
    the result lives on [offset - ell_min, last - ell_max].  With implicit
    zeros the result covers the full support [offset - ell_max, last - ell_min].
    """
    if op.N != u.N:
        raise SchemeError(f"operator size {op.N} != sequence size {u.N}")
    if u.implicit_zero:
        new_off = u.offset - op.ell_max
        new_len = len(u) + (op.ell_max - op.ell_min)
    else:
        new_off = u.offset - op.ell_min
        new_len = len(u) - (op.ell_max - op.ell_min)
        if new_len <= 0:
            raise RangeError(
                f"stencil extent {op.ell_max - op.ell_min} exceeds sequence "
                f"length {len(u)}"
            )
    out = np.zeros((new_len, u.N), dtype=complex)
    # rows j = new_off .. new_off+new_len-1 read u_{j+ell}
    taps = _resolved_taps([(0, op.taps.items())], complex)
    if u.implicit_zero:
        source = u.window(new_off + op.ell_min, new_off + new_len - 1 + op.ell_max)
        _apply_taps(out, (source,), -op.ell_min, taps)
    else:
        _apply_taps(out, (u.values,), new_off - u.offset, taps)
    return GridSequence(new_off, out, u.implicit_zero)


def _resolved_taps(rows, dtype: type) -> tuple:
    """The taps of ``rows``, each a (k, [(ell, M), ...]) pair, as one flat
    tuple of (k, ell, c) in order, the form ``_apply_taps`` reads: c is
    M.T, or for a 1x1 tap its entry as a 0-d array of ``dtype``, the
    sources' dtype, which numpy multiplies without the conversion it makes
    of a Python scalar.  ``tap_table``'s lists fit as they are, k = sigma."""
    return tuple((k, ell, np.array(m[0, 0], dtype) if m.size == 1 else m.T)
                 for k, pairs in rows for ell, m in pairs)


def _apply_taps(out: np.ndarray, sources, start: int, taps, zero=None) -> None:
    """out += sources[k][start+ell : start+ell+len(out)] * c for each (k, ell, c)
    in ``taps`` (see ``_resolved_taps``), a matrix c by a matmul.

    The only loop in the package that applies stencil taps.  Terms are
    added in the order given, so callers that pass the taps in sigma, then
    ell order get the same bits as a step written out tap by tap.  A 1x1
    tap is one product per entry, with the matmul's bits unless out is -0.0.

    Given ``zero``, a 0-d +0.0 of out's dtype, out is overwritten: the
    first product is written into it, the others added, and a closing
    += zero turns -0.0 into +0.0.  A sum started from its first term
    differs from one started from +0.0 only where it is -0.0, so out gets
    the bits of a zero fill followed by the same additions.
    """
    m, write = len(out), zero is not None
    for k, ell, c in taps:
        window = sources[k][start + ell : start + ell + m]
        if write:
            (np.matmul if c.ndim else np.multiply)(window, c, out=out)
            write = False
        else:
            out += window @ c if c.ndim else window * c
    if write:  # no taps: the empty sum
        out[...] = zero
    elif zero is not None:
        out += zero


def difference_power_taps(k: int) -> dict:
    """Scalar taps of D^k: D^k = sum_m (-1)^{k-m} C(k,m) T^m."""
    return {m: float((-1) ** (k - m) * math.comb(k, m)) for m in range(k + 1)}


def discrete_derivative(u: GridSequence, k: int) -> GridSequence:
    """k-th forward difference D^k u via binomial taps (k = 0 copies u)."""
    if k < 0:
        raise SchemeError("negative difference order")
    if k == 0:
        return u
    taps = {m: c * np.eye(u.N) for m, c in difference_power_taps(k).items()}
    return apply_op(DifferenceOp(taps), u)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    consistent: bool
    consistency_residual: float
    noncharacteristic_ok: bool
    min_sv_left: float
    min_sv_right: float
    messages: tuple

    @property
    def ok(self) -> bool:
        return self.consistent and self.noncharacteristic_ok


def _laurent(coeffs: np.ndarray, exponents, points) -> np.ndarray:
    """sum_k x**exponents[k] * coeffs[k] for each x in ``points``, stacked.

    Every power is x**e on the scalar x: one ``np.power`` table covers a
    complex128 array and the np.complex128 entries of a list, as numpy
    rounds both alike, and any other entry (a Python complex or float,
    whose 1/x**n CPython rounds unlike numpy) takes its own x**e.  The
    terms are added in the order given, so with real or imaginary
    coefficients, all that callers pass, a value is the same bit for bit
    alone or in a stack (numpy's array loop may fuse a general complex
    product's multiply-add).
    """
    if isinstance(points, np.ndarray) and points.dtype == complex:
        own = []
    else:
        own = [i for i, x in enumerate(points) if type(x) is not np.complex128]
    if len(own) == len(points):
        powers = np.array([[x**e for e in exponents] for x in points])
    else:
        powers = np.power(np.asarray(points, dtype=complex)[:, None], exponents)
        if own:
            powers[own] = [[points[i] ** e for e in exponents] for i in own]
    powers = powers.reshape((len(points), len(exponents)) + (1,) * (coeffs.ndim - 1))
    out = np.zeros((len(points),) + coeffs.shape[1:], dtype=complex)
    for k, c in enumerate(coeffs):
        out += powers[:, k] * c
    return out


def _resolvent_stack(scheme: SchemeDef, zs, derivative: bool = False) -> tuple:
    """RA_l(z) and RB_{l,j}(z) for each z in ``zs``, stacked on the first axis.

    RA_l(z) = delta_{l0} I - sum_sigma z^{-sigma-1} A[l, sigma] at
    ``RA[i, l + r]``; RB_{l,j}(z) = sum_sigma z^{-sigma-1} B[l, j, sigma] at
    ``RB[i, l, j - (1-r)]``.  Both are Laurent polynomials in the powers
    z^0 .. z^{-s-1}, so one evaluation covers them.  With ``derivative``
    z dRA_l/dz (d/dtau along z = z_bar e^tau) comes third, from the same
    evaluation with the exponents as weights.
    """
    r, p, q, s, N = scheme.r, scheme.p, scheme.q, scheme.s, scheme.N
    exponents = range(0, -s - 2, -1)
    # I is the z^0 term and -A[l, sigma] the others, so RA_l is built by the
    # same additions as I - z^-1 A[l, 0] - z^-2 A[l, 1] - ... in sequence
    ra = np.zeros((s + 2, p + r + 1, N, N))
    ra[0, r] = np.eye(N)
    ra[1:] = -scheme.interior.transpose(1, 0, 2, 3)
    rb = scheme.boundary.transpose(2, 0, 1, 3, 4).reshape(s + 2, -1, N, N)
    dra = [np.reshape(exponents, (-1, 1, 1, 1)) * ra] if derivative else []
    vals = _laurent(np.concatenate([ra, rb, *dra], axis=1), exponents, zs)
    RA, RB, dRA = np.split(vals, [p + r + 1, p + r + 1 + (q + 1) * r], axis=1)
    RB = RB.reshape(-1, q + 1, r, N, N)
    return (RA, RB, dRA) if derivative else (RA, RB)


# ---------------------------------------------------------------------------
# eigenvalue branches: exact derivatives (Wilkinson, The Algebraic Eigenvalue
# Problem, 1965) and continuation along a path (Kato, Perturbation Theory for
# Linear Operators, ch. II); theta over amp(e^{i theta}) on the symbol side,
# tau over M(z_bar e^tau) on the resolvent side

#: eigenvalue condition number ||x|| ||y|| / |y^H x|, or a cluster's, above
#: which a branch derivative is not trusted: a defective cluster (a rounded
#: 2x2 Jordan block has cond about eps^-1/2 = 7e7)
BRANCH_COND_MAX = 1e6
#: eigenvalues within CLUSTER_TOL max(1, spectral radius) of each other
#: form one cluster (a rounded 2x2 Jordan block splits by about 3e-8)
CLUSTER_TOL = 1e-7
#: xGEEV's unscaled range [sqrt(tiny)/eps, eps/sqrt(tiny)] = [2^-459, 2^459]
#: (LAPACK Users' Guide): a matrix whose largest |entry| lies outside it is
#: scaled first, which can move the last bits of its eigenvalues
_GEEV_UNSCALED = (2.0**-459, 2.0**459)


def _scalar_stack(a: np.ndarray) -> bool:
    """Whether ``a`` is a stack of 1x1 float64 or complex128 matrices whose
    entries LAPACK would return as eigenvalues bit for bit: each entry
    finite and of modulus 0 or in xGEEV's unscaled range."""
    if a.shape[-2:] != (1, 1) or a.dtype not in (np.float64, np.complex128):
        return False
    lo, hi = _GEEV_UNSCALED
    m = np.abs(a)
    return bool(((m == 0) | ((lo <= m) & (m <= hi))).all())


def _eigvals(a: np.ndarray) -> np.ndarray:
    """np.linalg.eigvals of a stack; a 1x1 stack (``_scalar_stack``) is
    read off its entries without calling LAPACK."""
    if _scalar_stack(a):
        return a[..., 0].copy()
    return np.linalg.eigvals(a)


def _eig(a: np.ndarray) -> tuple:
    """np.linalg.eig of a stack; a 1x1 stack (``_scalar_stack``) is read
    off its entries, with unit eigenvectors, without calling LAPACK."""
    if _scalar_stack(a):
        return a[..., 0].copy(), np.ones_like(a)
    return np.linalg.eig(a)


def _clusters(vals: np.ndarray) -> list:
    """Index lists of the clusters of ``vals``: in (real, imaginary) order, a value
    joins the first cluster whose last member is within CLUSTER_TOL max(1, max |vals|)."""
    tol = CLUSTER_TOL * max(1.0, np.abs(vals).max())
    clusters: list = []
    for i in np.lexsort((vals.imag, vals.real)):
        for cl in clusters:
            if abs(vals[i] - vals[cl[-1]]) <= tol:
                cl.append(i)
                break
        else:
            clusters.append([i])
    return clusters


def _left_rows(X: np.ndarray) -> np.ndarray:
    """X^{-1} for each matrix of the stack; NaN where X is singular."""
    try:
        return np.linalg.inv(X)
    except np.linalg.LinAlgError:
        if len(X) == 1:
            return np.full_like(X, np.nan)
        return np.concatenate([_left_rows(x[None]) for x in X])


def _eig_derivs(amp: np.ndarray, damp: np.ndarray):
    """(vals, derivs, conds, X, Y): each amp's eigenvalues, their derivatives
    along the family (damp = d amp / d theta or d M / d tau) and conditions,
    the right eigenvectors in X's columns and Y = X^{-1}.

    The rows of Y are left eigenvectors y scaled to y^H x = 1, so the
    simple-eigenvalue derivatives y^H damp x / y^H x are the diagonal of
    X^{-1} damp X and cond = ||x|| ||y|| / |y^H x| = ||x|| ||y||.  A cluster
    of two or more (``_clusters``) on columns X_c and rows Y_c has one cond,
    ||Y_c||_2 ||X_c||_2; at most BRANCH_COND_MAX it is semisimple, and its
    derivatives are the eigenvalues of Y_c damp X_c in any basis (Kato,
    ch. II), while a defective one keeps its untrusted diagonal entries.
    A singular X gives NaN derivatives and conditions, and a nearly
    singular one (a Jordan block) may overflow cond to infinity.  A 1x1
    stack has Y = X = 1 and cond 1, so it takes no inverse and no cluster
    scan, and ``_eig`` reads its eigenvalues off its entries wherever each
    is 0 or in xGEEV's unscaled range, without calling LAPACK.
    """
    vals, X = _eig(amp)
    scalar = vals.shape[1] == 1
    Y = X if scalar else _left_rows(X)
    derivs = np.einsum("kij,kjl,kli->ki", Y, damp, X)
    if scalar:
        return vals, derivs, np.ones(vals.shape), X, Y
    with np.errstate(over="ignore"):
        conds = np.linalg.norm(Y, axis=2) * np.linalg.norm(X, axis=1)
    n = vals.shape[1]
    dist = np.abs(vals[:, :, None] - vals[:, None, :]) + np.diag(np.full(n, np.inf))
    tol = CLUSTER_TOL * np.maximum(1.0, np.abs(vals).max(axis=1))
    for k in np.flatnonzero((dist.min(axis=2) <= tol[:, None]).any(axis=1)):
        for cl in _clusters(vals[k]):
            Xc, Yc = X[k][:, cl], Y[k][cl]
            # a singular X leaves Y NaN, where the 2-norm's SVD would fail
            if len(cl) > 1 and np.isfinite(Yc).all():
                with np.errstate(over="ignore"):
                    conds[k, cl] = np.linalg.norm(Yc, 2) * np.linalg.norm(Xc, 2)
                if conds[k, cl[0]] <= BRANCH_COND_MAX:
                    derivs[k, cl] = _eigvals(Yc @ damp[k] @ Xc)
    return vals, derivs, conds, X, Y


#: bisection depth at which an ambiguous continuation step is recorded
BRANCH_MAX_DEPTH = 20


def _min_cost_matching(cost: np.ndarray) -> np.ndarray:
    """Row matched to each column of a square cost matrix, at least total cost.

    Hungarian method with row and column potentials u, v (shortest
    augmenting paths).  ``match[col]`` is the row of a column, 1-based,
    with column 0 a sentinel; plain lists, as the matrices are small.
    """
    c = cost.tolist()
    n = len(c)
    u, v = [0.0] * (n + 1), [0.0] * (n + 1)
    match, way = [0] * (n + 1), [0] * (n + 1)
    for row in range(1, n + 1):
        match[0], col = row, 0
        minv, used = [np.inf] * (n + 1), [False] * (n + 1)
        while match[col]:
            used[col] = True
            i, step, nxt = match[col], np.inf, 0
            for j in range(1, n + 1):
                if not used[j]:
                    reduced = c[i - 1][j - 1] - u[i] - v[j]
                    if reduced < minv[j]:
                        minv[j], way[j] = reduced, col
                    if minv[j] < step:
                        step, nxt = minv[j], j
            if not nxt:
                raise ValueError("branch distances are not finite")
            for j in range(n + 1):
                if used[j]:
                    u[match[j]] += step
                    v[j] -= step
                else:
                    minv[j] -= step
            col = nxt
        while col:
            match[col] = match[way[col]]
            col = way[col]
    return np.array(match[1:]) - 1


def _swap_ambiguous(P: np.ndarray, vals: np.ndarray) -> np.ndarray:
    """Whether a matching is ambiguous, for each matching in a stack.

    ``P[..., j, b]`` is the distance from the new value matched to branch
    j, ``vals[..., j]``, to the previous value of branch b.  A matching is
    ambiguous when some transposition of genuinely distinct values changes
    its total cost by less than 1e-10.
    """
    d = np.diagonal(P, axis1=-2, axis2=-1)
    # symmetric in (j1, j2) bit for bit; the diagonal is never distinct
    delta = (P + np.swapaxes(P, -1, -2)) - (d[..., :, None] + d[..., None, :])
    distinct = np.abs(vals[..., :, None] - vals[..., None, :]) > 1e-12
    return ((delta < 1e-10) & distinct).any(axis=(-2, -1))


def _continue_step(eigs_at, t_a, vals_a, t_b, eigs_b, records: list, depth=0):
    """Order of ``eigs_b`` continuing the branch values ``vals_a`` from t_a to t_b.

    The least-cost matching decides; an ambiguous step is halved, down to
    BRANCH_MAX_DEPTH, where t_b goes to ``records`` and the matching stays.
    """
    cost = np.abs(eigs_b[:, None] - vals_a[None, :])
    order = _min_cost_matching(cost)
    if not _swap_ambiguous(cost[order], eigs_b[order]):
        return order
    if depth >= BRANCH_MAX_DEPTH:
        records.append(t_b)
        return order
    t_m = 0.5 * (t_a + t_b)
    eigs_m = eigs_at(t_m)
    vals_m = eigs_m[_continue_step(eigs_at, t_a, vals_a, t_m, eigs_m, records, depth + 1)]
    return _continue_step(eigs_at, t_m, vals_m, t_b, eigs_b, records, depth + 1)


def _continue_path(ts, eigs: np.ndarray, first, eigs_at, parent=None):
    """(order, ambiguous): eigs[k, order[k]] continues eigs[0, first] along ts.

    Row k continues row parent[k] < k: by default row k - 1, so the rows
    form one path, and in general a tree of paths from row 0.  A previous
    value takes its nearest new value where that is a clear step.  Clear
    steps are composed by pointer doubling, about log2(rows) rounds of
    integer indexing that leave each row the permutation back to its
    nearest ancestor that is row 0 or a step that is not clear.  Only
    those steps go, in increasing row order, to the exact matcher and
    interval bisection, whose unresolved steps are listed in ``ambiguous``.
    A single branch has the zero order and no ambiguous steps.
    """
    if eigs.shape[1] == 1:
        return np.zeros(eigs.shape, dtype=int), ()
    parent = np.arange(-1, len(ts) - 1) if parent is None else parent
    # nearest[k - 1, i] indexes the value of row k nearest value i of its
    # parent row; a clear step is a permutation that no transposition makes
    # ambiguous, so it is the step's least-cost matching
    cost = np.abs(eigs[1:, :, None] - eigs[parent[1:], None, :])  # [step, new, prev]
    nearest = np.argmin(cost, axis=1)
    is_perm = (np.sort(nearest, axis=1) == np.arange(eigs.shape[1])).all(axis=1)
    clear = is_perm & ~_swap_ambiguous(
        np.take_along_axis(cost, nearest[:, :, None], axis=1),
        np.take_along_axis(eigs[1:], nearest, axis=1),
    )
    clear = np.append(False, clear)  # by row; row 0 takes no step
    # order[k] = perm[k, order[anchor[k]]] holds throughout; an anchor that
    # is not clear is its own, with the identity
    anchor = np.where(clear, parent, np.arange(len(ts)))
    perm = np.tile(np.arange(eigs.shape[1]), (len(ts), 1))
    perm[clear] = nearest[clear[1:]]
    while (anchor[anchor] != anchor).any():
        perm = np.take_along_axis(perm, perm[anchor], axis=1)
        anchor = anchor[anchor]
    order = np.empty(eigs.shape, dtype=int)
    order[0] = first
    records: list = []
    for k in np.flatnonzero(~clear)[1:]:
        j = parent[k]
        prev = eigs[j, perm[j, order[anchor[j]]]]
        order[k] = _continue_step(eigs_at, ts[j], prev, ts[k], eigs[k], records)
    return np.take_along_axis(perm, order[anchor], axis=1), tuple(records)


def validate_scheme(scheme: SchemeDef) -> ValidationReport:
    """Check consistency and the sampled noncharacteristic condition.

    The extreme resolvent blocks at ell = -r and ell = p must be invertible
    for |z| in [1, 4]: their minimum singular value over the
    NONCHARACTERISTIC_NTHETA points on each circle of
    NONCHARACTERISTIC_RADII is reported and must exceed
    NONCHARACTERISTIC_TOL.
    """
    messages = []
    residual = float(
        np.abs(scheme.consistency_sum() - np.eye(scheme.N)).max()
    )
    consistent = residual <= CONSISTENCY_TOL
    if not consistent:
        messages.append(f"consistency sum differs from identity by {residual:.3e}")

    thetas = 2 * np.pi * np.arange(NONCHARACTERISTIC_NTHETA) / NONCHARACTERISTIC_NTHETA
    zs = (np.array(NONCHARACTERISTIC_RADII)[:, None] * np.exp(1j * thetas)).ravel()
    RA, _ = _resolvent_stack(scheme, zs)
    sv_l = np.linalg.svd(RA[:, 0], compute_uv=False)
    sv_r = np.linalg.svd(RA[:, -1], compute_uv=False)
    min_left = float(sv_l[:, -1].min(initial=np.inf))
    min_right = float(sv_r[:, -1].min(initial=np.inf))
    tol = NONCHARACTERISTIC_TOL
    noncharacteristic_ok = min_left > tol and min_right > tol
    if not noncharacteristic_ok:
        messages.append(
            f"extreme coefficient blocks nearly singular on |z| in [1,4]: "
            f"min sv left {min_left:.3e}, right {min_right:.3e}"
        )
    return ValidationReport(
        consistent=consistent,
        consistency_residual=residual,
        noncharacteristic_ok=noncharacteristic_ok,
        min_sv_left=min_left,
        min_sv_right=min_right,
        messages=tuple(messages),
    )


# ---------------------------------------------------------------------------
# fixtures


def _boundary_array(r: int, q: int, s: int, N: int, kind: str) -> np.ndarray:
    bnd = np.zeros((q + 1, r, s + 2, N, N))
    if kind == "dirichlet":
        pass  # all rows read U_j^{n+1} = g_j^{n+1}
    elif kind == "extrapolation":
        # zeroth order: U_j^{n+1} = U_1^{n+1} for every boundary row
        for jj in range(r):
            bnd[0, jj, 0] = np.eye(N)  # ell = 0, sigma = -1
    else:
        raise SchemeError(f"unknown boundary kind {kind!r}")
    return bnd


def three_point(
    a_minus: float,
    a_zero: float,
    a_plus: float,
    lam: float = 1.0,
    boundary: str = "dirichlet",
    label: str = "three-point",
) -> SchemeDef:
    """Scalar one-step scheme U^{n+1} = a_- T^{-1} U + a_0 U + a_+ T U."""
    interior = np.zeros((3, 1, 1, 1))
    interior[0, 0, 0, 0] = a_minus
    interior[1, 0, 0, 0] = a_zero
    interior[2, 0, 0, 0] = a_plus
    return SchemeDef(
        N=1, r=1, p=1, q=0, s=0, lam=lam,
        interior=interior,
        boundary=_boundary_array(1, 0, 0, 1, boundary),
        label=label,
    )


def upwind(lam: float, a: float, boundary: str = "dirichlet") -> SchemeDef:
    """First order upwind scheme for u_t + a u_x = 0 with a > 0.

    U_j^{n+1} = (1 - lam*a) U_j + lam*a U_{j-1}; r = 1, p = 0.
    """
    if a <= 0:
        raise SchemeError("upwind fixture assumes a > 0 (leftgoing stencil)")
    nu = lam * a
    interior = np.zeros((2, 1, 1, 1))
    interior[0, 0, 0, 0] = nu         # ell = -1
    interior[1, 0, 0, 0] = 1.0 - nu   # ell = 0
    return SchemeDef(
        N=1, r=1, p=0, q=0, s=0, lam=lam,
        interior=interior,
        boundary=_boundary_array(1, 0, 0, 1, boundary),
        label="upwind",
    )


def lax_friedrichs(lam: float, a: float, boundary: str = "dirichlet") -> SchemeDef:
    """Lax-Friedrichs scheme: U^{n+1}_j = (U_{j+1}+U_{j-1})/2 - lam*a (U_{j+1}-U_{j-1})/2."""
    nu = lam * a
    return three_point(
        (1 + nu) / 2, 0.0, (1 - nu) / 2, lam=lam, boundary=boundary,
        label="lax-friedrichs",
    )


def lax_wendroff(lam: float, a: float, boundary: str = "dirichlet") -> SchemeDef:
    """Second order Lax-Wendroff scheme."""
    nu = lam * a
    return three_point(
        nu * (nu + 1) / 2, 1 - nu ** 2, nu * (nu - 1) / 2, lam=lam,
        boundary=boundary, label="lax-wendroff",
    )


def leap_frog(lam: float, a: float, boundary: str = "dirichlet") -> SchemeDef:
    """Three-level leap-frog scheme U^{n+1}_j = U^{n-1}_j - lam*a (U^n_{j+1} - U^n_{j-1})."""
    nu = lam * a
    interior = np.zeros((3, 2, 1, 1))
    interior[0, 0, 0, 0] = nu    # ell = -1, sigma = 0
    interior[2, 0, 0, 0] = -nu   # ell = +1, sigma = 0
    interior[1, 1, 0, 0] = 1.0   # ell = 0, sigma = 1
    return SchemeDef(
        N=1, r=1, p=1, q=0, s=1, lam=lam,
        interior=interior,
        boundary=_boundary_array(1, 0, 1, 1, boundary),
        label="leap-frog",
    )


# ---------------------------------------------------------------------------
# JSON scheme files (schema_version 1)
#
# {
#   "schema_version": 1,
#   "N": 1, "r": 1, "p": 1, "q": 0, "s": 0,
#   "lambda": 1.0,
#   "label": "lax-friedrichs",
#   "interior": [{"ell": -1, "sigma": 0, "matrix": [[0.75]]}, ...],
#   "boundary": [{"ell": 0, "j": 0, "sigma": -1, "matrix": [[1.0]]}, ...]
# }
#
# Matrices are row-major nested lists; omitted (ell, sigma) entries are zero.


def scheme_to_dict(scheme: SchemeDef) -> dict:
    interior, boundary = scheme.tap_table
    interior = sorted(
        ({"ell": ell, "sigma": sigma, "matrix": m.tolist()}
         for sigma, taps in enumerate(interior) for ell, m in taps),
        key=lambda e: (e["ell"], e["sigma"]),
    )
    boundary = sorted(
        ({"ell": ell, "j": k + 1 - scheme.r, "sigma": sigma, "matrix": m.tolist()}
         for k, rows in enumerate(boundary) for sigma, taps in rows for ell, m in taps),
        key=lambda e: (e["ell"], e["j"], e["sigma"]),
    )
    return {
        "schema_version": SCHEME_SCHEMA_VERSION,
        "N": scheme.N,
        "r": scheme.r,
        "p": scheme.p,
        "q": scheme.q,
        "s": scheme.s,
        "lambda": scheme.lam,
        "label": scheme.label,
        "interior": interior,
        "boundary": boundary,
    }


def _integer(value, lo=-math.inf, hi=math.inf) -> int:
    """An integer field's value: an integral number in [lo, hi], no bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or value % 1:
        raise TypeError(f"{value!r} is not an integer")
    if not lo <= value <= hi:
        raise ValueError(f"{value} is outside [{lo}, {hi}]")
    return int(value)


def _number(value) -> float:
    """A real field's value: a real number, no bool or string."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise TypeError(f"{value!r} is not a number")
    return float(value)


def scheme_from_dict(data: dict) -> SchemeDef:
    """The scheme of a schema_version 1 dict.  A field that is missing,
    malformed, out of range or repeated raises a SchemeError naming it."""
    field = "top level"  # the field being read, which an error names
    try:
        if not isinstance(data, dict):
            raise TypeError(f"a {type(data).__name__}, not a JSON object")
        if data.get(field := "schema_version") != SCHEME_SCHEMA_VERSION:
            raise ValueError(f"only version {SCHEME_SCHEMA_VERSION} is read, not {data.get(field)!r}")
        N, r, p, q, s = [_integer(data[field := k], lo) for k, lo in zip("Nrpqs", (1, 1, 0, 0, 0))]
        lam = _number(data[field := "lambda"])
        # each table's fields and their ranges: a value v sits at v - lo on its axis
        layout = {"interior": {"ell": (-r, p), "sigma": (0, s)},
                  "boundary": {"ell": (0, q), "j": (1 - r, 0), "sigma": (-1, s)}}
        tables = {}
        for name, ranges in layout.items():
            table = tables[name] = np.zeros([hi - lo + 1 for lo, hi in ranges.values()] + [N, N])
            seen = set()
            for k, entry in enumerate(data.get(field := name, [])):
                at = []
                for f, (lo, hi) in ranges.items():
                    field = f"{name}[{k}].{f}"
                    at.append(_integer(entry[f], lo, hi))
                field = f"{name}[{k}]"
                if tuple(at) in seen:
                    raise ValueError(f"repeats {', '.join(map('{}={}'.format, ranges, at))}")
                seen.add(tuple(at))
                field += ".matrix"
                shape = np.asarray(entry["matrix"], dtype=float).shape
                if shape != (N, N):
                    raise ValueError(f"shape {shape} is not {(N, N)}")
                table[tuple(v - lo for v, (lo, _) in zip(at, ranges.values()))] = [
                    list(map(_number, row)) for row in entry["matrix"]]
    except (KeyError, TypeError, AttributeError, ValueError) as exc:
        raise SchemeError(f"{field}: {'missing' if isinstance(exc, KeyError) else exc}") from exc
    return SchemeDef(N=N, r=r, p=p, q=q, s=s, lam=lam, interior=tables["interior"],
                     boundary=tables["boundary"], label=str(data.get("label", "")))


def save_scheme(scheme: SchemeDef, path) -> None:
    Path(path).write_text(json.dumps(scheme_to_dict(scheme), indent=2, sort_keys=True))


def load_scheme(path) -> SchemeDef:
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise SchemeError(f"scheme file is not valid JSON: {exc}") from exc
    return scheme_from_dict(data)
