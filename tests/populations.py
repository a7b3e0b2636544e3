"""One population of random schemes for the property tests.

``random_scheme`` draws one scheme from a seed or numpy generator, and
``schemes`` is the hypothesis strategy over it.  A property states its
population in its ``@given`` line and widens it by one argument.
``lax_wendroff_system`` is the named 2x2 fixture that the split tests and
the standing-defect probes share.
"""

import dataclasses
import importlib.util
import sys
from pathlib import Path

import numpy as np
from hypothesis import assume
from hypothesis import strategies as st

from dibvp.core import SchemeDef, _boundary_array, validate_scheme
from dibvp.symbol import von_neumann_check

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _nonnegative(rng, N, shape):
    """(weights, P): uniform weights of ``shape`` for each of N components,
    summing to 1 per component, and a rotation P by a random angle for N = 2
    (the identity for N = 1).  P diag(weights) P^T then sums to I."""
    weights = rng.uniform(size=(N, *shape))
    weights /= weights.sum(axis=(1, 2), keepdims=True)
    phi = rng.uniform(0, np.pi) if N == 2 else 0.0
    rot = np.array([[np.cos(phi), -np.sin(phi)], [np.sin(phi), np.cos(phi)]])[:N, :N]
    return weights, rot


def random_scheme(rng, N, r, p, q, s, *, taps="normal", scale=0.4,
                  consistent=False, boundary="zero", lam=1.0):
    """One scheme with random interior taps of kind ``taps``, drawn before
    the boundary rows (nothing is drawn for a zero boundary), so a seed
    always gives the same arrays:

    - ``normal``: independent N(0, scale^2) entries;
    - ``nonnegative``: P diag(weights) P^T from ``_nonnegative``;
    - ``symmetric``: normal entries, each tap made symmetric.

    ``consistent`` adds I - sum to the centre tap of the newest level, and
    ``boundary`` is ``zero`` or ``random`` (normal entries of ``scale``).
    """
    rng = np.random.default_rng(rng)
    if taps == "nonnegative":
        weights, rot = _nonnegative(rng, N, (p + r + 1, s + 1))
        interior = np.einsum("ik,kls,jk->lsij", rot, weights, rot)
    else:
        interior = rng.normal(scale=scale, size=(p + r + 1, s + 1, N, N))
        if taps == "symmetric":
            interior = (interior + interior.swapaxes(2, 3)) / 2
    if consistent:
        interior[r, 0] += np.eye(N) - interior.sum(axis=(0, 1))
    shape = (q + 1, r, s + 2, N, N)
    rows = rng.normal(scale=scale, size=shape) if boundary == "random" else np.zeros(shape)
    return SchemeDef(N=N, r=r, p=p, q=q, s=s, lam=lam, interior=interior, boundary=rows)


def lax_wendroff_system(A: np.ndarray, lam: float = 0.5) -> SchemeDef:
    """Lax-Wendroff for u_t + A u_x = 0 with the inflow row U_0 = U_1."""
    L = lam * A
    L2 = L @ L
    return SchemeDef(
        N=2, r=1, p=1, q=0, s=0, lam=lam,
        interior=np.stack([(L + L2) / 2, np.eye(2) - L2, (L2 - L) / 2])[:, None],
        boundary=_boundary_array(1, 0, 0, 2, "extrapolation"),
        label="lax-wendroff-system",
    )


@st.composite
def schemes(draw, N=(1, 2), r=(1, 2), p=(0, 2), q=(0, 0), s=(0, 2), *,
            companion=None, taps="normal", scale=0.4, consistent=False,
            boundary="zero", valid=False, stable=False, parts=False):
    """Schemes of ``random_scheme`` with N, r, p, q and s in their bounds.

    ``companion`` caps N (p + r), the order of M(z).  ``symmetric`` taps
    take a log-uniform scale in [0.1, 1000].  ``valid`` and ``stable``
    keep only schemes passing ``validate_scheme`` (consistent and
    noncharacteristic) and ``von_neumann_check``.
    With ``parts``, a ``nonnegative`` draw comes as (scheme, components):
    the N scalar schemes of its unrotated weights.
    """
    n = draw(st.integers(*N))
    cap = companion // n if companion else np.inf
    n_r = draw(st.integers(r[0], min(r[1], cap - p[0])))
    n_p = draw(st.integers(p[0], min(p[1], cap - n_r)))
    n_q, n_s = draw(st.integers(*q)), draw(st.integers(*s))
    if taps == "symmetric":
        scale = 10 ** draw(st.floats(-1.0, 3.0))
    seed = draw(st.integers(0, 2**32 - 1))
    scheme = random_scheme(seed, n, n_r, n_p, n_q, n_s, taps=taps, scale=scale,
                           consistent=consistent, boundary=boundary)
    assume(not valid or validate_scheme(scheme).ok)
    assume(not stable or von_neumann_check(scheme).ok)
    if not parts:
        return scheme
    # the seed repeats random_scheme's first draw, the unrotated weights
    weights, _ = _nonnegative(np.random.default_rng(seed), n, (n_p + n_r + 1, n_s + 1))
    return scheme, tuple(dataclasses.replace(scheme, N=1, interior=w[:, :, None, None],
                                             boundary=scheme.boundary[..., :1, :1])
                         for w in weights)


def _bench_module(name):
    """``bench/<name>.py``, imported once under the name ``bench_<name>``."""
    key = f"bench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, BENCH / f"{name}.py")
        sys.modules[key] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[key])
    return sys.modules[key]


def analyze_population(seed):
    """(spec, scheme) for each scheme of the benchmark's seeded ``analyze``
    workload; ``spec["stable"]`` is its stratum's stability side."""
    specs = _bench_module("inputs").analyze_inputs(seed)["schemes"]
    make = _bench_module("workloads").make_scheme
    return [(spec, make(spec)) for spec in specs]
