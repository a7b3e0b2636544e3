"""The random-scheme populations keep their promises and reach their ends."""

import numpy as np
import pytest
from hypothesis import find, given, settings
from hypothesis import strategies as st

from dibvp.core import CONSISTENCY_TOL, validate_scheme
from dibvp.symbol import von_neumann_check
from populations import analyze_population, schemes

COMPANION = {"r": (1, 3), "p": (0, 3), "companion": 4}
# one population of each kind; nonnegative ones come with their components
KINDS = [
    {},
    {"q": (0, 2), "boundary": "random", "consistent": True},
    COMPANION,
    {"s": (0, 0), "taps": "symmetric", "consistent": True},
    {"taps": "nonnegative", "parts": True},
]


def _sum_gap(scheme):
    """max |consistency sum - I|, relative to the largest tap (the symmetric
    kind's taps reach 1e3, and their sum rounds with them)."""
    gap = np.abs(scheme.consistency_sum() - np.eye(scheme.N)).max()
    return gap / max(1.0, np.abs(scheme.interior).max())


@settings(max_examples=150)
@given(st.sampled_from(KINDS).flatmap(lambda kw: st.tuples(st.just(kw), schemes(**kw))))
def test_populations_keep_their_promises(case):
    kind, scheme = case
    scheme, parts = scheme if kind.get("parts") else (scheme, ())
    for name, default in dict(N=(1, 2), r=(1, 2), p=(0, 2), q=(0, 0), s=(0, 2)).items():
        lo, hi = kind.get(name, default)
        assert lo <= getattr(scheme, name) <= hi
    if "companion" in kind:
        assert scheme.N * (scheme.p + scheme.r) <= kind["companion"]
    if kind.get("consistent") or parts:
        assert _sum_gap(scheme) <= CONSISTENCY_TOL
    if kind.get("taps") == "symmetric":
        assert np.array_equal(scheme.interior, scheme.interior.swapaxes(2, 3))
    for part in parts:
        assert np.all(part.interior >= 0)
        assert _sum_gap(part) <= CONSISTENCY_TOL
    assert len(parts) == (scheme.N if parts else 0)
    assert np.any(scheme.boundary) == (kind.get("boundary") == "random")


@pytest.mark.parametrize("kind,reached", [
    ({}, lambda x: x.s == 2),
    ({}, lambda x: x.N == 2),
    ({"q": (0, 2), "boundary": "random"}, lambda x: x.q == 2),
    (COMPANION, lambda x: x.r == 3),
    (COMPANION, lambda x: x.N == 1 and x.p == 3),
    (COMPANION, lambda x: x.N == 2 and x.p + x.r == 2),
], ids=["s-2", "N-2", "q-2", "companion-r-3", "companion-p-3", "companion-N-2"])
def test_populations_reach_the_ends_of_their_ranges(kind, reached):
    # a population that narrowed silently would raise NoSuchExample here
    assert reached(find(schemes(**kind), reached))


def test_filters_drop_the_schemes_that_fail():
    # about one consistent normal 2x2 one-step draw in 25 is von Neumann
    # stable, and taps of 1e-12 are characteristic: the simplest draw kept
    # must pass
    scheme = find(schemes(N=(2, 2), s=(0, 0), consistent=True, stable=True), lambda x: True)
    assert von_neumann_check(scheme).ok
    scheme = find(st.one_of(schemes(scale=1e-12, valid=True, consistent=True),
                            schemes(valid=True, consistent=True)),
                  lambda x: True)
    assert validate_scheme(scheme).ok


@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
def test_analyze_population_is_valid_and_stable_as_its_strata_say(seed):
    # every benchmark scheme is consistent and noncharacteristic, so
    # validating schemes at load time fails no benchmark item, and the
    # sampled von Neumann verdict is its stratum's stability side
    population = analyze_population(seed)
    assert len(population) == 19
    for spec, scheme in population:
        rep = validate_scheme(scheme)
        assert rep.consistent and rep.ok, spec
        assert von_neumann_check(scheme).ok == spec["stable"], spec
