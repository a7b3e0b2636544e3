"""Seeded, stratified inputs for the benchmark workloads.

Each workload has fixed counts per stratum (scheme family x stability
side, or envelope-width band); the seed only moves parameters inside a
stratum.  Two seeds therefore do the same kinds and amounts of work and
hit the same known defects, and differ only in where inside each stratum
the draws land.  Inputs are plain data (family names and floats) drawn
with ``random.Random`` so they can be generated and digested without
importing numpy or dibvp.

No unstable draw lies closer than 5% to its CFL limit and no stable draw
closer than 5% on the other side, so no verdict sits on a knife edge.
"""

from __future__ import annotations

import hashlib
import json
import math
import random

SIZES = ("full", "small")

# analyze: (family, boundary, stable draws, unstable draws) per size.
# "system" is a symmetric 2x2 upwind system; "upwind2" the second-order
# upwind scheme (r = 2, CFL limit 2).
ANALYZE_STRATA = {
    "full": (
        ("upwind", "dirichlet", 2, 1),
        ("lax-friedrichs", "dirichlet", 1, 1),
        ("lax-wendroff", "dirichlet", 1, 1),
        ("lax-wendroff", "extrapolation", 2, 1),
        ("three-point", "dirichlet", 3, 1),
        ("upwind2", "dirichlet", 1, 1),
        ("system", "dirichlet", 1, 0),
        ("leap-frog", "dirichlet", 1, 1),
    ),
    "small": (
        ("upwind", "dirichlet", 1, 0),
        ("three-point", "dirichlet", 0, 1),
        ("leap-frog", "dirichlet", 0, 1),
    ),
}
# CFL-limit bisections: families x oracles, bracket [lo, lo + 1] around a = 1
BISECT_FAMILIES = {
    "full": ("upwind", "lax-friedrichs", "lax-wendroff"),
    "small": ("upwind",),
}
BISECT_ORACLES = ("spectral", "energetic")

# refine: one scheme per family, every verifier, ladder one halving finer
# than the CLI default
REFINE_SCHEMES = {
    "full": (
        ("upwind", "dirichlet"),
        ("lax-wendroff", "extrapolation"),
        ("leap-frog", "dirichlet"),
    ),
    "small": (("upwind", "dirichlet"), ("leap-frog", "dirichlet")),
}
REFINE_LADDER = {
    "full": (0.1, 0.05, 0.025, 0.0125, 0.00625),
    "small": (0.2, 0.1, 0.05),
}
REFINE_T_END = 10.0
REFINE_NU = (0.5, 0.9)

# Stable leap-frog draws, in analyze and refine.  The glancing search
# makes leap-frog the most expensive scheme, and its cost falls steeply
# as nu grows (check-glancing + check-uklc: 1.9 s at nu = 0.52, 1.0 s at
# 0.76, 0.7 s at 0.93), so a wide band would make wall_s and
# verdict_p90_ms follow the seed.  Over this band they move by a few
# percent of the batch.
LEAP_FROG_NU = (0.65, 0.75)

# packets: one envelope per delta0 band, three packets per envelope.  The
# widest envelope (delta0 = 0.4) sets the peak memory and the heaviest
# runs, so its band is a single point and neither follows the seed.  A
# trace experiment's cost falls steeply with delta0 (by a quarter from 0.5
# to 0.6), and the second envelope's experiments set verdict_p90_ms, so the
# other bands are narrow.
PACKET_BANDS = {
    "full": ((0.4, 0.4), (0.55, 0.58), (0.65, 0.68), (0.75, 0.78)),
    "small": ((0.75, 0.78),),
}
# carrier frequency band, away from the glancing frequency pi/2 and from
# the slower carriers below 0.6
PACKET_XI = (0.6, 1.2)
PACKET_DTS = {"full": (0.1, 0.05, 0.025), "small": (0.1, 0.05)}
PACKET_DXS = (0.2, 0.1)


def _cfl_limit(family: str) -> float:
    return 2.0 if family == "upwind2" else 1.0


def _nu(rng: random.Random, family: str, stable: bool) -> float:
    """Courant number lambda*|a| inside the stable or unstable stratum."""
    limit = _cfl_limit(family)
    if stable:
        band = LEAP_FROG_NU if family == "leap-frog" else (0.2, 0.95)
        return rng.uniform(*band) * limit
    return rng.uniform(1.05, 1.5) * limit


def _scheme_params(rng: random.Random, family: str, boundary: str, stable: bool) -> dict:
    nu = _nu(rng, family, stable)
    spec = {"family": family, "boundary": boundary, "stable": stable, "nu": nu}
    if family in ("upwind", "lax-friedrichs", "lax-wendroff", "leap-frog"):
        a = rng.uniform(0.5, 2.0)
        spec.update(a=a, lam=nu / a)
    elif family == "three-point":
        # a_-/+ = (d +/- nu)/2, a_0 = 1 - d: l2-stable iff nu^2 <= d <= 1
        lo = nu * nu + 0.05 if stable else 0.3
        spec.update(d=rng.uniform(lo, 0.95), lam=rng.uniform(0.4, 1.0))
    elif family == "system":
        # second eigenvalue of the symmetric coefficient stays stable
        spec.update(nu2=rng.uniform(0.2, 0.95), phi=rng.uniform(0.0, math.pi))
    elif family != "upwind2":
        raise ValueError(f"unknown family {family!r}")
    return spec


def analyze_inputs(seed: int, size: str = "full") -> dict:
    rng = random.Random(f"analyze/{seed}")
    schemes = []
    for family, boundary, n_stable, n_unstable in ANALYZE_STRATA[size]:
        for stable in (True,) * n_stable + (False,) * n_unstable:
            spec = _scheme_params(rng, family, boundary, stable)
            spec["z_angle"] = rng.uniform(0.2, 3.0)
            spec["sim_seed"] = rng.randrange(2**31)
            schemes.append(spec)
    bisections = [
        {"family": family, "oracle": oracle, "lo": rng.uniform(0.4, 0.6)}
        for family in BISECT_FAMILIES[size]
        for oracle in BISECT_ORACLES
    ]
    return {"workload": "analyze", "seed": seed, "size": size,
            "schemes": schemes, "bisections": bisections}


def refine_inputs(seed: int, size: str = "full") -> dict:
    rng = random.Random(f"refine/{seed}")
    schemes = []
    for family, boundary in REFINE_SCHEMES[size]:
        a = rng.uniform(0.5, 2.0)
        nu = rng.uniform(*(LEAP_FROG_NU if family == "leap-frog" else REFINE_NU))
        schemes.append({"family": family, "boundary": boundary, "stable": True,
                        "nu": nu, "a": a, "lam": nu / a,
                        "data_seed": rng.randrange(2**31)})
    return {"workload": "refine", "seed": seed, "size": size, "schemes": schemes,
            "ladder": list(REFINE_LADDER[size]), "t_end": REFINE_T_END}


def packets_inputs(seed: int, size: str = "full") -> dict:
    rng = random.Random(f"packets/{seed}")
    envelopes = []
    for lo, hi in PACKET_BANDS[size]:
        envelopes.append({"delta0": rng.uniform(lo, hi),
                          "xi": rng.uniform(*PACKET_XI)})
    return {"workload": "packets", "seed": seed, "size": size,
            "envelopes": envelopes, "dts": list(PACKET_DTS[size]),
            "dxs": list(PACKET_DXS)}


GENERATORS = {
    "analyze": analyze_inputs,
    "refine": refine_inputs,
    "packets": packets_inputs,
}


def make_inputs(workload: str, seed: int, size: str = "full") -> dict:
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return GENERATORS[workload](seed, size)


def digest(inputs: dict) -> str:
    """Short hash of the generated inputs (floats by repr, so exact)."""
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]
