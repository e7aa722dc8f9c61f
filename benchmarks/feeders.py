"""Seeded feeder generator: writes feeder JSON documents in the public format.

Every draw comes from ``random.Random(seed)``, so one seed gives the same
files byte for byte. Two families are drawn:

* *loose* radial feeders (a trunk with laterals): the load stays under every
  line rating and voltage limit, so Base screening finds no violation and
  neither plan buys anything;
* *tight* chains: a short midday spike pushes the three far segments past
  their rating, so plans buy storage or reconductoring and the
  community-solar site decides whether the project adds cost or defers it.

Inputs are never filtered or re-drawn: a seed that loses a workload's
property shows it in the recorded property counts.
"""

from __future__ import annotations

import json
import os
import random
from importlib import resources

KV_BASE = 12.47
BASE_MVA = 10.0
Z_BASE_OHM = KV_BASE ** 2 / BASE_MVA

# one representative day keeps a model at a third of the tutorial's 3-day size,
# so a pass over several feeders fits a short run
DAY = "average"
DAY_WEIGHT = 365.0

# conductors from the shipped table: (ohm/mile r, ohm/mile x, MVA at 12.47 kV)
ACSR_4 = (2.55, 0.612, 3.02)
ACSR_2 = (1.69, 0.593, 3.89)
ACSR_336 = (0.306, 0.499, 11.45)

# hourly shapes, per-unit of the bus peak
RESIDENTIAL = (0.55, 0.5, 0.48, 0.47, 0.48, 0.52, 0.6, 0.66, 0.68, 0.7, 0.72, 0.74,
               0.75, 0.76, 0.78, 0.82, 0.88, 0.95, 1.0, 0.98, 0.9, 0.8, 0.7, 0.6)
SPIKE = (0.7,) * 11 + (1.0, 1.0) + (0.7,) * 11
SOLAR = (0.0, 0.0, 0.0, 0.0, 0.0, 0.02, 0.12, 0.3, 0.46, 0.58, 0.68, 0.72,
         0.72, 0.68, 0.58, 0.46, 0.3, 0.12, 0.02, 0.0, 0.0, 0.0, 0.0, 0.0)
CURTAILMENT_PRICE = (22, 21, 20, 20, 21, 24, 30, 36, 33, 28, 24, 22,
                     21, 22, 25, 30, 38, 45, 42, 36, 30, 27, 25, 23)
POWER_FACTOR_Q = 0.3  # reactive load as a share of active load


def _r(x: float) -> float:
    return round(x, 6)


def _load(rng: random.Random, shape, peak: float, noise: float) -> tuple[dict, dict]:
    p = [_r(peak * s * (1.0 + rng.uniform(-noise, noise))) for s in shape]
    return {DAY: p}, {DAY: [_r(POWER_FACTOR_Q * x) for x in p]}


def _solar_cf() -> dict:
    return {DAY: list(SOLAR)}


def _bus(bid: str, p=None, q=None) -> dict:
    zero = {DAY: [0.0] * 24}
    return {"id": bid, "active_load": p or zero, "reactive_load": q or zero}


def _line(sid: str, from_bus: str, to_bus: str, conductor, miles: float) -> dict:
    r_ohm, x_ohm, mva = conductor
    return {"id": sid, "from_bus": from_bus, "to_bus": to_bus,
            "resistance": _r(r_ohm * miles / Z_BASE_OHM),
            "reactance": _r(x_ohm * miles / Z_BASE_OHM),
            "length_miles": _r(miles), "placement": "rural-OH",
            "kind": {"type": "fixed", "capacity_mva": mva}}


def _document(buses, segments, solar) -> dict:
    head = {"id": "fh", "from_bus": "src", "to_bus": "b0",
            "resistance": 0.002, "reactance": 0.02,
            "kind": {"type": "feeder_head", "base_capacity_mva": 10.0,
                     "upgrade_capacity_mva": 1.0, "upgrade_cost_per_yr": 16262.85877,
                     "tap_min": 0.95, "tap_max": 1.05}}
    return {
        "base_mva": BASE_MVA,
        "v_ref": 1.0,
        "kv_base": KV_BASE,
        "region": "nonCA",
        "imbalance_cost": 1.0e6,
        "cs_capacity_mw": None,
        "days": [{"label": DAY, "weight": DAY_WEIGHT}],
        "buses": [_bus("src"), _bus("b0")] + buses,
        "segments": [head] + segments,
        "storage": [],
        "solar": solar,
        "prices": {"curtailment_per_mwh": {DAY: list(CURTAILMENT_PRICE)}},
    }


def loose_feeder(rng: random.Random, n_buses: int, *, conductor=ACSR_336,
                 peak_mw=(0.12, 0.14), rooftop_share: float = 0.0) -> dict:
    """Trunk-with-laterals feeder of ``n_buses`` load buses below bus b0.

    Every third bus hangs on a lateral off the trunk bus before it; the rest
    extend the trunk. The topology depends on ``n_buses`` only, the seed
    draws line lengths, load levels and hourly noise, so that feeders of one
    size pose LPs of similar difficulty. ``rooftop_share`` of the load buses
    carry existing rooftop PV, which the high-PV scan scales.
    """
    buses, segments, solar = [], [], []
    trunk = "b0"
    for i in range(1, n_buses + 1):
        name = f"n{i}"
        on_lateral = i % 3 == 0
        segments.append(_line(f"l{i}", trunk, name, conductor, rng.uniform(0.36, 0.44)))
        p, q = _load(rng, RESIDENTIAL, rng.uniform(*peak_mw), 0.03)
        buses.append(_bus(name, p, q))
        if not on_lateral:
            trunk = name
        if rng.random() < rooftop_share:
            solar.append({"id": f"rts_{name}", "bus": name, "role": "rooftop_existing",
                          "installed_capacity_mw": _r(rng.uniform(0.05, 0.15)),
                          "capacity_factor": _solar_cf()})
    if not solar:
        # the project's hourly profile is derived from a declared solar unit
        solar.append({"id": "cs_b0", "bus": "b0", "role": "cs_candidate",
                      "invest_cap_mw": 10.0, "capacity_factor": _solar_cf()})
    return _document(buses, segments, solar)


def tight_feeder(rng: random.Random, n_buses: int = 3) -> dict:
    """Chain b0-n1-...-n{n_buses} whose segments below the middle site run
    past their rating.

    The far end carries most of the load, with a two-hour midday spike.
    Without the project a battery at the end shaves the spike more cheaply
    than reconductoring. The project must sit with the battery, so at the
    head or middle site the plan reconductors instead (positive integration
    cost), while at the end its midday output relieves the spike (negative
    integration cost).
    """
    buses, segments = [], []
    prev = "b0"
    middle = n_buses // 2  # the median-depth bus, where the middle site sits
    peaks = (0.1,) * (n_buses - 2) + (0.9, 2.0)
    for i, peak in enumerate(peaks, start=1):
        name = f"n{i}"
        conductor = ACSR_4 if i > middle else ACSR_336
        segments.append(_line(f"l{i}", prev, name, conductor, rng.uniform(0.52, 0.58)))
        p, q = _load(rng, SPIKE, peak * rng.uniform(0.98, 1.02), 0.01)
        buses.append(_bus(name, p, q))
        prev = name
    solar = [{"id": "cs_b0", "bus": "b0", "role": "cs_candidate", "invest_cap_mw": 10.0,
              "capacity_factor": _solar_cf()}]
    return _document(buses, segments, solar)


def tutorial_path() -> str:
    return str(resources.files("gridxpand").joinpath("data/tutorial_feeder.json"))


def write(doc: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


# -- workload inputs ------------------------------------------------------------------


def fleet_inputs(seed: int, out_dir: str) -> list[str]:
    """The shipped tutorial plus one seeded loose feeder with rooftop PV; the
    returned paths, in manifest order."""
    rng = random.Random(seed)
    doc = loose_feeder(rng, 5, conductor=ACSR_2, peak_mw=(0.3, 0.5), rooftop_share=0.5)
    loose = write(doc, os.path.join(out_dir, f"loose-s{seed}.json"))
    return [tutorial_path(), loose]


LADDER_SIZES = (8, 8, 16, 16)  # two draws per size steady the per-pass figures
HARD_FEEDERS = 6


def ladder_inputs(seed: int, out_dir: str) -> list[str]:
    rng = random.Random(seed)
    return [write(loose_feeder(rng, n), os.path.join(out_dir, f"ladder{n}-{k}-s{seed}.json"))
            for k, n in enumerate(LADDER_SIZES)]


def hard_inputs(seed: int, out_dir: str) -> list[str]:
    rng = random.Random(seed)
    return [write(tight_feeder(rng), os.path.join(out_dir, f"tight{k}-s{seed}.json"))
            for k in range(HARD_FEEDERS)]
