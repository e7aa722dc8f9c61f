"""Radial feeder data model: buses, typed line segments, DER units, ingestion.

All power quantities are stored internally in per-unit on the feeder MVA
base declared in the input file; impedances are per-unit as given. Input
files carry MW/MVA ("mw" units, the default, for human editing) or
per-unit ("per_unit", emitted by :func:`save_feeder` so that a round trip
is exact).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Iterable, Mapping

import numpy as np

HOURS_PER_DAY = 24

DEFAULT_VMIN = 0.95
DEFAULT_VMAX = 1.05
DEFAULT_IMBALANCE_COST = 1.0e6  # $/MWh, dominates any annualized asset cost


class NetworkError(ValueError):
    """Base class for feeder ingestion and validation failures."""


class FeederFormatError(NetworkError):
    """Malformed or semantically invalid feeder document (names the field)."""


class RadialityError(NetworkError):
    """Feeder graph is not a tree rooted at the substation."""


class ProfileCoverageError(NetworkError):
    """A (day, hour) slot required by the horizon is missing from a profile."""


@dataclass(frozen=True, eq=False)
class Bus:
    """Network node with voltage band and hourly load profiles (per-unit)."""

    id: str
    vmin: float = DEFAULT_VMIN
    vmax: float = DEFAULT_VMAX
    # day label -> 24 hourly values, per-unit MW / MVAr
    active_load: Mapping[str, np.ndarray] = field(default_factory=dict)
    reactive_load: Mapping[str, np.ndarray] = field(default_factory=dict)


@dataclass(frozen=True)
class UpgradeOption:
    """One reconductoring choice for a candidate segment.

    Exactly one option per candidate carries zero cost and mirrors the
    segment's present conductor (the keep-as-is choice).
    """

    capacity: float  # per-unit MVA
    resistance: float  # per-unit
    reactance: float  # per-unit
    annual_cost_per_mva: float  # $/MVA/yr, on real (not per-unit) MVA
    conductor: str = ""


@dataclass(frozen=True)
class FixedKind:
    capacity: float  # per-unit MVA


@dataclass(frozen=True)
class CandidateUpgradeKind:
    options: tuple[UpgradeOption, ...]

    @property
    def keep_option(self) -> UpgradeOption:
        zero = [o for o in self.options if o.annual_cost_per_mva == 0.0]
        return zero[0]

    @property
    def capacity(self) -> float:
        return self.keep_option.capacity


@dataclass(frozen=True)
class FeederHeadKind:
    base_capacity: float  # per-unit MVA
    upgrade_capacity: float  # per-unit MVA added when the upgrade is built
    upgrade_cost: float  # $/yr equivalent annual cost of the upgrade
    tap_min: float = DEFAULT_VMIN
    tap_max: float = DEFAULT_VMAX

    @property
    def capacity(self) -> float:
        return self.base_capacity


@dataclass(frozen=True)
class RegulatorKind:
    existing: bool
    capacity: float  # per-unit MVA
    install_cost: float  # $/yr, ignored when existing
    tap_min: float = DEFAULT_VMIN
    tap_max: float = DEFAULT_VMAX


SegmentKind = FixedKind | CandidateUpgradeKind | FeederHeadKind | RegulatorKind


@dataclass(frozen=True)
class LineSegment:
    """Directed edge of the radial feeder, oriented away from the substation."""

    id: str
    from_bus: str
    to_bus: str
    resistance: float  # per-unit
    reactance: float  # per-unit
    kind: SegmentKind
    length_miles: float = 0.0
    placement: str = ""  # rural-OH | urban-OH | urban-UG, for cost lookup

    @property
    def capacity(self) -> float:
        """Present thermal capacity in per-unit MVA (pre-upgrade for candidates)."""
        return self.kind.capacity


@dataclass(frozen=True, eq=False)
class StorageUnit:
    """Battery unit; candidates scale charge/discharge caps with invested MW.

    For existing units ``p_in_max``/``p_out_max`` are absolute (per-unit MW).
    For candidates they multiply the invested capacity, so 1.0 means the
    unit charges at its full invested rating.
    """

    id: str
    bus: str
    status: str  # "existing" | "candidate"
    p_in_max: float
    p_out_max: float
    duration: float  # hours of storage at rated charge power
    efficiency: float  # round-trip fraction in (0, 1]
    reactive_fraction: float  # reactive band as a fraction of p_in_max
    annual_cost_per_mw: float = 0.0  # $/MW/yr on real MW, candidates only
    invest_cap: float = 0.0  # per-unit MW ceiling for candidate sizing


@dataclass(frozen=True, eq=False)
class SolarUnit:
    """PV unit: fixed rooftop generation or a community-solar candidate site."""

    id: str
    bus: str
    role: str  # "rooftop_existing" | "cs_candidate"
    installed_capacity: float = 0.0  # per-unit MW, rooftop only
    capacity_factor: Mapping[str, np.ndarray] = field(default_factory=dict)
    invest_cap: float = 0.0  # per-unit MW, candidates only


@dataclass(frozen=True)
class ScenarioDay:
    """Representative day with its annual weight; always 24 hourly slots."""

    label: str
    weight: float
    hours: int = HOURS_PER_DAY


@dataclass(frozen=True, eq=False)
class FeederNetwork:
    """Validated radial feeder; immutable, safe to share across planning runs."""

    base_mva: float
    v_ref: float
    buses: tuple[Bus, ...]
    segments: tuple[LineSegment, ...]
    storage_units: tuple[StorageUnit, ...]
    solar_units: tuple[SolarUnit, ...]
    scenario_days: tuple[ScenarioDay, ...]
    feeder_head_segment: str
    # segment id -> (beta_p, beta_q) loss allocation factors
    loss_factors: Mapping[str, tuple[float, float]] = field(default_factory=dict)
    imbalance_cost: float = DEFAULT_IMBALANCE_COST  # $/MWh
    # day label -> 24 hourly curtailment prices, $/MWh
    curtailment_price: Mapping[str, np.ndarray] = field(default_factory=dict)
    cs_total_capacity: float | None = None  # per-unit MW; None = size from MDL
    kv_base: float | None = None  # optional, for conductor-table conversions
    region: str = "nonCA"

    def bus(self, bus_id: str) -> Bus:
        return self._bus_index[bus_id]

    def segment(self, seg_id: str) -> LineSegment:
        return self._segment_index[seg_id]

    @property
    def _bus_index(self) -> dict[str, Bus]:
        idx = self.__dict__.get("_bus_idx_cache")
        if idx is None:
            idx = {b.id: b for b in self.buses}
            self.__dict__["_bus_idx_cache"] = idx
        return idx

    @property
    def _segment_index(self) -> dict[str, LineSegment]:
        idx = self.__dict__.get("_seg_idx_cache")
        if idx is None:
            idx = {s.id: s for s in self.segments}
            self.__dict__["_seg_idx_cache"] = idx
        return idx

    @property
    def source_bus(self) -> str:
        """Substation-side bus: the from-bus of the feeder head segment."""
        return self.segment(self.feeder_head_segment).from_bus

    def day(self, label: str) -> ScenarioDay:
        for d in self.scenario_days:
            if d.label == label:
                return d
        raise KeyError(f"unknown scenario day {label!r}")

    def time_index(self) -> list[tuple[str, int]]:
        """All (day label, hour) pairs of the planning horizon, in file order."""
        return [(d.label, h) for d in self.scenario_days for h in range(d.hours)]

    def children(self) -> dict[str, list[LineSegment]]:
        """Outgoing segments per bus (radial orientation)."""
        out: dict[str, list[LineSegment]] = {b.id: [] for b in self.buses}
        for seg in self.segments:
            out[seg.from_bus].append(seg)
        return out

    def depths(self) -> dict[str, int]:
        """Hop distance of every bus from the source bus."""
        depth = {self.source_bus: 0}
        order = self.segments_topological()
        for seg in order:
            depth[seg.to_bus] = depth[seg.from_bus] + 1
        return depth

    def segments_topological(self) -> list[LineSegment]:
        """Segments ordered so every from-bus precedes its to-bus."""
        cached = self.__dict__.get("_topo_cache")
        if cached is not None:
            return cached
        by_from: dict[str, list[LineSegment]] = {}
        for seg in self.segments:
            by_from.setdefault(seg.from_bus, []).append(seg)
        order: list[LineSegment] = []
        stack = [self.source_bus]
        while stack:
            bus = stack.pop()
            for seg in reversed(by_from.get(bus, [])):
                order.append(seg)
                stack.append(seg.to_bus)
        self.__dict__["_topo_cache"] = order
        return order

    def subtree_buses(self) -> dict[str, list[str]]:
        """For each segment id, the bus ids at or below its to-bus."""
        children = self.children()
        down: dict[str, list[str]] = {}
        for seg in reversed(self.segments_topological()):
            buses = [seg.to_bus]
            for child in children[seg.to_bus]:
                buses.extend(down[child.id])
            down[seg.id] = buses
        return down

    def total_active_load(self, day: str, hour: int) -> float:
        return float(sum(b.active_load[day][hour] for b in self.buses))

    def total_reactive_load(self, day: str, hour: int) -> float:
        return float(sum(b.reactive_load[day][hour] for b in self.buses))

    def rooftop_units(self) -> list[SolarUnit]:
        return [u for u in self.solar_units if u.role == "rooftop_existing"]

    def cs_units(self) -> list[SolarUnit]:
        return [u for u in self.solar_units if u.role == "cs_candidate"]


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise FeederFormatError(msg)


_MISSING = object()


def _field(obj: dict, key: str, where: str, conv=float, default=_MISSING):
    """The field ``obj[key]`` converted by ``conv``; ``default`` when it is
    absent or null. A missing (without default), ill-typed or non-finite
    value raises ``FeederFormatError`` naming the key and its path."""
    path = f"{where}.{key}"
    if obj.get(key) is None:
        _require(default is not _MISSING, f"{key!r} missing ({path})")
        return default
    try:
        value = conv(obj[key])
    except (TypeError, ValueError):
        raise FeederFormatError(f"{key!r} must be {conv.__name__}, got {obj[key]!r} "
                                f"({path})") from None
    _require(conv is not float or math.isfinite(value),
             f"{key!r} must be finite, got {value!r} ({path})")
    return value


def _entries(doc: dict, key: str) -> list[tuple[str, dict]]:
    """The objects of the list ``doc[key]``, each with its path (by id if it has one)."""
    raw = doc.get(key, [])
    _require(isinstance(raw, list), f"{key}: expected a list")
    out = []
    for i, entry in enumerate(raw):
        _require(isinstance(entry, dict),
                 f"{key}[{i}]: expected an object, got {type(entry).__name__}")
        out.append((f"{key}[{entry.get('id', i)}]", entry))
    return out


def _profile(raw: object, where: str, days: Iterable[ScenarioDay]) -> dict[str, np.ndarray]:
    _require(isinstance(raw, dict), f"{where}: expected a day-label -> 24-value map")
    out: dict[str, np.ndarray] = {}
    for label, values in raw.items():  # type: ignore[union-attr]
        try:
            arr = np.asarray(values, dtype=float)
        except (TypeError, ValueError):
            raise FeederFormatError(f"{where}[{label}]: expected numbers") from None
        _require(arr.ndim == 1 and arr.size == HOURS_PER_DAY,
                 f"{where}[{label}]: expected {HOURS_PER_DAY} hourly values, got {arr.size}")
        _require(bool(np.isfinite(arr).all()), f"{where}[{label}]: values must be finite")
        out[label] = arr
    for d in days:
        if d.label not in out:
            raise ProfileCoverageError(f"{where}: no profile for day {d.label!r} (hours 0..23)")
    return out


def _check_profile_coverage(net: FeederNetwork) -> None:
    for b in net.buses:
        for d in net.scenario_days:
            for name, prof in (("active_load", b.active_load), ("reactive_load", b.reactive_load)):
                if d.label not in prof:
                    raise ProfileCoverageError(
                        f"buses[{b.id}].{name}: missing day {d.label!r}")
                if len(prof[d.label]) != d.hours:
                    raise ProfileCoverageError(
                        f"buses[{b.id}].{name}[{d.label}]: covers {len(prof[d.label])} hours, "
                        f"horizon needs ({d.label}, {d.hours - 1})")
    for u in net.solar_units:
        for d in net.scenario_days:
            if d.label not in u.capacity_factor:
                raise ProfileCoverageError(f"solar[{u.id}].capacity_factor: missing day {d.label!r}")


def validate(net: FeederNetwork) -> FeederNetwork:
    """Check radiality, orientation, and parameter sanity; return the network."""
    bus_ids = [b.id for b in net.buses]
    _require(len(set(bus_ids)) == len(bus_ids), "duplicate bus id")
    seg_ids = [s.id for s in net.segments]
    _require(len(set(seg_ids)) == len(seg_ids), "duplicate segment id")
    _require(net.base_mva > 0, "base_mva must be positive")

    for b in net.buses:
        _require(0 < b.vmin < b.vmax, f"buses[{b.id}]: need 0 < vmin < vmax")

    heads = [s for s in net.segments if isinstance(s.kind, FeederHeadKind)]
    _require(len(heads) == 1, f"expected exactly one feeder head segment, found {len(heads)}")
    _require(heads[0].id == net.feeder_head_segment,
             f"feeder_head_segment={net.feeder_head_segment!r} does not name the "
             f"feeder-head-kind segment {heads[0].id!r}")

    known = set(bus_ids)
    for s in net.segments:
        _require(s.from_bus in known, f"segments[{s.id}]: unknown from_bus {s.from_bus!r}")
        _require(s.to_bus in known, f"segments[{s.id}]: unknown to_bus {s.to_bus!r}")
        if isinstance(s.kind, (FeederHeadKind, RegulatorKind)):
            _require(s.kind.tap_min <= 1.0 <= s.kind.tap_max,
                     f"segments[{s.id}]: tap range must straddle 1.0")
        if isinstance(s.kind, CandidateUpgradeKind):
            zero = [o for o in s.kind.options if o.annual_cost_per_mva == 0.0]
            _require(len(zero) == 1,
                     f"segments[{s.id}]: candidate needs exactly one zero-cost keep-as-is "
                     f"option, found {len(zero)}")
            keep = zero[0]
            _require(math.isclose(keep.resistance, s.resistance) and
                     math.isclose(keep.reactance, s.reactance),
                     f"segments[{s.id}]: keep-as-is option must match current impedance")
            for o in s.kind.options:
                _require(o.capacity > 0, f"segments[{s.id}]: option capacity must be > 0")

    if len(net.segments) != len(net.buses) - 1:
        raise RadialityError(
            f"|segments| = {len(net.segments)} but |buses| - 1 = {len(net.buses) - 1}; "
            "the feeder graph cannot be a tree")
    # Walk from the source; every bus must be reached exactly once through its
    # parent, with all segments oriented away from the substation.
    parent_count: dict[str, int] = {}
    for s in net.segments:
        parent_count[s.to_bus] = parent_count.get(s.to_bus, 0) + 1
        if parent_count[s.to_bus] > 1:
            raise RadialityError(f"bus {s.to_bus!r} has two incoming segments (cycle)")
    source = net.source_bus
    if source in parent_count:
        raise RadialityError(f"source bus {source!r} has an incoming segment (cycle)")
    reached = {source}
    frontier = [source]
    by_from: dict[str, list[LineSegment]] = {}
    for s in net.segments:
        by_from.setdefault(s.from_bus, []).append(s)
    while frontier:
        bus = frontier.pop()
        for s in by_from.get(bus, []):
            if s.to_bus in reached:
                raise RadialityError(f"bus {s.to_bus!r} reached twice (cycle via {s.id!r})")
            reached.add(s.to_bus)
            frontier.append(s.to_bus)
    missing = set(bus_ids) - reached
    if missing:
        raise RadialityError(f"disconnected bus(es): {sorted(missing)}")

    for sid, (bp, bq) in net.loss_factors.items():
        _require(sid in net._segment_index, f"loss_factors: unknown segment {sid!r}")
        _require(bp >= 0 and bq >= 0, f"loss_factors[{sid}]: betas must be >= 0")

    seen_days = [d.label for d in net.scenario_days]
    _require(len(set(seen_days)) == len(seen_days), "duplicate scenario day label")
    for d in net.scenario_days:
        _require(d.weight > 0, f"days[{d.label}]: weight must be positive")
        _require(d.hours == HOURS_PER_DAY, f"days[{d.label}]: hours must be {HOURS_PER_DAY}")

    for u in net.storage_units:
        _require(u.status in ("existing", "candidate"), f"storage[{u.id}]: bad status {u.status!r}")
        _require(u.bus in known, f"storage[{u.id}]: unknown bus {u.bus!r}")
        _require(u.duration > 0, f"storage[{u.id}]: duration must be > 0")
        _require(0 < u.efficiency <= 1, f"storage[{u.id}]: efficiency must be in (0, 1]")
        _require(u.reactive_fraction >= 0, f"storage[{u.id}]: reactive_fraction must be >= 0")
        if u.status == "candidate":
            _require(u.invest_cap > 0, f"storage[{u.id}]: candidate needs invest_cap > 0")

    for u in net.solar_units:
        _require(u.role in ("rooftop_existing", "cs_candidate"), f"solar[{u.id}]: bad role {u.role!r}")
        _require(u.bus in known, f"solar[{u.id}]: unknown bus {u.bus!r}")
        for label, arr in u.capacity_factor.items():
            _require(bool(np.all((arr >= 0) & (arr <= 1))),
                     f"solar[{u.id}].capacity_factor[{label}]: values must lie in [0, 1]")
        if u.role == "cs_candidate":
            _require(u.invest_cap > 0, f"solar[{u.id}]: candidate needs invest_cap > 0")

    _check_profile_coverage(net)
    return net


def _kind_from_json(raw: dict, where: str, scale: float) -> SegmentKind:
    _require(isinstance(raw, dict) and "type" in raw, f"{where}: kind needs a 'type'")
    t = raw["type"]
    if t == "fixed":
        return FixedKind(capacity=_field(raw, "capacity_mva", where) * scale)
    if t == "candidate_upgrade":
        _require(isinstance(raw.get("options"), list), f"{where}.options: expected a list")
        opts = []
        for i, o in enumerate(raw["options"]):
            at = f"{where}.options[{i}]"
            _require(isinstance(o, dict), f"{at}: expected an object")
            opts.append(UpgradeOption(
                capacity=_field(o, "capacity_mva", at) * scale,
                resistance=_field(o, "resistance", at),
                reactance=_field(o, "reactance", at),
                annual_cost_per_mva=_field(o, "annual_cost_per_mva", at, default=0.0),
                conductor=o.get("conductor", ""),
            ))
        _require(len(opts) >= 1, f"{where}: candidate_upgrade needs at least one option")
        return CandidateUpgradeKind(options=tuple(opts))
    if t == "feeder_head":
        return FeederHeadKind(
            base_capacity=_field(raw, "base_capacity_mva", where) * scale,
            upgrade_capacity=_field(raw, "upgrade_capacity_mva", where, default=0.0) * scale,
            upgrade_cost=_field(raw, "upgrade_cost_per_yr", where, default=0.0),
            tap_min=_field(raw, "tap_min", where, default=DEFAULT_VMIN),
            tap_max=_field(raw, "tap_max", where, default=DEFAULT_VMAX),
        )
    if t == "regulator":
        return RegulatorKind(
            existing=_field(raw, "existing", where, bool),
            capacity=_field(raw, "capacity_mva", where) * scale,
            install_cost=_field(raw, "install_cost_per_yr", where, default=0.0),
            tap_min=_field(raw, "tap_min", where, default=DEFAULT_VMIN),
            tap_max=_field(raw, "tap_max", where, default=DEFAULT_VMAX),
        )
    raise FeederFormatError(f"{where}: unknown kind type {t!r}")


def _kind_to_json(kind: SegmentKind, scale: float) -> dict:
    if isinstance(kind, FixedKind):
        return {"type": "fixed", "capacity_mva": kind.capacity * scale}
    if isinstance(kind, CandidateUpgradeKind):
        return {
            "type": "candidate_upgrade",
            "options": [
                {
                    "capacity_mva": o.capacity * scale,
                    "resistance": o.resistance,
                    "reactance": o.reactance,
                    "annual_cost_per_mva": o.annual_cost_per_mva,
                    "conductor": o.conductor,
                }
                for o in kind.options
            ],
        }
    if isinstance(kind, FeederHeadKind):
        return {
            "type": "feeder_head",
            "base_capacity_mva": kind.base_capacity * scale,
            "upgrade_capacity_mva": kind.upgrade_capacity * scale,
            "upgrade_cost_per_yr": kind.upgrade_cost,
            "tap_min": kind.tap_min,
            "tap_max": kind.tap_max,
        }
    return {
        "type": "regulator",
        "existing": kind.existing,
        "capacity_mva": kind.capacity * scale,
        "install_cost_per_yr": kind.install_cost,
        "tap_min": kind.tap_min,
        "tap_max": kind.tap_max,
    }


def network_from_json(doc: dict) -> FeederNetwork:
    """Build and validate a FeederNetwork from a parsed feeder document."""
    _require(isinstance(doc, dict), "top level must be a JSON object")
    for key in ("base_mva", "buses", "segments", "days"):
        _require(key in doc, f"missing top-level key {key!r}")
    base = _field(doc, "base_mva", "feeder")
    _require(base > 0, "base_mva must be positive")
    units = doc.get("units", "mw")
    _require(units in ("mw", "per_unit"), f"units must be 'mw' or 'per_unit', got {units!r}")
    scale = 1.0 / base if units == "mw" else 1.0

    days = []
    for i, (_, d) in enumerate(_entries(doc, "days")):
        where = f"days[{d.get('label', i)}]"
        days.append(ScenarioDay(label=_field(d, "label", where, str),
                                weight=_field(d, "weight", where),
                                hours=_field(d, "hours", where, int, default=HOURS_PER_DAY)))
    days = tuple(days)

    buses = []
    for where, b in _entries(doc, "buses"):
        active = _profile(b.get("active_load", {}), where + ".active_load", days)
        reactive = _profile(b.get("reactive_load", {}), where + ".reactive_load", days)
        buses.append(Bus(
            id=_field(b, "id", where, str),
            vmin=_field(b, "vmin", where, default=DEFAULT_VMIN),
            vmax=_field(b, "vmax", where, default=DEFAULT_VMAX),
            active_load={k: v * scale for k, v in active.items()},
            reactive_load={k: v * scale for k, v in reactive.items()},
        ))

    segments = []
    for where, s in _entries(doc, "segments"):
        _require("kind" in s, f"{where}.kind: missing")
        segments.append(LineSegment(
            id=_field(s, "id", where, str),
            from_bus=_field(s, "from_bus", where, str),
            to_bus=_field(s, "to_bus", where, str),
            resistance=_field(s, "resistance", where),
            reactance=_field(s, "reactance", where),
            kind=_kind_from_json(s["kind"], where + ".kind", scale),
            length_miles=_field(s, "length_miles", where, default=0.0),
            placement=_field(s, "placement", where, str, default=""),
        ))

    storage = []
    for where, u in _entries(doc, "storage"):
        status = _field(u, "status", where, str)
        power_scale = scale if status == "existing" else 1.0
        storage.append(StorageUnit(
            id=_field(u, "id", where, str),
            bus=_field(u, "bus", where, str),
            status=status,
            p_in_max=_field(u, "p_in_max_mw", where) * power_scale,
            p_out_max=_field(u, "p_out_max_mw", where) * power_scale,
            duration=_field(u, "duration_h", where),
            efficiency=_field(u, "efficiency", where),
            reactive_fraction=_field(u, "reactive_fraction", where, default=0.0),
            annual_cost_per_mw=_field(u, "annual_cost_per_mw", where, default=0.0),
            invest_cap=_field(u, "invest_cap_mw", where, default=0.0) * scale,
        ))

    solar = []
    for where, u in _entries(doc, "solar"):
        solar.append(SolarUnit(
            id=_field(u, "id", where, str),
            bus=_field(u, "bus", where, str),
            role=_field(u, "role", where, str),
            installed_capacity=_field(u, "installed_capacity_mw", where, default=0.0) * scale,
            capacity_factor=_profile(u.get("capacity_factor", {}), where + ".capacity_factor",
                                     days),
            invest_cap=_field(u, "invest_cap_mw", where, default=0.0) * scale,
        ))

    prices = doc.get("prices", {})
    curtailment = {}
    if "curtailment_per_mwh" in prices:
        curtailment = _profile(prices["curtailment_per_mwh"], "prices.curtailment_per_mwh", days)

    head = doc.get("feeder_head_segment")
    if head is None:
        fh = [s for s in segments if isinstance(s.kind, FeederHeadKind)]
        _require(len(fh) == 1, "cannot infer feeder head: need exactly one feeder_head segment")
        head = fh[0].id

    cs_cap = _field(doc, "cs_capacity_mw", "feeder", default=None)
    kv_base = _field(doc, "kv_base", "feeder", default=None)
    losses = doc.get("loss_factors", {})
    _require(isinstance(losses, dict), "loss_factors: expected an object")
    loss_factors = {}
    for sid, pair in losses.items():
        _require(isinstance(pair, list) and len(pair) == 2,
                 f"loss_factors.{sid}: expected [beta_p, beta_q]")
        loss_factors[sid] = (_field(dict(enumerate(pair)), 0, f"loss_factors.{sid}"),
                             _field(dict(enumerate(pair)), 1, f"loss_factors.{sid}"))
    net = FeederNetwork(
        base_mva=base,
        v_ref=_field(doc, "v_ref", "feeder", default=1.0),
        buses=tuple(buses),
        segments=tuple(segments),
        storage_units=tuple(storage),
        solar_units=tuple(solar),
        scenario_days=days,
        feeder_head_segment=str(head),
        loss_factors=loss_factors,
        imbalance_cost=_field(doc, "imbalance_cost", "feeder", default=DEFAULT_IMBALANCE_COST),
        curtailment_price=curtailment,
        cs_total_capacity=None if cs_cap is None else cs_cap * scale,
        kv_base=kv_base,
        region=str(doc.get("region", "nonCA")),
    )
    return validate(net)


def network_to_json(net: FeederNetwork) -> dict:
    """Serialize a network; emits per-unit values so reloading is exact."""
    return {
        "units": "per_unit",
        "base_mva": net.base_mva,
        "v_ref": net.v_ref,
        "region": net.region,
        "kv_base": net.kv_base,
        "feeder_head_segment": net.feeder_head_segment,
        "imbalance_cost": net.imbalance_cost,
        "cs_capacity_mw": net.cs_total_capacity,
        "days": [{"label": d.label, "weight": d.weight, "hours": d.hours}
                 for d in net.scenario_days],
        "buses": [
            {
                "id": b.id, "vmin": b.vmin, "vmax": b.vmax,
                "active_load": {k: list(v) for k, v in b.active_load.items()},
                "reactive_load": {k: list(v) for k, v in b.reactive_load.items()},
            }
            for b in net.buses
        ],
        "segments": [
            {
                "id": s.id, "from_bus": s.from_bus, "to_bus": s.to_bus,
                "resistance": s.resistance, "reactance": s.reactance,
                "length_miles": s.length_miles, "placement": s.placement,
                "kind": _kind_to_json(s.kind, 1.0),
            }
            for s in net.segments
        ],
        "storage": [
            {
                "id": u.id, "bus": u.bus, "status": u.status,
                "p_in_max_mw": u.p_in_max, "p_out_max_mw": u.p_out_max,
                "duration_h": u.duration, "efficiency": u.efficiency,
                "reactive_fraction": u.reactive_fraction,
                "annual_cost_per_mw": u.annual_cost_per_mw,
                "invest_cap_mw": u.invest_cap,
            }
            for u in net.storage_units
        ],
        "solar": [
            {
                "id": u.id, "bus": u.bus, "role": u.role,
                "installed_capacity_mw": u.installed_capacity,
                "invest_cap_mw": u.invest_cap,
                "capacity_factor": {k: list(v) for k, v in u.capacity_factor.items()},
            }
            for u in net.solar_units
        ],
        "prices": {"curtailment_per_mwh": {k: list(v) for k, v in net.curtailment_price.items()}},
        "loss_factors": {k: list(v) for k, v in net.loss_factors.items()},
    }


def load_feeder(path: str) -> FeederNetwork:
    """Parse and validate a feeder JSON file."""
    with open(path) as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise FeederFormatError(f"{path}: line {exc.lineno}, col {exc.colno}: {exc.msg}") from exc
    try:
        return network_from_json(doc)
    except NetworkError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def save_feeder(net: FeederNetwork, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(network_to_json(net), fh, indent=1)
        fh.write("\n")


def networks_equal(a: FeederNetwork, b: FeederNetwork) -> bool:
    """Field-by-field structural equality (exact float comparison)."""
    return network_to_json(a) == network_to_json(b)


def minimum_daily_load(net: FeederNetwork, day: ScenarioDay | str) -> float:
    """Minimum over the day's hours of total load net of rooftop output, in MW.

    This is the conventional sizing cap for a community-solar project on the
    feeder.
    """
    label = day if isinstance(day, str) else day.label
    net.day(label)  # raises KeyError if absent
    total = np.zeros(HOURS_PER_DAY)
    for b in net.buses:
        total += b.active_load[label]
    for u in net.rooftop_units():
        total -= u.installed_capacity * u.capacity_factor[label]
    return float(total.min()) * net.base_mva


def scale_loads(net: FeederNetwork, factor: float) -> FeederNetwork:
    """Homothetic load scaling (active and reactive) for scenario construction."""
    buses = tuple(
        replace(b,
                active_load={k: v * factor for k, v in b.active_load.items()},
                reactive_load={k: v * factor for k, v in b.reactive_load.items()})
        for b in net.buses
    )
    return replace(net, buses=buses)


def scale_rooftop(net: FeederNetwork, factor: float) -> FeederNetwork:
    """Scale existing rooftop PV capacity; candidate CS units are untouched."""
    solar = tuple(
        replace(u, installed_capacity=u.installed_capacity * factor)
        if u.role == "rooftop_existing" else u
        for u in net.solar_units
    )
    return replace(net, solar_units=solar)
