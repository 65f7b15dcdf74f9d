"""Seeded synthetic series generator with five anomaly types.

The base signal is a sum of sinusoids plus optional Gaussian noise; the
sinusoid phase argument uses ``t mod T`` so integer periods repeat
bit-exactly (which lets distance-based detectors hit exact zeros on
noise-free data). Anomalies:

* ``global``: one point moved to global mean +/- global_factor * global std.
* ``contextual``: one point moved to local mean +/- contextual_factor *
  local std, clamped into the clean series' [min, max] so it is not a
  global outlier.
* ``seasonal``: the dominant sinusoid's frequency is multiplied by
  seasonal_factor inside the segment, amplitude unchanged.
* ``trend``: a ramp of slope +/- trend_slope is added inside the segment
  and decays linearly back to zero over an unlabeled relaxation window of
  equal length, so no persistent level shift leaks outside the labels.
* ``shapelet``: the segment's waveform is replaced by a square wave with
  the same mean and amplitude.

Labels are 1 exactly on the planned indices (the trend relaxation window
stays unlabeled). All randomness comes from one SplitMix64 stream in a
fixed draw order (phases, then noise when sigma > 0, then per anomaly:
length, placement attempts, sign), so generation is a pure function of the
config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .core import TimeSeries, split_series
from .datasets import write_dataset
from .errors import ConfigError, PlanInfeasible, require_int, require_number
from .rng import SplitMix64

ANOMALY_KINDS = ("global", "contextual", "seasonal", "trend", "shapelet")
POINT_KINDS = ("global", "contextual")

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class AnomalySpec:
    """How many anomalies of one kind to inject and how long they may be.

    Point kinds (global, contextual) always occupy a single index; the
    length range applies to segment kinds only.
    """

    kind: str
    count: int = 1
    min_len: int = 1
    max_len: int = 1

    def __post_init__(self):
        if self.kind not in ANOMALY_KINDS:
            raise ConfigError(f"unknown anomaly kind {self.kind!r}")
        require_int("anomaly count", self.count, 1)
        require_int("anomaly min_len", self.min_len)
        require_int("anomaly max_len", self.max_len)
        if not (1 <= self.min_len <= self.max_len):
            raise ConfigError("need 1 <= min_len <= max_len")


@dataclass(frozen=True)
class SynthConfig:
    id: str
    length: int = 2000
    periods: tuple[float, ...] = (50.0,)
    amplitudes: tuple[float, ...] = (1.0,)
    noise_sigma: float = 0.05
    anomalies: tuple[AnomalySpec, ...] = ()
    inject_region: str = "test_only"  # "test_only" | "anywhere"
    seed: int = 0
    global_factor: float = 8.0
    contextual_factor: float = 4.0
    contextual_window: int = 16
    seasonal_factor: float = 2.0
    trend_slope: float = 0.05

    def __post_init__(self):
        if not isinstance(self.id, str):
            raise ConfigError(f"curve id must be a string, got {self.id!r}")
        require_int("length", self.length, 100)
        require_int("seed", self.seed, 0)
        require_int("contextual_window", self.contextual_window)
        for name in ("noise_sigma", "global_factor", "contextual_factor",
                     "seasonal_factor", "trend_slope"):
            require_number(name, getattr(self, name))
        for name in ("periods", "amplitudes"):
            for v in getattr(self, name):
                require_number(name, v)
        if len(self.periods) != len(self.amplitudes) or not self.periods:
            raise ConfigError("periods and amplitudes must match and be non-empty")
        if any(p <= 1 for p in self.periods):
            raise ConfigError("periods must be > 1")
        if self.noise_sigma < 0:
            raise ConfigError("noise_sigma must be >= 0")
        if self.inject_region not in ("test_only", "anywhere"):
            raise ConfigError(f"unknown inject_region {self.inject_region!r}")


def _sin_at(t: int, period: float, phase: float) -> float:
    return math.sin(_TWO_PI * ((t % period) / period) + phase)


def _dominant(config: SynthConfig) -> int:
    best = 0
    for i in range(1, len(config.amplitudes)):
        if config.amplitudes[i] > config.amplitudes[best]:
            best = i
    return best


def _base_signal(config: SynthConfig, phases: Sequence[float]) -> np.ndarray:
    """Every sample's sum of sinusoids, bit-identical to ``_sin_at`` per term.

    For t >= 0 and period > 0, ``fmod`` equals Python's ``t % period``; it
    and ``/``, ``*`` and ``+`` round exactly as Python floats do, while
    ``sin`` stays ``math.sin``. Terms are added one by one in period order,
    starting from 0.0.
    """
    n = config.length
    t = np.arange(n, dtype=np.float64)
    total = np.zeros(n)
    for a, p, ph in zip(config.amplitudes, config.periods, phases):
        arg = _TWO_PI * (np.fmod(t, p) / p) + ph
        total += a * np.fromiter(map(math.sin, arg.tolist()), np.float64, n)
    return total


@dataclass
class _Placement:
    kind: str
    start: int
    length: int  # labeled length


def _place_anomalies(
    config: SynthConfig, rng: SplitMix64, region_lo: int, n: int
) -> list[_Placement]:
    placements: list[_Placement] = []
    reserved: list[tuple[int, int]] = []  # inclusive spans incl. relax windows

    def conflicts(lo: int, hi: int) -> bool:
        return any(lo <= rhi + 1 and hi >= rlo - 1 for rlo, rhi in reserved)

    for spec in config.anomalies:
        for _ in range(spec.count):
            if spec.kind in POINT_KINDS:
                length = 1
                rng.randint(1)  # keep the draw layout uniform across kinds
            else:
                length = spec.min_len + rng.randint(spec.max_len - spec.min_len + 1)
            footprint = length * 2 if spec.kind == "trend" else length
            span = n - footprint - region_lo
            if span < 1:
                raise PlanInfeasible(
                    f"{spec.kind} of length {length} does not fit the inject region"
                )
            for _attempt in range(200):
                start = region_lo + rng.randint(span)
                if not conflicts(start, start + footprint - 1):
                    reserved.append((start, start + footprint - 1))
                    placements.append(_Placement(spec.kind, start, length))
                    break
            else:
                raise PlanInfeasible(
                    f"could not place {spec.kind} anomaly without overlap"
                )
    return placements


def generate(config: SynthConfig) -> TimeSeries:
    """Deterministically generate one labeled series with a 4:1:5 split."""
    n = config.length
    rng = SplitMix64(config.seed)
    phases = [_TWO_PI * rng.uniform() for _ in config.periods]
    base_arr = _base_signal(config, phases)
    if config.noise_sigma > 0:
        noise_arr = config.noise_sigma * rng.normal_block(n)
    else:
        noise_arr = np.zeros(n)
    values = (base_arr + noise_arr).tolist()
    base = base_arr.tolist()
    noise = noise_arr.tolist()
    clean = values[:]

    mu_g = sum(clean) / n
    sigma_g = math.sqrt(sum((v - mu_g) ** 2 for v in clean) / n)
    min_g = min(clean)
    max_g = max(clean)

    split = split_series(n)
    region_lo = split.valid_end if config.inject_region == "test_only" else 0
    placements = _place_anomalies(config, rng, region_lo, n)

    labels = [0] * n
    dom = _dominant(config)
    for pl in placements:
        s = pl.start
        e = pl.start + pl.length - 1
        if pl.kind == "global":
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            values[s] = mu_g + sign * config.global_factor * sigma_g
        elif pl.kind == "contextual":
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            lo = max(0, s - config.contextual_window)
            window = clean[lo:s] if s > lo else clean[:1]
            mu_l = sum(window) / len(window)
            sigma_l = math.sqrt(sum((v - mu_l) ** 2 for v in window) / len(window))
            target = mu_l + sign * config.contextual_factor * sigma_l
            values[s] = min(max(target, min_g), max_g)
        elif pl.kind == "seasonal":
            for t in range(s, e + 1):
                total = 0.0
                for i, (a, p, ph) in enumerate(
                    zip(config.amplitudes, config.periods, phases)
                ):
                    period = p / config.seasonal_factor if i == dom else p
                    total += a * _sin_at(t, period, ph)
                values[t] = total + noise[t]
        elif pl.kind == "trend":
            sign = 1.0 if rng.uniform() < 0.5 else -1.0
            slope = sign * config.trend_slope
            for t in range(s, e + 1):
                values[t] += slope * (t - s)
            offset = slope * (e - s)
            relax = pl.length
            for j in range(1, relax + 1):
                t = e + j
                if t < n:
                    values[t] += offset * (relax - j) / relax
        else:  # shapelet
            seg_base = base[s : e + 1]
            mu_seg = sum(seg_base) / len(seg_base)
            amp = (max(seg_base) - min(seg_base)) / 2.0
            if amp < 1e-12:
                amp = config.amplitudes[dom]
            for t in range(s, e + 1):
                level = amp if _sin_at(t, config.periods[dom], phases[dom]) >= 0 else -amp
                values[t] = mu_seg + level + noise[t]
        for t in range(s, e + 1):
            labels[t] = 1

    return TimeSeries(id=config.id, values=values, labels=labels, split=split)


def generate_dataset(
    configs: Sequence[SynthConfig],
    root: str,
    name: str = "synth",
    k_delay: int | None = None,
) -> list[TimeSeries]:
    """Generate every curve and write the canonical dataset layout."""
    if not configs:
        raise ConfigError("no curves configured")
    ids = [c.id for c in configs]
    if len(set(ids)) != len(ids):
        raise ConfigError("duplicate curve ids in synth config")
    series = [generate(c) for c in configs]
    write_dataset(root, series, name=name, k_delay=k_delay)
    return series


def _anomaly_spec_from_dict(d: Mapping) -> AnomalySpec:
    if not isinstance(d, Mapping):
        raise ConfigError(f"anomaly entries must be objects, got {d!r}")
    known = {"kind", "count", "min_len", "max_len"}
    extra = set(d) - known
    if extra:
        raise ConfigError(f"unknown anomaly fields {sorted(extra)}")
    return AnomalySpec(
        kind=d.get("kind", ""),
        count=d.get("count", 1),
        min_len=d.get("min_len", 1),
        max_len=d.get("max_len", d.get("min_len", 1)),
    )


def synth_config_from_dict(d: Mapping) -> SynthConfig:
    known = {
        "id", "length", "periods", "amplitudes", "noise_sigma", "anomalies",
        "inject_region", "seed", "global_factor", "contextual_factor",
        "contextual_window", "seasonal_factor", "trend_slope",
    }
    if not isinstance(d, Mapping):
        raise ConfigError(f"synth curves must be objects, got {d!r}")
    extra = set(d) - known
    if extra:
        raise ConfigError(f"unknown synth fields {sorted(extra)}")
    if "id" not in d:
        raise ConfigError("synth curve needs an id")
    for name in ("periods", "amplitudes", "anomalies"):
        if not isinstance(d.get(name, []), list):
            raise ConfigError(f"synth {name} must be a list")
    kwargs = dict(d)
    kwargs["periods"] = tuple(kwargs.get("periods", (50.0,)))
    kwargs["amplitudes"] = tuple(kwargs.get("amplitudes", (1.0,)))
    kwargs["anomalies"] = tuple(
        _anomaly_spec_from_dict(a) for a in kwargs.get("anomalies", ())
    )
    return SynthConfig(**kwargs)


def dataset_plan_from_json(doc: Mapping) -> tuple[str, int | None, list[SynthConfig]]:
    """Parse the `gen` subcommand's JSON document."""
    if not isinstance(doc, Mapping) or "curves" not in doc:
        raise ConfigError("synth config must be an object with a curves list")
    name = doc.get("name", "synth")
    k_delay = doc.get("k_delay")
    if not isinstance(name, str):
        raise ConfigError(f"dataset name must be a string, got {name!r}")
    if k_delay is not None:
        require_int("k_delay", k_delay, 0)
    if not isinstance(doc["curves"], list):
        raise ConfigError("synth curves must be a list")
    configs = [synth_config_from_dict(c) for c in doc["curves"]]
    return name, k_delay, configs
