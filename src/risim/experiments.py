"""Scenario assembly, seeded Monte Carlo orchestration, parameter sweeps,
canned experiment geometries, and result serialization.

Reproducibility contract: every random draw of a run comes from a stream
derived statelessly from (master_seed, trial, component), so a trial's
draws do not depend on the trial count or on the order trials run.  A key
holds nothing of the config but its seed: two configs that share a seed,
such as the points of a sweep, run on common random numbers.  Each stream
is PCG64 seeded by SeedSequence(entropy=key), bit for bit, for a key
(master_seed, 0, t, *tag) with one-word trial and tag ints.
stream_states derives the seed words of a range of trials times an array
of tags in one vectorized pass of SeedSequence's hash, and derived_rng
turns one of them into a generator.  stream_states keeps its last 8
results, read-only and keyed on (master_seed, trials, tags), so the points
of a sweep derive each block's seed words once, in the same bytes a fresh
pass gives.  The tests compare every stream with numpy's own SeedSequence,
so a numpy release that changed its hash would fail them rather than
silently move the streams.

The config states each physical fact once: one carrier, freq_hz, for every
link, and shadowing on every link, with sigma = 0 the only way to turn it
off.  A trial draws every shadow whatever its sigma, so a config's streams
do not depend on its sigmas.

run_scenario takes the trials in blocks (see the resource bounds for their
size).  draw_block, whose docstring states each stream's key and draw
order, draws a block into one BlockDraws record; channel_stage builds the
run-fixed set-up once, and its channel_block turns each record into the
block's h_eff with no generator.  Every step is elementwise or sums within
one trial or one scatterer, so results do not depend on the block size.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import operator
import types
import typing
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .channel import (  # ris_rx_channel, direct_channel: kept for perfbench's tracer
    _NEPERS_PER_DB, RisDescriptor, Sightline, _weights, coefficients, direct_block,
    direct_channel, direct_paths, ris_rx_channel, sightline_draws, surface_paths,
    tx_ris_channel,
)
from .environment import (  # rebind_receiver stays importable for perfbench's tracer
    ClusterDraws, EnvironmentConfig, place_clusters, rebind_receiver, sample_clusters,
)
from .geometry import Point3, distance
from .metrics import (  # effective_channel stays importable for perfbench's tracer
    LinkBudget, MetricsResult, bootstrap_mean_ci, effective_channel,
    empirical_cdf, summarize,
)
from .propagation import (
    LOS_73GHZ, NLOS_73GHZ, LosModel, PathlossParams, pathloss_db, visibility, wavelength,
)
from .riscontrol import (  # optimal_phases stays importable for perfbench's tracer
    _direct_sign, arg, combined_phase_vector, optimal_phases, partition_elements,
)


class ConfigError(ValueError):
    pass


# ---------------------------------------------------------------------------
# scenario configuration


@dataclass
class ScenarioConfig:
    tx: Point3
    rx: list[Point3]                      # one entry per user
    ris_list: list[RisDescriptor] = field(default_factory=list)
    env: EnvironmentConfig = field(default_factory=EnvironmentConfig)
    freq_hz: float = 73e9                 # Hz, the carrier of every link
    pl_los: PathlossParams = LOS_73GHZ
    pl_nlos: PathlossParams = NLOS_73GHZ
    los_model: LosModel = field(default_factory=LosModel)
    budget: LinkBudget = field(default_factory=LinkBudget)
    n_trials: int = 1000
    master_seed: int = 1
    direct_phase_sign: str = "paper"      # cascade at -arg h_d; "aligned": +arg h_d
    offblock: str = "include"             # other users' elements: include | exclude
    resample_geometry: bool = True        # fresh clusters every trial

    def __post_init__(self):
        if isinstance(self.rx, Point3):
            self.rx = [self.rx]
        else:
            self.rx = list(self.rx)
        self.ris_list = list(self.ris_list)


# Resource bounds.  bootstrap_mean_ci draws and gathers its resamples about
# 256 KiB at a time, one 0.8 MB row of each at MAX_TRIALS; at MAX_USERS,
# h_eff is 410 MB.  channel_stage holds a block of up to TRIAL_BLOCK trials'
# h, and channel_block, per call, one working array of its size, h_d, the
# scatterers' receiver distances, direct and tx shadows and ramps: within
# about _BLOCK_BYTES (2 MiB), unless one trial alone is larger, as at
# MAX_USERS x MAX_ELEMENTS, which runs one trial per block.  stream_states
# keeps its last 8 results, each one pass of a block, 32 bytes a stream.  As
# each surface holds at least one element per user, a pass is at most 4
# times the block's bytes above, 64 more a trial: the memo holds at most
# about 32 x _BLOCK_BYTES, and tens of KB on the canned figures.  MAX_THREADS
# bounds the CLI's --threads, which is checked and then ignored: trials run
# on one thread.  Past MAX_SCATTERERS expected scatterers a trial, the draws
# outgrow memory and numpy's Poisson sampler; past MIN_FREQ_HZ, MAX_POWER_DBM
# or MAX_SHADOW_SIGMA_DB, powers overflow.  Past MAX_PATTERN_EXPONENT an
# element's beam is under 5 deg wide in elevation, and near q = 4.5e307 its
# peak gain 2(2q+1) overflows to inf, which times a zero cos^q(el) is nan.
# MAX_PATH_GAIN_DB bounds pathloss_db taken as a gain, as a short link under
# a steep exponent gives it: two hops at it on MAX_ELEMENTS, +-MAX_POWER_DBM
# apart, reach an SNR of 1768 dB unshadowed, 1300 dB short of overflow.
MAX_TRIALS = 10 ** 5
MAX_COORDINATE = 1e6   # metres; squared distances overflow past ~1.3e154 m
MAX_SCATTERERS = 10 ** 4
MIN_FREQ_HZ = 1e3      # a 300 km wavelength
MAX_POWER_DBM = 300.0
MAX_SHADOW_SIGMA_DB = 100.0
MAX_PATTERN_EXPONENT = 1e3
MAX_PATH_GAIN_DB = 500.0
MAX_ELEMENTS = 65536
MAX_USERS = 256
MAX_THREADS = 64
TRIAL_BLOCK = 64
_BLOCK_BYTES = 1 << 21


def validate(cfg: ScenarioConfig) -> list[str]:
    """Collect every violation instead of stopping at the first.

    A config past a resource bound could not run at all: that raises
    ConfigError instead.  Each bound is written so that nan fails it."""
    if cfg.n_trials > MAX_TRIALS:
        raise ConfigError(f"n_trials must be at most {MAX_TRIALS}, got {cfg.n_trials}")
    if len(cfg.rx) > MAX_USERS:
        raise ConfigError(f"at most {MAX_USERS} receivers are allowed, got {len(cfg.rx)}")
    for m, ris in enumerate(cfg.ris_list):
        if ris.n_elements > MAX_ELEMENTS:
            raise ConfigError(f"ris[{m}] has {ris.n_elements} elements, "
                              f"at most {MAX_ELEMENTS} are allowed")
    for label, p in [("tx", cfg.tx), *((f"rx[{u}]", r) for u, r in enumerate(cfg.rx)),
                     *((f"ris[{m}]", r.position) for m, r in enumerate(cfg.ris_list))]:
        if not all(abs(c) <= MAX_COORDINATE for c in (p.x, p.y, p.z)):
            raise ConfigError(f"{label} coordinates must lie within ±{MAX_COORDINATE:g} m")
    if not cfg.env.min_range_m <= MAX_COORDINATE:   # a cluster's range, as a coordinate
        raise ConfigError(f"env.min_range_m must be at most {MAX_COORDINATE:g} m, "
                          f"got {cfg.env.min_range_m:g}")
    if not (scatterers := _expected_scatterers(cfg.env)) <= MAX_SCATTERERS:
        raise ConfigError(f"env.mean_clusters and env.max_scatterers_per_cluster give "
                          f"{scatterers:.3g} expected scatterers a trial, "
                          f"at most {MAX_SCATTERERS} are allowed")
    issues: list[str] = []
    if cfg.n_trials < 1:
        issues.append(f"n_trials must be at least 1, got {cfg.n_trials}")
    if cfg.master_seed < 0:
        issues.append(f"master_seed must be non-negative, got {cfg.master_seed}")
    if not cfg.rx:
        issues.append("at least one receiver is required")
    if cfg.direct_phase_sign not in ("paper", "aligned"):
        issues.append(f"direct_phase_sign must be 'paper' or 'aligned', "
                      f"got {cfg.direct_phase_sign!r}")
    if cfg.offblock not in ("include", "exclude"):
        issues.append(f"offblock must be 'include' or 'exclude', got {cfg.offblock!r}")
    if not cfg.freq_hz >= MIN_FREQ_HZ:
        issues.append(f"freq_hz must be at least {MIN_FREQ_HZ:g} Hz, got {cfg.freq_hz:g}")
    for name, pl in (("pl_los", cfg.pl_los), ("pl_nlos", cfg.pl_nlos)):
        if not pl.shadow_sigma_db <= MAX_SHADOW_SIGMA_DB:
            issues.append(f"{name}.shadow_sigma_db must be at most "
                          f"{MAX_SHADOW_SIGMA_DB:g} dB, got {pl.shadow_sigma_db:g}")
        if not 0.0 < (slope := pl.slope(cfg.freq_hz)) < math.inf:
            issues.append(f"{name}'s effective pathloss exponent, exponent x (1 + "
                          f"freq_dependence (freq_hz - ref_freq_hz) / ref_freq_hz), "
                          f"must be finite and positive, got {slope:g}")
    # no scatter path is shorter than its tx -> anchor or tx -> receiver leg;
    # from 1 m on, a pathloss is at most its free-space term, under 88 dB
    tx_legs = [distance(cfg.tx, p) for p in [r.position for r in cfg.ris_list] + cfg.rx]
    rx_legs = [distance(r.position, rx) for r in cfg.ris_list for rx in cfg.rx]
    for name, pl, legs in (("pl_los", cfg.pl_los, tx_legs + rx_legs),
                           ("pl_nlos", cfg.pl_nlos, tx_legs)):
        legs = [d for d in legs if 0.0 < d < 1.0]
        if legs and cfg.freq_hz >= MIN_FREQ_HZ and 0.0 < pl.slope(cfg.freq_hz) < math.inf \
                and not (gain := pathloss_db(pl, cfg.freq_hz, min(legs))) <= MAX_PATH_GAIN_DB:
            issues.append(f"{name} turns its shortest link, {min(legs):g} m, into a gain of "
                          f"{gain:.4g} dB, at most {MAX_PATH_GAIN_DB:g} dB is allowed: "
                          f"lower {name}.exponent or lengthen the link")
    for name in ("tx_power_dbm", "noise_power_dbm"):
        if not abs(getattr(cfg.budget, name)) <= MAX_POWER_DBM:
            issues.append(f"budget.{name} must lie within ±{MAX_POWER_DBM:g} dBm, "
                          f"got {getattr(cfg.budget, name):g}")

    def _ground(label: str, p: Point3):
        if p.z < 0:
            issues.append(f"{label} must sit at or above ground level, z={p.z}")

    _ground("tx", cfg.tx)
    for u, rx in enumerate(cfg.rx):
        _ground(f"rx[{u}]", rx)
        if distance(cfg.tx, rx) == 0.0:
            issues.append(f"rx[{u}] coincides with the transmitter")
    for m, ris in enumerate(cfg.ris_list):
        _ground(f"ris[{m}]", ris.position)
        if distance(cfg.tx, ris.position) == 0.0:
            issues.append(f"ris[{m}] coincides with the transmitter")
        for u, rx in enumerate(cfg.rx):
            if distance(rx, ris.position) == 0.0:
                issues.append(f"ris[{m}] coincides with rx[{u}]")
        if not ris.pattern_exponent <= MAX_PATTERN_EXPONENT:
            issues.append(f"ris[{m}].pattern_exponent must be at most "
                          f"{MAX_PATTERN_EXPONENT:g}, got {ris.pattern_exponent:g}")
        if len(cfg.rx) > ris.n_elements:
            issues.append(
                f"ris[{m}] has {ris.n_elements} elements for {len(cfg.rx)} users")
        pitch = ris.spacing if ris.spacing is not None else wavelength(cfg.freq_hz) / 2
        if not pitch * ris.side <= MAX_COORDINATE:
            issues.append(f"ris[{m}] lattice extent, spacing (or half the wavelength of "
                          f"freq_hz) x sqrt(n_elements), must be at most "
                          f"{MAX_COORDINATE:g} m, got {pitch * ris.side:g}")
    return issues


def _require_valid(cfg: ScenarioConfig) -> None:
    issues = validate(cfg)
    if issues:
        raise ConfigError("invalid scenario:\n" + "\n".join(f"- {s}" for s in issues))


# ---------------------------------------------------------------------------
# strict JSON round-trip


# Parsing and echo both walk the config dataclasses' fields and type hints,
# so a new config field needs no edit here.  JSON shapes: a Point3 is an
# [x, y, z] triple, an Enum its value string, a nested dataclass an object
# keyed by field name, a list a list, and None is null.

_KINDS = {float: "a number", int: "an integer", bool: "true or false",
          str: "a string"}
_FLOAT_MAX = float(np.finfo(float).max)


def _decode(tp, value, ctx: str):
    """value as an instance of type tp, or a ConfigError naming ctx."""
    if typing.get_origin(tp) in (typing.Union, types.UnionType):
        if value is None and type(None) in typing.get_args(tp):
            return None
        (tp,) = [a for a in typing.get_args(tp) if a is not type(None)]
    if typing.get_origin(tp) is list:
        if not isinstance(value, list):
            raise ConfigError(f"{ctx} must be a list")
        (item,) = typing.get_args(tp)
        return [_decode(item, v, f"{ctx}[{i}]") for i, v in enumerate(value)]
    if tp is Point3:
        if not (isinstance(value, list) and len(value) == 3):
            raise ConfigError(f"{ctx} must be a [x, y, z] triple, got {value!r}")
        return Point3(*(_decode(float, v, ctx) for v in value))
    if dataclasses.is_dataclass(tp):
        return _build(tp, value, ctx)
    if issubclass(tp, Enum):
        choices = [m.value for m in tp]
        if not (isinstance(value, str) and value.lower() in choices):
            raise ConfigError(
                f"{ctx} must be one of {', '.join(choices)}, got {value!r}")
        return tp(value.lower())
    number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if tp is float and number:
        # rejects nan, infinities and integers too large for a float
        if abs(value) <= _FLOAT_MAX:
            return float(value)
        raise ConfigError(f"{ctx} must be a finite number")
    if tp is int and number and (isinstance(value, int) or value.is_integer()):
        return int(value)
    if tp in (bool, str) and isinstance(value, tp):
        return value
    raise ConfigError(f"{ctx} must be {_KINDS[tp]}, got {value!r}")


def _build(cls, data, ctx: str):
    """Dataclass cls from a JSON object; unknown keys are a hard error."""
    where = ctx or "scenario"
    if not isinstance(data, dict):
        raise ConfigError(f"{where} must be an object")
    hints = typing.get_type_hints(cls)
    unknown = sorted(set(data) - {f.name for f in dataclasses.fields(cls)})
    if unknown:
        raise ConfigError(f"unknown key(s) in {where}: {', '.join(unknown)}")
    kwargs = {name: _decode(hints[name], value, f"{ctx}.{name}" if ctx else name)
              for name, value in data.items()}
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad {where}: {exc}") from exc


def _encode(value):
    """JSON form of a config value, the inverse of _decode."""
    if isinstance(value, Point3):
        return [value.x, value.y, value.z]
    if dataclasses.is_dataclass(value):
        return {f.name: _encode(getattr(value, f.name))
                for f in dataclasses.fields(value)}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, list):
        return [_encode(v) for v in value]
    return value


def scenario_from_dict(data: dict) -> ScenarioConfig:
    """Parse a config mapping; unknown keys anywhere are a hard error.

    rx takes a single [x, y, z] triple as shorthand for a one-entry list."""
    rx = data.get("rx") if isinstance(data, dict) else None
    if isinstance(rx, list) and rx and not isinstance(rx[0], list):
        data = {**data, "rx": [rx]}
    return _build(ScenarioConfig, data, "")


def scenario_to_dict(cfg: ScenarioConfig) -> dict:
    """Fully resolved config echo, safe to feed back into scenario_from_dict."""
    return _encode(cfg)


def load_scenario(path: str) -> ScenarioConfig:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:   # also integer literals past Python's digit limit
        raise ConfigError(f"{path} is not valid JSON: {exc}") from exc
    return scenario_from_dict(data)


# ---------------------------------------------------------------------------
# seeded execution

# component tags for stream derivation
_CLUSTERS = 1
_TX_RIS = 2
_RIS_RX = 3
_DIRECT = 4
_BASE_GEOMETRY = 5
_BOOTSTRAP = 6


# numpy's SeedSequence (numpy/random/bit_generator.pyx) at its default pool
# of 4 uint32 words.  Each call of its hash XORs a word with a running
# constant, multiplies it by the constant's next value and folds the high
# half in; the constants advance whatever the words are, so every call's
# pair is fixed by its position alone.  _pool_states runs the hash on many
# keys at once with those pairs precomputed.
_MASK32 = 0xFFFFFFFF
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875     # mixing entropy into the pool
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED     # drawing the state out of it
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


def _hash_pairs(init: int, mult: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """The (xor, multiplier) constants of n consecutive hash calls."""
    c = [init]
    for _ in range(n):
        c.append(c[-1] * mult & _MASK32)
    c = np.array(c, dtype=np.uint32)
    return c[:-1, None], c[1:, None]


_DRAW = _hash_pairs(_INIT_B, _MULT_B, 8)   # generate_state(4, np.uint64)


@functools.lru_cache
def _mix_schedule(n_words: int):
    """The hash pairs of SeedSequence.mix_entropy on n_words words, grouped
    by step: the 4 calls that fill the pool; per pool word, the 3 that hash
    it into the other lanes (its own lane gets a zero pair, discarded); per
    word past the pool, the 4 that hash it into every lane."""
    head = _POOL * _POOL
    x, m = _hash_pairs(_INIT_A, _MULT_A, head + _POOL * max(0, n_words - _POOL))
    cross = []
    for s in range(_POOL):
        calls = slice(_POOL + (_POOL - 1) * s, _POOL + (_POOL - 1) * (s + 1))
        cross.append((np.insert(x[calls], s, 0, axis=0),
                      np.insert(m[calls], s, 0, axis=0)))
    later = zip(x[head:].reshape(-1, _POOL, 1), m[head:].reshape(-1, _POOL, 1))
    return (x[:_POOL], m[:_POOL]), cross, list(later)


def _hash(v: np.ndarray, x: np.ndarray, m: np.ndarray) -> np.ndarray:
    v = (v ^ x) * m
    return v ^ (v >> 16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_L * x - _MIX_R * y
    return r ^ (r >> 16)


def _pool_states(words: np.ndarray) -> np.ndarray:
    """SeedSequence(w).generate_state(4, np.uint64) for every column w of
    the (n_words, K) uint32 array words, as a (K, 4) array.  Each step of
    mix_entropy is one array expression over all K keys and 4 lanes."""
    n_words, n_keys = words.shape
    fill, cross, later = _mix_schedule(n_words)
    pool = np.zeros((_POOL, n_keys), dtype=np.uint32)
    pool[:n_words] = words[:_POOL]
    pool = _hash(pool, *fill)
    for s, (x, m) in enumerate(cross):
        mixed = _mix(pool, _hash(pool[s], x, m))
        mixed[s] = pool[s]
        pool = mixed
    for w, (x, m) in zip(words[_POOL:], later):
        pool = _mix(pool, _hash(w, x, m))
    # 8 uint32 words drawn cycling the pool, joined into uint64s little-endian
    out = _hash(np.concatenate([pool, pool]), *_DRAW)
    return np.ascontiguousarray(out.T, dtype="<u4").view("<u8").astype(np.uint64)


def _words(n) -> list[int]:
    """SeedSequence's split of one key int into little-endian uint32 words."""
    n = operator.index(n)
    if n < 0:
        raise ValueError(f"stream keys take non-negative integers, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def stream_states(master_seed: int, trials: range, tags: np.ndarray) -> np.ndarray:
    """PCG64 seed words of the streams keyed (master_seed, 0, t, *tag), for
    t in trials and tag a row of the (G, w) integer array tags, as a
    read-only (len(trials), G, 4) uint64 array.

    Entry [i, g] is SeedSequence(entropy=(master_seed, 0, trials[i],
    *tags[g])).generate_state(4, np.uint64), bit for bit, from one
    vectorized pass of the hash over every key.  The seed splits into
    little-endian uint32 words, and a negative one raises ValueError; the
    0 word is a fixed part of every key; each trial and tag entry is one
    word, and one outside [0, 2**32) raises ValueError too; a non-integer
    one raises TypeError, as in SeedSequence.  The tests compare entries
    with numpy's own SeedSequence, so a numpy change to its hash shows there.

    The last 8 results are kept, keyed on the seed, the trial range and the
    tags as ints, so the points of a sweep, which share their streams,
    derive a block's words once; a kept result is the same bytes a fresh
    pass gives.  stream_states.cache_clear() drops them."""
    tags = np.asarray(tags)
    key = tuple([operator.index(x) for x in tags.ravel().tolist()])   # before the memo: 3.0 == 3
    return _states(operator.index(master_seed), trials, tags.shape, key)


@functools.lru_cache(maxsize=8)
def _states(master_seed: int, trials: range, shape: tuple, tags: tuple) -> np.ndarray:
    ends = [*trials[:1], *trials[-1:], *tags]   # a range's extremes are its ends
    if ends and not 0 <= min(ends) <= max(ends) <= _MASK32:
        raise ValueError(f"trial and tag entries take one word, 0..{_MASK32}, "
                         f"got {min(ends)}..{max(ends)}")
    prefix = _words(master_seed) + [0]
    n_tags, width = shape
    words = np.empty((len(prefix) + 1 + width, len(trials), n_tags), dtype=np.uint32)
    words[:len(prefix)] = np.array(prefix, dtype=np.uint32)[:, None, None]
    words[len(prefix)] = np.arange(trials.start, trials.stop, trials.step)[:, None]
    words[len(prefix) + 1:] = np.array(tags, dtype=np.uint32).reshape(shape).T[:, None]
    out = _pool_states(words.reshape(len(words), -1)).reshape(len(trials), n_tags, 4)
    out.flags.writeable = False
    return out


stream_states.cache_clear = _states.cache_clear


@functools.cache
def _seed_words() -> type:
    """The ISeedSequence that hands PCG64 one row of stream_states in place
    of the SeedSequence that would have generated it.  Built on first use:
    numpy imports numpy.random lazily, and importing risim should not."""
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype=np.uint32):
            if (n_words, dtype) != (4, np.uint64):
                raise ValueError(
                    "only PCG64's seed, generate_state(4, np.uint64), is held")
            return self.state

    return SeedWords


def derived_rng(state) -> np.random.Generator:
    """Counter-style stream: one generator per (seed, trial, component).

    state is its (4,) entry of stream_states, whose one vectorized pass
    derives a whole block's entries, so the generator is PCG64 seeded by
    SeedSequence(entropy=(master_seed, 0, t, *tag)), bit for bit,
    without a SeedSequence of its own.  The tests check that equality
    against numpy's SeedSequence."""
    state = np.ascontiguousarray(state, dtype=np.uint64)
    if state.shape != (4,):
        raise ValueError(f"a stream state is 4 uint64 words, got {state.shape}")
    return np.random.Generator(np.random.PCG64(_seed_words()(state)))


def _block_size(n_users: int, elements: list[int], n_scatterers: float = 0.0) -> int:
    """Trials per block: at most TRIAL_BLOCK, and no more than fit one
    block's h, one working array of its size for the combination and h_d
    on surfaces of the given element counts, and per each of
    n_scatterers expected scatterers a trial, a receiver distance and a
    direct shadow per user and a scatter shadow and two side-long ramps a
    surface, in about _BLOCK_BYTES."""
    f, c = np.dtype(float).itemsize, np.dtype(complex).itemsize
    per_trial = c * (2 * sum(elements) + n_users) + n_scatterers * (
        c * n_users + sum(2 * c * math.isqrt(n) + f for n in elements))
    return max(1, min(TRIAL_BLOCK, int(_BLOCK_BYTES // per_trial)))


def _expected_scatterers(env: EnvironmentConfig) -> float:
    """Mean scatterer count of one draw: E[max(1, Poisson)] clusters of a
    mean (1 + max) / 2 scatterers each."""
    if not env.include_scatter:
        return 0.0
    clusters = env.mean_clusters + math.exp(-env.mean_clusters)
    return clusters * (1 + env.max_scatterers_per_cluster) / 2


@dataclass(frozen=True, eq=False)
class BlockDraws:
    """Every variate of one block of B trials: clusters[m][i], trial i's
    ClusterDraws of anchor m; surface m's sigma-scaled scatter shadows
    tx_shadows[m] and the (U, S) direct ones, on their anchor's block
    scatterer axis as place_clusters lays it out; sightline_draws'
    (visible, shadow_db, eta) of the tx -> surface links tx (B, M, 3), the
    surface -> receiver links rx (B, M, U, 3) and the direct ones (B, U, 3).
    The run's own are base, anchor m's base draws under frozen geometry, and
    boot, user u's bootstrap stream state."""

    clusters: list[list[ClusterDraws]]
    tx_shadows: list[np.ndarray]
    shadows: np.ndarray
    tx: np.ndarray
    rx: np.ndarray
    direct: np.ndarray
    base: list[ClusterDraws]
    boot: np.ndarray


def draw_block(cfg: ScenarioConfig, trials: range, run: BlockDraws | None = None
               ) -> BlockDraws:
    """Every stream of one block's trials, each drawn to its end.

    Trial t's streams are keyed (master_seed, 0, t, *tag), and each is drawn
    in this order:
    - clusters (t, 1, m) of anchor m, surface m or else receiver 0:
      sample_clusters' variates, or with frozen geometry with_fresh_gains'
      2S normals on base[m], sample_clusters' draws on (0, 5, m);
    - tx -> surface (t, 2, m) and direct (t, 4, u): N(0, 1) shadows of the
      trial's S scatterers of surface m or of the first anchor, scaled by
      pl_nlos' sigma per block, then sightline_draws' visibility, shadow
      and phase, visibility by the link's length and heights;
    - surface -> receiver (t, 3, m, u): sightline_draws' shadow and phase.
    boot[u] is user u's bootstrap stream (0, 6, u), which run_scenario
    draws after the last block.  The run's own streams, base and boot, ride
    in block 0's pass; a later block takes them from run, an earlier
    block's record.  A block makes one stream_states pass per key width."""
    receivers, surfaces, seed = cfg.rx, cfg.ris_list, cfg.master_seed
    n, n_users, n_surfaces = len(trials), len(receivers), len(surfaces)
    anchors = [r.position for r in surfaces] or [receivers[0]]
    own = run is None
    # the pass's tag groups in order, each a tag and its count
    layout = [(_CLUSTERS, len(anchors)), (_TX_RIS, n_surfaces), (_DIRECT, n_users),
              (_BASE_GEOMETRY, len(anchors) if own and not cfg.resample_geometry else 0),
              (_BOOTSTRAP, n_users if own else 0)]
    tags = np.array([(tag, k) for tag, count in layout for k in range(count)])
    cluster_st, tx_st, direct_st, base_st, boot_st = np.split(
        stream_states(seed, trials, tags), np.cumsum([c for _, c in layout[:-1]]), axis=1)
    base = [sample_clusters(cfg.env, derived_rng(s)) for s in base_st[0]] if own else run.base
    clusters = [[sample_clusters(cfg.env, derived_rng(s)) if cfg.resample_geometry
                 else base[m].with_fresh_gains(derived_rng(s)) for s in cluster_st[:, m]]
                for m in range(len(anchors))]
    at = [np.cumsum([0] + [len(d) for d in row]).tolist() for row in clusters]
    tx_shadows = [np.empty(at[m][-1]) for m in range(n_surfaces)]
    shadows = np.empty((n_users, at[0][-1]))
    links = [(tx_st[:, m], tx_shadows[m], at[m], r.position) for m, r in enumerate(surfaces)] \
        + [(direct_st[:, u], shadows[u], at[0], rx) for u, rx in enumerate(receivers)]
    sightlines = []
    for states, z, edges, end in links:
        seen = visibility(cfg.los_model, distance(cfg.tx, end), end.z, cfg.tx.z)
        for i, state in enumerate(states):
            rng = derived_rng(state)
            rng.standard_normal(out=z[edges[i]:edges[i + 1]])
            sightlines.append(sightline_draws(cfg.pl_los, rng, seen))
    for z in (*tx_shadows, shadows):   # sigma Z, where normal() adds 0.0:
        z *= cfg.pl_nlos.shadow_sigma_db   # a zero's sign meets only exp
    tx, direct = np.split(np.array(sightlines, dtype=float).reshape(
        len(links), n, 3).swapaxes(0, 1), [n_surfaces], axis=1)
    rx = np.empty((n, n_surfaces, n_users, 3))
    if surfaces:   # the second pass, on keys a word wider
        rx_tags = np.array([(_RIS_RX, *k) for k in np.ndindex(rx.shape[1:3])])
        rx[:] = np.reshape([sightline_draws(cfg.pl_los, derived_rng(s)) for s in
                            stream_states(seed, trials, rx_tags).reshape(-1, 4)], rx.shape)
    return BlockDraws(clusters, tx_shadows, shadows, tx, rx, direct, base,
                      boot_st[0] if own else run.boot)


def channel_stage(cfg: ScenarioConfig) -> tuple[int, typing.Callable[[BlockDraws], np.ndarray]]:
    """(block, channel_block): a block's trial count, and what turns one
    block's BlockDraws into its (U, B) h_eff, on the run-fixed set-up built
    here once: the links' gains, the element axis and responses, and h.

    channel_block reads only its record and touches no generator: it places
    the clusters, weights and shadows their paths on each link in one pass
    over the block's scatterers, and takes the (B, M) tx -> surface
    sightline coefficients from the run's (M,) gains; per trial and surface
    tx_ris_channel only sums the scatter paths in one matmul into a row of
    h, every surface's elements on one axis, and adds the sightline if seen.
    Then, each over every receiver at once, come the (B, U) direct links as
    segment sums plus their sightlines, the (B, M, U) surface -> receiver
    coefficients c from the run's (M, U) gains, and one combination for any
    user count.  User u's link on surface m is c_{u,m} times a fixed
    response resp_u; element k is co-phased for its owner o against h_d,o
    with sign s (+1 "paper", -1 "aligned"), and arg(+-0) = 0, so

      h_eff,u = h_d,u + e^{-js arg h_d,u} sum_m |c_{u,m}| sum_{k in m, o=u} amp_k |h_k|
              + sum_m c_{u,m} sum_{k in m, o!=u} resp_{u,k} amp_k e^{j phase_k} h_k:

    a segment sum per (surface, owner), and with offblock "include" and
    several users a product per trial and surface, e^{j phase_k} being
    combined_phase_vector's phasor.  Only h outlives a call, which writes
    it before reading it."""
    receivers, surfaces = cfg.rx, cfg.ris_list
    n_users, n_surfaces = len(receivers), len(surfaces)
    anchors = [r.position for r in surfaces] or [receivers[0]]
    # only the first anchor's clusters feed the direct links
    seen_by = [receivers] + [[]] * (len(anchors) - 1)
    by_surface = [Sightline.towards(ris, [cfg.tx, *receivers], cfg.pl_los, cfg.freq_hz)
                  for ris in surfaces]
    rx_links = [links[1:] for links in by_surface]   # [m][u], as c's (m, u) axes
    tx_gain = np.array([links[0].gain for links in by_surface])
    rx_gain = np.reshape([x.gain for row in rx_links for x in row], (n_surfaces, n_users))
    direct_gain = np.array([Sightline.direct(cfg.tx, rx, cfg.pl_los, cfg.freq_hz).gain
                            for rx in receivers])

    # one element axis: every surface's lattice scan, concatenated; element k
    # of surface surface_of[k] is co-phased for user owner[k], and the
    # (surface, owner) segments start at starts, edges[:-1] for one user
    sizes = [r.n_elements for r in surfaces]
    edges = np.cumsum([0] + sizes).tolist()
    cols = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    owner = np.concatenate([np.empty(0, dtype=int)]
                           + [partition_elements(size, n_users) for size in sizes])
    surface_of = np.repeat(np.arange(n_surfaces), sizes)
    starts = np.flatnonzero(np.diff(surface_of * n_users + owner, prepend=-1))
    amplitude = np.repeat([r.amplitude for r in surfaces], sizes)
    sign = _direct_sign(cfg.direct_phase_sign)
    others = n_users > 1 and n_surfaces > 0 and cfg.offblock == "include"
    if others:   # the fixed responses: the owner's, and each surface's others'
        resp = np.concatenate([[link.resp for link in row] for row in rx_links], axis=1)
        own_resp = resp[owner, np.arange(len(owner))]
        other_resp = [np.where(owner[col] == np.arange(n_users)[:, None], 0, resp[:, col]).T
                      for col in cols]

    block = min(_block_size(n_users, sizes, _expected_scatterers(cfg.env)), cfg.n_trials)
    h = np.empty((block, edges[-1]), dtype=complex)

    def channel_block(draws: BlockDraws) -> np.ndarray:
        n = len(draws.tx)
        places = [place_clusters(d, cfg.tx, a, seen)
                  for d, a, seen in zip(draws.clusters, anchors, seen_by)]
        surface = [surface_paths(r, p, cfg.pl_nlos, cfg.freq_hz) for r, p in zip(surfaces, places)]
        direct = direct_paths(places[0], places[0].d_to_rx, cfg.pl_nlos, cfg.freq_hz)
        weights = [_weights(p) for p in places]
        for (scale, wz, _), w, shadows in zip(surface, weights, draws.tx_shadows):
            np.multiply(wz, w * scale, out=wz)   # the ramps ez become wz, each path
            wz *= np.exp(shadows * -_NEPERS_PER_DB)   # (ez w scale) 10^(-s/20)
        # None where the trial does not see its sightline, which then adds nothing
        tx_coef = np.where(draws.tx[..., 0], coefficients(
            tx_gain, draws.tx[..., 1], draws.tx[..., 2]), None).tolist()
        for i in range(n):
            for m, (ris, (_, wz, ex)) in enumerate(zip(surfaces, surface)):
                lo, hi = places[m].edges[i:i + 2]
                tx_ris_channel(ris, draws.clusters[m][i], (wz[:, lo:hi], ex[:, lo:hi]),
                               by_surface[m][0], tx_coef[i][m], out=h[i, cols[m]])
        h_d = direct_block(direct_gain, weights[0] * direct, places[0].edges, draws.shadows,
                           draws.direct)
        _, rx_shadow, rx_eta = draws.rx.transpose(3, 0, 1, 2)   # (n, M, U) each
        # user u's surface -> receiver link on surface m is c[:, m, u] times its resp
        c = coefficients(rx_gain, rx_shadow, rx_eta)
        # an owned element co-phased against h_d adds amp_k |c||h_k| e^{-j sign arg h_d}
        own = (np.abs(c).reshape(n, -1) * np.add.reduceat(
            amplitude * np.abs(h[:n]), starts, axis=1)).reshape(n, n_surfaces, n_users)
        out = h_d + own.sum(axis=1) * np.exp(-1j * sign * arg(h_d))
        if others:   # the other users' elements, x = amp e^{j phase} h, reach u through resp
            x = combined_phase_vector(owner, c[:, surface_of, owner] * own_resp,
                                      h[:n], h_d, cfg.direct_phase_sign)
            x *= amplitude * h[:n]
            for m, col in enumerate(cols):   # one product per trial: bits free of n
                out += c[:, m] * (x[:, None, col] @ other_resp[m])[:, 0]
        return out.T

    return block, channel_block


def run_scenario(cfg: ScenarioConfig, threads: int = 1) -> list[MetricsResult]:
    """Monte Carlo over n_trials; returns one MetricsResult per receiver.

    Per block, draw_block draws every variate into one BlockDraws record,
    and channel_stage's channel_block builds the block's h_eff from it
    alone.  threads is ignored: perfbench passes it."""
    _require_valid(cfg)
    block, channel_block = channel_stage(cfg)
    h_eff = np.empty((len(cfg.rx), cfg.n_trials), dtype=complex)
    draws = None
    for start in range(0, cfg.n_trials, block):
        stop = min(start + block, cfg.n_trials)
        draws = draw_block(cfg, range(start, stop), draws)
        h_eff[:, start:stop] = channel_block(draws)
    boot = draws.boot
    del draws   # the last block's draws go before the bootstrap
    results = []
    for u, row in enumerate(h_eff):
        res = summarize(row, cfg.budget, seed=cfg.master_seed)
        res.rate_ci_low, res.rate_ci_high = bootstrap_mean_ci(
            res.rate_samples, rng=derived_rng(boot[u]))
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# sweeps


class SweepVariable(Enum):
    RIS_X = "ris_x"
    RIS_Z = "ris_z"
    TILT = "tilt"
    N_ELEMENTS = "n_elements"
    TX_POWER_DBM = "tx_power_dbm"
    RIS_COUNT = "ris_count"


@dataclass
class SweepSpec:
    variable: SweepVariable
    values: list[float]
    target_ris: int = 0   # which surface RIS_X/RIS_Z/TILT/N_ELEMENTS act on


def parse_values(text, kind: type, name: str):
    """A command-line value parsed like a default of type kind (list, float
    or int), or a ConfigError naming it.

    text is a comma-separated string or, from Python, a number or a list.
    A list takes one or more numbers, a float exactly one, an int exactly
    one whole number, kept exact rather than passed through float.  Every
    number must be finite; the checks are the config decoder's.  An empty
    field, as in "10,,20" or "10,", is an error, not a skipped value.
    """
    items = text if isinstance(text, (list, tuple)) else str(text).split(",")
    if any(isinstance(t, str) and not t.strip() for t in items):
        raise ConfigError(f"{name} has an empty field, got {text!r}")
    numbers = [_number(t, name) for t in items]
    if kind is list and numbers:
        return _decode(list[float], numbers, name)
    if kind is not list and len(numbers) == 1:
        return _decode(kind, numbers[0], name)
    raise ConfigError(f"{name} takes {'numbers' if kind is list else 'one number'}"
                      f", got {text!r}")


def _number(token, name: str):
    """An int or float from a string token; other values pass through."""
    if not isinstance(token, str):
        return token
    for parse in (int, float):
        try:
            return parse(token)
        except ValueError:
            pass
    raise ConfigError(f"{name} must be a number, got {token!r}")


def apply_sweep_value(cfg: ScenarioConfig, spec: SweepSpec, value: float
                      ) -> ScenarioConfig:
    """A copy of cfg with one knob moved; the original is left untouched."""
    out = replace(cfg, rx=list(cfg.rx), ris_list=list(cfg.ris_list))
    var = spec.variable
    untargeted = var in (SweepVariable.TX_POWER_DBM, SweepVariable.RIS_COUNT)
    if untargeted and spec.target_ris != 0:
        raise ConfigError(f"target_ris does not apply to a {var.value} sweep, "
                          f"got {spec.target_ris}")
    if var is SweepVariable.TX_POWER_DBM:
        out.budget = replace(cfg.budget, tx_power_dbm=float(value))
        return out
    if var is SweepVariable.RIS_COUNT:
        count = _decode(int, float(value), var.value)
        if not 0 <= count <= len(cfg.ris_list):
            raise ConfigError(
                f"ris_count {count} outside 0..{len(cfg.ris_list)} configured surfaces")
        out.ris_list = list(cfg.ris_list[:count])
        return out

    if not cfg.ris_list:
        raise ConfigError(f"sweep over {var.value} needs at least one surface")
    if not 0 <= spec.target_ris < len(cfg.ris_list):
        raise ConfigError(f"target_ris {spec.target_ris} out of range")
    ris = cfg.ris_list[spec.target_ris]
    try:
        if var is SweepVariable.RIS_X:
            ris = replace(ris, position=replace(ris.position, x=float(value)))
        elif var is SweepVariable.RIS_Z:
            ris = replace(ris, position=replace(ris.position, z=float(value)))
        elif var is SweepVariable.TILT:
            ris = replace(ris, orient=replace(ris.orient, tilt_rad=float(value)))
        elif var is SweepVariable.N_ELEMENTS:
            ris = replace(ris, n_elements=_decode(int, float(value), var.value))
    except ValueError as exc:
        raise ConfigError(f"sweep value {value!r} rejected: {exc}") from exc
    out.ris_list[spec.target_ris] = ris
    return out


def run_sweep(cfg: ScenarioConfig, spec: SweepSpec, threads: int = 1
              ) -> list[tuple[float, list[MetricsResult]]]:
    """One run_scenario per sweep value, each point exactly the run of its
    config.  The points share cfg's seed and so its streams: their errors
    are correlated, which pins each gap between points tighter than either
    point, but can shift a whole curve together.

    threads is ignored, as in run_scenario."""
    if not spec.values:
        raise ConfigError("sweep needs at least one value")
    return [(float(v), run_scenario(apply_sweep_value(cfg, spec, v))) for v in spec.values]


# ---------------------------------------------------------------------------
# serialization

_RESULT_COLUMNS = ("ergodic_rate_bps_hz", "mean_snr_db", "rate_ci_low", "rate_ci_high",
                   "n_trials", "seed")
SWEEP_HEADER = ",".join(("sweep_value", *_RESULT_COLUMNS))


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _record(res: MetricsResult) -> tuple:
    """res's row in _RESULT_COLUMNS' order: four floats, then two ints."""
    return (res.ergodic_rate, res.mean_snr_db, res.rate_ci_low, res.rate_ci_high,
            res.n_trials, res.seed)


def write_sweep_csv(path, rows: list[tuple[float, MetricsResult]],
                    key: str = "sweep_value") -> Path:
    """One row per (key value, result); key names the first column."""
    lines = [",".join((key, *_RESULT_COLUMNS))]
    for value, res in rows:
        *floats, n_trials, seed = _record(res)
        lines.append(",".join([*map(_fmt, (value, *floats)), str(n_trials), str(seed)]))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_sweep_json(path, rows: list[tuple[float, MetricsResult]],
                     key: str = "sweep_value") -> Path:
    """write_sweep_csv's table as JSON records; a non-finite float, such as
    the dB SNR of a zero-power run, is null."""
    records = [{name: None if isinstance(x, float) and not np.isfinite(x) else x
                for name, x in zip((key, *_RESULT_COLUMNS), (value, *_record(res)))}
               for value, res in rows]
    path = Path(path)
    path.write_text(json.dumps(records, indent=1, allow_nan=False) + "\n")
    return path


def write_cdf_csv(path, samples) -> Path:
    values, probs = empirical_cdf(samples)
    lines = ["value,probability"]
    lines.extend(f"{_fmt(v)},{_fmt(p)}" for v, p in zip(values, probs))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_metadata(path, cfg: ScenarioConfig, extra: dict | None = None) -> Path:
    payload = {"config": scenario_to_dict(cfg)}
    if extra:
        payload.update(extra)
    path = Path(path)
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path
