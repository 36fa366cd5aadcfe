"""Scenario assembly, seeded Monte Carlo orchestration, parameter sweeps,
canned experiment geometries, and result serialization.

Reproducibility contract: every random draw of a run comes from a stream
derived statelessly from (master_seed, sweep_index, trial, component), so
a trial's draws do not depend on the trial count or on the order trials run.

run_scenario takes the trials in blocks: each trial's draws and links fill
one row of the block's h, g and h_d arrays, then co-phasing and the
effective channel run once for the whole block (see the resource bounds for
its size).  Every step is elementwise or sums within one trial, so results
do not depend on the block size.
"""

from __future__ import annotations

import dataclasses
import json
import types
import typing
from dataclasses import dataclass, field, replace
from enum import Enum
from pathlib import Path

import numpy as np

from .channel import (
    RisDescriptor, Sightline, direct_channel, ris_rx_channel, tx_ris_channel,
)
from .environment import (
    ClusterSet, EnvironmentConfig, rebind_receiver,
    resample_gains, sample_clusters,
)
from .geometry import Point3, distance
from .metrics import (
    LinkBudget, MetricsResult, bootstrap_mean_ci, effective_channel,
    empirical_cdf, summarize,
)
from .propagation import (
    LOS_73GHZ, NLOS_73GHZ, LosModel, PathlossParams, wavenumber,
)
from .riscontrol import combined_phase_vector, optimal_phases, partition_elements


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
    pl_los: PathlossParams = LOS_73GHZ
    pl_nlos: PathlossParams = NLOS_73GHZ
    los_model: LosModel = field(default_factory=LosModel)
    budget: LinkBudget = field(default_factory=LinkBudget)
    n_trials: int = 1000
    master_seed: int = 1
    direct_phase_sign: str = "paper"      # or "aligned"
    offblock: str = "include"             # other users' elements: include | exclude
    shadow_scatter_paths: bool = True
    shadow_los_paths: bool = True
    resample_geometry: bool = True        # fresh clusters every trial

    def __post_init__(self):
        if isinstance(self.rx, Point3):
            self.rx = [self.rx]
        else:
            self.rx = list(self.rx)
        self.ris_list = list(self.ris_list)


# Resource bounds.  bootstrap_mean_ci draws a (1000, n_trials) int64 index
# array, 0.8 GB at MAX_TRIALS; at MAX_USERS, h_eff is 410 MB and each trial's
# g is 268 MB per MAX_ELEMENTS surface.  run_scenario keeps a block of up to
# TRIAL_BLOCK trials' h, g and h_d, holding the block to about _BLOCK_BYTES
# (1 MiB) unless one trial alone is larger: a config at MAX_USERS x
# MAX_ELEMENTS runs one trial per block.  MAX_THREADS bounds the CLI's
# --threads, which is checked and then ignored: trials run on one thread.
MAX_TRIALS = 10 ** 5
MAX_ELEMENTS = 65536
MAX_USERS = 256
MAX_THREADS = 64
TRIAL_BLOCK = 64
_BLOCK_BYTES = 1 << 20


def validate(cfg: ScenarioConfig) -> list[str]:
    """Collect every violation instead of stopping at the first.

    A config past a resource bound could not run at all: that raises
    ConfigError instead."""
    if cfg.n_trials > MAX_TRIALS:
        raise ConfigError(f"n_trials must be at most {MAX_TRIALS}, got {cfg.n_trials}")
    if len(cfg.rx) > MAX_USERS:
        raise ConfigError(f"at most {MAX_USERS} receivers are allowed, got {len(cfg.rx)}")
    for m, ris in enumerate(cfg.ris_list):
        if ris.n_elements > MAX_ELEMENTS:
            raise ConfigError(f"ris[{m}] has {ris.n_elements} elements, "
                              f"at most {MAX_ELEMENTS} are allowed")
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
    if cfg.pl_los.freq_hz != cfg.pl_nlos.freq_hz:
        issues.append("pl_los and pl_nlos must share one carrier frequency")

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
        if len(cfg.rx) > ris.n_elements:
            issues.append(
                f"ris[{m}] has {ris.n_elements} elements for {len(cfg.rx)} users")
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


def derived_rng(master_seed: int, sweep_index: int, trial: int, *tags: int
                ) -> np.random.Generator:
    """Counter-style stream: one generator per (run, trial, component),
    PCG64 seeded by SeedSequence(entropy=key) with key = (master_seed,
    sweep_index, trial, *tags).

    SeedSequence splits each int of key into little-endian uint32 words and
    rejects a negative one.  A key of one-word ints is its own word array,
    which SeedSequence takes without its slow per-int coercion."""
    key = [int(n) for n in (master_seed, sweep_index, trial, *tags)]
    one_word = 0 <= min(key) and max(key) <= 0xFFFFFFFF
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(
        np.array(key, dtype=np.uint32) if one_word else key)))


def _block_size(n_users: int, n_elements: int) -> int:
    """Trials per block: at most TRIAL_BLOCK, and no more than fit one
    block's h, g and h_d in about _BLOCK_BYTES."""
    per_trial = np.dtype(complex).itemsize * ((n_users + 1) * n_elements + n_users)
    return max(1, min(TRIAL_BLOCK, _BLOCK_BYTES // per_trial))


def run_scenario(cfg: ScenarioConfig, sweep_index: int = 0, threads: int = 1
                 ) -> list[MetricsResult]:
    """Monte Carlo over n_trials; returns one MetricsResult per receiver.

    Per trial: draw clusters and synthesize every surface's three links into
    one row of the block's arrays, with every surface's elements on one
    element axis.  Per block: co-phase each element for its owner against
    the owner's direct link and sum the effective scalar channel of every
    trial at once.  The direct link shares the first surface's cluster
    realization; a surface-free run anchors clusters on the first receiver
    instead.

    Trials run in order on the calling thread.  threads is ignored: perfbench
    still passes it, until the benchmark-only change of ROADMAP item 1.
    """
    _require_valid(cfg)
    receivers, surfaces = cfg.rx, cfg.ris_list
    n_users = len(receivers)
    k = wavenumber(cfg.pl_los.freq_hz)
    anchors = [r.position for r in surfaces] or [receivers[0]]
    seed, sweep = cfg.master_seed, sweep_index
    # what every sightline keeps from trial to trial, built once per run
    tx_links = [Sightline.between(ris, cfg.tx, cfg.pl_los) for ris in surfaces]
    rx_links = [[Sightline.between(ris, rx, cfg.pl_los) for ris in surfaces]
                for rx in receivers]

    base_sets: list[ClusterSet] | None = None
    if not cfg.resample_geometry:
        base_sets = [
            sample_clusters(cfg.env, cfg.tx, anchor, receivers[0],
                            derived_rng(seed, sweep, 0, _BASE_GEOMETRY, m))
            for m, anchor in enumerate(anchors)
        ]

    # one element axis: every surface's lattice scan, concatenated
    edges = np.cumsum([0] + [r.n_elements for r in surfaces]).tolist()
    cols = [slice(lo, hi) for lo, hi in zip(edges, edges[1:])]
    serves = None
    if surfaces:
        owner = np.concatenate([partition_elements(r.n_elements, n_users)
                                for r in surfaces])
        amplitude = np.repeat([r.amplitude for r in surfaces],
                              [r.n_elements for r in surfaces])
        if n_users > 1 and cfg.offblock == "exclude":
            serves = owner == np.arange(n_users)[:, None]

    block = min(_block_size(n_users, edges[-1]), cfg.n_trials)
    h = np.empty((block, edges[-1]), dtype=complex)
    g = np.empty((block, n_users, edges[-1]), dtype=complex)
    h_d = np.empty((block, n_users), dtype=complex)
    h_eff = np.empty((n_users, cfg.n_trials), dtype=complex)
    for start in range(0, cfg.n_trials, block):
        stop = min(start + block, cfg.n_trials)
        for i, t in enumerate(range(start, stop)):
            sets = []
            for m, anchor in enumerate(anchors):
                rng = derived_rng(seed, sweep, t, _CLUSTERS, m)
                if cfg.resample_geometry:
                    sets.append(sample_clusters(cfg.env, cfg.tx, anchor,
                                                receivers[0], rng))
                else:
                    sets.append(resample_gains(base_sets[m], rng))

            for m, ris in enumerate(surfaces):
                h[i, cols[m]] = tx_ris_channel(
                    ris, sets[m], cfg.tx, cfg.pl_los, cfg.pl_nlos, cfg.los_model,
                    derived_rng(seed, sweep, t, _TX_RIS, m),
                    cfg.shadow_scatter_paths, cfg.shadow_los_paths,
                    link=tx_links[m])[0]
            for u, rx in enumerate(receivers):
                for m, ris in enumerate(surfaces):
                    g[i, u, cols[m]] = ris_rx_channel(
                        ris, rx, cfg.pl_los, derived_rng(seed, sweep, t, _RIS_RX, m, u),
                        cfg.shadow_los_paths, link=rx_links[u][m])
            for u, rx in enumerate(receivers):
                h_d[i, u] = direct_channel(
                    sets[0] if u == 0 else rebind_receiver(sets[0], rx),
                    cfg.tx, rx, cfg.pl_los, cfg.pl_nlos, cfg.los_model, k,
                    derived_rng(seed, sweep, t, _DIRECT, u),
                    cfg.shadow_scatter_paths, cfg.shadow_los_paths)[0]

        n = stop - start
        if not surfaces:
            h_eff[:, start:stop] = h_d[:n].T
            continue
        if n_users == 1:
            phases = optimal_phases(g[:n, 0], h[:n], h_d[:n], cfg.direct_phase_sign)
        else:
            phases = combined_phase_vector(owner, g[:n], h[:n], h_d[:n],
                                           cfg.direct_phase_sign)
        coefficients = amplitude * np.exp(1j * phases)
        h_eff[:, start:stop] = effective_channel(
            h_d[:n], g[:n], coefficients[:, None], h[:n, None], serves).T

    results = []
    for u in range(n_users):
        res = summarize(h_eff[u], cfg.budget, seed=cfg.master_seed)
        res.rate_ci_low, res.rate_ci_high = bootstrap_mean_ci(
            res.rate_samples, n_boot=1000,
            rng=derived_rng(seed, sweep, 0, _BOOTSTRAP, u))
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
    number must be finite; the checks are the config decoder's.
    """
    items = text if isinstance(text, (list, tuple)) else [
        t for t in str(text).split(",") if t.strip()]
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
            pos = ris.position
            ris = replace(ris, position=Point3(float(value), pos.y, pos.z))
        elif var is SweepVariable.RIS_Z:
            pos = ris.position
            ris = replace(ris, position=Point3(pos.x, pos.y, float(value)))
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
    """One seeded run per sweep value; the value index salts the streams.

    threads is ignored, as in run_scenario."""
    if not spec.values:
        raise ConfigError("sweep needs at least one value")
    out = []
    for i, value in enumerate(spec.values):
        cfg_i = apply_sweep_value(cfg, spec, value)
        out.append((float(value), run_scenario(cfg_i, sweep_index=i)))
    return out


# ---------------------------------------------------------------------------
# serialization

_RESULT_COLUMNS = ("ergodic_rate_bps_hz,mean_snr_db,"
                   "rate_ci_low,rate_ci_high,n_trials,seed")
SWEEP_HEADER = "sweep_value," + _RESULT_COLUMNS


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_sweep_csv(path, rows: list[tuple[float, MetricsResult]],
                    key: str = "sweep_value") -> Path:
    """One row per (key value, result); key names the first column."""
    lines = [f"{key},{_RESULT_COLUMNS}"]
    for value, res in rows:
        lines.append(",".join([
            _fmt(value), _fmt(res.ergodic_rate), _fmt(res.mean_snr_db),
            _fmt(res.rate_ci_low), _fmt(res.rate_ci_high),
            str(res.n_trials), str(res.seed),
        ]))
    path = Path(path)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_sweep_json(path, rows: list[tuple[float, MetricsResult]],
                     key: str = "sweep_value") -> Path:
    """write_sweep_csv's table as JSON records; a non-finite float, such as
    the dB SNR of a zero-power run, is null."""
    records = [
        {
            key: value,
            "ergodic_rate_bps_hz": res.ergodic_rate,
            "mean_snr_db": res.mean_snr_db,
            "rate_ci_low": res.rate_ci_low,
            "rate_ci_high": res.rate_ci_high,
            "n_trials": res.n_trials,
            "seed": res.seed,
        }
        for value, res in rows
    ]
    records = [{name: None if isinstance(x, float) and not np.isfinite(x) else x
                for name, x in record.items()} for record in records]
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
