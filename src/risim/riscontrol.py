"""Passive phase control: per-element co-phasing against the direct link,
cascaded-channel composition, and element ownership across users."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import wrap_angle


@dataclass(frozen=True)
class PhaseConfig:
    """Reflection coefficients of one surface: unit-modulus phases scaled
    by a common amplitude."""

    phases: np.ndarray   # (N,) radians, each wrapped to (-pi, pi]
    amplitude: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "phases", np.asarray(self.phases, dtype=float))
        if not 0.0 < self.amplitude <= 1.0:
            raise ValueError("amplitude must lie in (0, 1]")

    def coefficients(self) -> np.ndarray:
        return self.amplitude * np.exp(1j * self.phases)


def partition_elements(n_elements: int, n_users: int) -> np.ndarray:
    """Owner of each element: near-equal contiguous blocks of the lattice
    scan, one per user, the larger blocks first."""
    if n_users < 1:
        raise ValueError("need at least one user")
    if n_users > n_elements:
        raise ValueError(
            f"cannot split {n_elements} elements across {n_users} users")
    sizes = n_elements // n_users + (np.arange(n_users) < n_elements % n_users)
    return np.repeat(np.arange(n_users), sizes)


def optimal_phases(
    g: np.ndarray,
    h: np.ndarray,
    h_txrx: complex,
    amplitude: float = 1.0,
    direct_phase_sign: str = "paper",
) -> PhaseConfig:
    """Per-element phases that co-phase every cascaded term.

    Each element k gets -(arg g_k + arg h_k + arg h_txrx), so the cascaded
    sum lands at phase -arg(h_txrx).  The "aligned" variant flips the direct
    link's sign so the sum lands at +arg(h_txrx) and adds constructively
    with it.  arg(0) counts as 0.
    """
    if direct_phase_sign not in ("paper", "aligned"):
        raise ValueError(f"unknown direct_phase_sign: {direct_phase_sign!r}")
    sign = 1.0 if direct_phase_sign == "paper" else -1.0
    raw = -(np.angle(g) + np.angle(h) + sign * np.angle(h_txrx))
    return PhaseConfig(phases=wrap_angle(raw), amplitude=amplitude)


def cascade(g: np.ndarray, config: PhaseConfig, h: np.ndarray) -> complex:
    """Sum over elements of g_k * amplitude e^{j phase_k} * h_k."""
    if len(g) != len(h) or len(g) != len(config.phases):
        raise ValueError("mismatched element counts in cascade")
    return complex(np.sum(g * config.coefficients() * h))


def combined_phase_vector(owner: np.ndarray, per_user: list[np.ndarray]
                          ) -> np.ndarray:
    """One physical phase vector: each element carries its owner's phase.

    per_user holds one full-length phase vector per user.  Every element of
    a passive surface reflects no matter whom it serves, so the off-block
    entries seen by any one user are simply the phases granted to the
    other users.
    """
    stacked = np.stack(per_user)
    if stacked.shape != (owner.max() + 1, len(owner)):
        raise ValueError("one full-length phase vector needed per user")
    return stacked[owner, np.arange(len(owner))]
