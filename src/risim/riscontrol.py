"""Passive phase control: per-element co-phasing against the direct link
and element ownership across users."""

from __future__ import annotations

import numpy as np

from .geometry import wrap_angle


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
    h_txrx: complex | np.ndarray,
    direct_phase_sign: str = "paper",
) -> np.ndarray:
    """Per-element phases that co-phase every cascaded term, each wrapped to
    (-pi, pi].

    Each element k gets -(arg g_k + arg h_k + arg h_txrx), so the cascaded
    sum lands at phase -arg(h_txrx).  The "aligned" variant flips the direct
    link's sign so the sum lands at +arg(h_txrx) and adds constructively
    with it.  arg(0) counts as 0.  h_txrx is a scalar or an array that
    broadcasts against g, such as one (B, 1) column for a block of B trials.
    """
    if direct_phase_sign not in ("paper", "aligned"):
        raise ValueError(f"unknown direct_phase_sign: {direct_phase_sign!r}")
    sign = 1.0 if direct_phase_sign == "paper" else -1.0
    return wrap_angle(-(np.angle(g) + np.angle(h) + sign * np.angle(h_txrx)))


def combined_phase_vector(owner: np.ndarray, g: np.ndarray, h: np.ndarray,
                          h_d: np.ndarray, direct_phase_sign: str = "paper"
                          ) -> np.ndarray:
    """One physical phase vector: each element co-phased for its owner.

    g is (..., U, N) with one surface -> receiver row per user, h (..., N)
    and h_d (..., U); leading axes, such as a block of trials, carry through
    to the (..., N) result.  Element k gets optimal_phases of its owner's
    g and h_d, in one call over every element.  Every element of a passive
    surface reflects no matter whom it serves, so the off-block entries
    seen by any one user are simply the phases granted to the other users.
    """
    if g.shape[-2:] != (owner.max() + 1, len(owner)):
        raise ValueError("one full-length surface -> receiver row needed per user")
    own_g = g[..., owner, np.arange(len(owner))]
    return optimal_phases(own_g, h, h_d[..., owner], direct_phase_sign)
