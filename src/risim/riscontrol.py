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


def arg(z) -> np.ndarray:
    """np.angle(z + 0.0), which turns each -0 part into +0: a zero of either sign, such as a
    grazed owner's gain, has arg 0 (not np.angle's +-pi), and -x - 0j has arg pi."""
    return np.angle(np.add(z, 0.0))


def unit(z) -> np.ndarray:
    """e^{j arg z} = z / |z|, taken without an angle: 1 for a signed zero."""
    mag = np.abs(z)
    return np.divide(z, mag, out=np.ones(np.shape(mag), dtype=complex), where=mag > 0)


def _direct_sign(direct_phase_sign: str) -> float:
    if direct_phase_sign not in ("paper", "aligned"):
        raise ValueError(f"unknown direct_phase_sign: {direct_phase_sign!r}")
    return 1.0 if direct_phase_sign == "paper" else -1.0


def optimal_phases(g: np.ndarray, h: np.ndarray, h_txrx: complex | np.ndarray,
                   direct_phase_sign: str = "paper") -> np.ndarray:
    """Per-element phases that co-phase every cascaded term, each wrapped to
    (-pi, pi].

    The direct-phase sign convention: with "paper" each element k gets
    -(arg g_k + arg h_k + arg h_txrx), so the cascaded sum lands at phase
    -arg(h_txrx); "aligned" flips the direct link's sign, so the sum lands
    at +arg(h_txrx) and adds constructively with it.  Each arg is this
    module's arg, 0 for a zero of either sign.  h_txrx is a scalar or an
    array that broadcasts against g, such as one (B, 1) column of B trials.
    """
    return wrap_angle(-(arg(g) + arg(h) + _direct_sign(direct_phase_sign) * arg(h_txrx)))


def combined_phase_vector(owner: np.ndarray, g_own: np.ndarray, h: np.ndarray,
                          h_d: np.ndarray, direct_phase_sign: str = "paper"
                          ) -> np.ndarray:
    """One physical phase vector as unit phasors, each element co-phased for its owner.

    g_own (..., N) is each element's surface -> receiver gain towards its
    owner, h (..., N) and h_d (..., U); leading axes, such as a block of
    trials, carry through to the (..., N) result.  Element k gets e^{j
    optimal_phases} of g_own[k] and its owner's h_d, taken with no angle as
    conj(unit(g_own) unit(h)) unit(h_d)^-s, s = +1 "paper", -1 "aligned".
    Every element of a passive surface reflects whomever it serves, so the
    off-block entries one user sees are the phasors granted to the others.
    """
    paper = _direct_sign(direct_phase_sign) > 0
    direct = unit(np.conj(h_d) if paper else h_d)[..., owner]
    return np.conj(unit(g_own) * unit(h)) * direct
