"""Semiclassical quantization on periodic grids, eps-Sobolev norms, wave packets.

op_eps(a) u = (2 pi)^-d int e^{i x xi} a(x, eps^h xi) u^(xi) d xi, realized on a
uniform periodic grid: exact Fourier multiplier for x-independent symbols,
Kohn-Nirenberg mode sum otherwise.  Also the instability datum: the modulated
wave packet eps^K Re(e^{i y xi0 / eps^h} theta(y) e).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

_MAGIC = b"HYPGRID1"


def _fast_grid_len(m: int) -> int:
    """The smallest even 2^a 3^b 5^c >= m: a node count that meets a resolution
    bound m and that numpy's FFT transforms at full speed."""
    n = max(2, m + m % 2)
    while True:
        k = n // 2
        for p in (2, 3, 5):
            while k % p == 0:
                k //= p
        if k == 1:
            return n
        n += 2


@dataclass(frozen=True)
class Grid1D:
    """Uniform periodic grid with n nodes on [x_left, x_left + length)."""

    n: int
    length: float
    x_left: float = 0.0

    def __post_init__(self):
        if self.n < 2 or self.n % 2:
            raise ValueError("node count must be even (the rfft keeps a Nyquist mode)")

    @property
    def dx(self) -> float:
        return self.length / self.n

    @property
    def nodes(self) -> np.ndarray:
        return self.x_left + self.dx * np.arange(self.n)

    @property
    def freqs(self) -> np.ndarray:
        """Angular frequencies xi_k in FFT order."""
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)


@dataclass
class GridFunction:
    """Complex N-component function sampled on a Grid1D; values shape (n, N)."""

    grid: Grid1D
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim == 1:
            v = v[:, None]
        self.values = np.ascontiguousarray(v.astype(complex))
        if self.values.shape[0] != self.grid.n:
            raise ValueError("values/grid size mismatch")

    @property
    def n_components(self) -> int:
        return self.values.shape[1]

    def hat(self) -> np.ndarray:
        return np.fft.fft(self.values, axis=0)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.grid.dx * np.sum(np.abs(self.values) ** 2)))


def save_grid_function(u: GridFunction, path: str) -> None:
    """Binary container: magic, version, N, n, L, x_left, complex128 payload."""
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(struct.pack("<IIQdd", 1, u.n_components, u.grid.n,
                            u.grid.length, u.grid.x_left))
        f.write(np.ascontiguousarray(u.values, dtype="<c16").tobytes())


def load_grid_function(path: str) -> GridFunction:
    with open(path, "rb") as f:
        if f.read(8) != _MAGIC:
            raise ValueError("not a grid-function container")
        ver, ncomp, n, length, x_left = struct.unpack("<IIQdd", f.read(32))
        if ver != 1:
            raise ValueError(f"unsupported container version {ver}")
        data = np.frombuffer(f.read(), dtype="<c16").reshape(n, ncomp)
    return GridFunction(Grid1D(int(n), length, x_left), data.astype(complex))


# ---------------------------------------------------------------------------
# symbols and quantization
# ---------------------------------------------------------------------------

def _significant_modes(u_hat: np.ndarray, threshold: float) -> np.ndarray:
    mags = np.max(np.abs(u_hat), axis=1)
    cap = np.max(mags)
    if cap == 0.0:
        return np.zeros(0, dtype=int)
    return np.nonzero(mags > threshold * cap)[0]


def resolution_check(u: GridFunction) -> None:
    """Reject grid functions with significant mass in the unresolvable band.

    Carriers need at least 8 nodes per oscillation, i.e. |k| <= n/8; mass above
    n/4 indicates an unresolved field and names the node count that would fix it.
    """
    uh = u.hat()
    power = np.sum(np.abs(uh) ** 2)
    if power == 0.0:
        return
    k_idx = np.abs(np.fft.fftfreq(u.grid.n) * u.grid.n)
    bad = k_idx > u.grid.n / 4
    frac = float(np.sum(np.abs(uh[bad]) ** 2) / power)
    if frac > 1e-8:
        kmax_sig = int(np.max(k_idx[np.max(np.abs(uh), axis=1) >
                                     1e-10 * np.max(np.abs(uh))]))
        raise ValueError(
            f"grid does not resolve the field: {frac:.2e} of the mass above n/4; "
            f"need n >= {8 * kmax_sig} nodes (currently {u.grid.n})")


def op_eps_apply(a: Callable, u: GridFunction, eps: float, h: float) -> GridFunction:
    """Apply op_eps(a) to u for a symbol a(x, xi, eps) of order 0, evaluated at
    the nodes x and the scaled frequencies xi = eps^h xi_k.

    A symbol that gives a scalar at every frequency ignores x: it is applied
    as the exact Fourier multiplier.  Otherwise the field must pass
    `resolution_check`, and op_eps(a) is the Kohn-Nirenberg sum over the modes
    carrying relative mass > 1e-14.
    """
    uh = u.hat()
    xis = eps ** h * u.grid.freqs
    x = u.grid.nodes
    vals = []
    for xi in xis:
        av = np.asarray(a(x, xi, eps), dtype=complex)
        if av.ndim:
            break
        vals.append(av)
    else:
        return GridFunction(u.grid, np.fft.ifft(np.asarray(vals)[:, None] * uh, axis=0))
    resolution_check(u)
    n, ncomp = u.values.shape
    rel = x - u.grid.x_left
    out = np.zeros((n, ncomp), dtype=complex)
    for k in _significant_modes(uh, 1e-14):
        phase = np.exp(1j * u.grid.freqs[k] * rel) / n
        out += (np.asarray(a(x, xis[k], eps), dtype=complex) * phase)[:, None] * uh[k][None, :]
    return GridFunction(u.grid, out)


def eps_sobolev_norm(u: GridFunction, s: float, eps: float, h: float) -> float:
    """|| <eps^h xi>^s u^ ||_{L^2}, discrete Parseval normalization."""
    uh = u.hat()
    w = (1.0 + (eps ** h * u.grid.freqs) ** 2) ** (s / 2.0)
    return float(np.sqrt(u.grid.length / u.grid.n ** 2
                         * np.sum(w[:, None] ** 2 * np.abs(uh) ** 2)))


def sobolev_norm(u: GridFunction, s: float) -> float:
    """Plain (eps-free) H^s norm."""
    return eps_sobolev_norm(u, s, 1.0, 1.0)


# ---------------------------------------------------------------------------
# wave packets
# ---------------------------------------------------------------------------

def smooth_cutoff(r, inner: float = 0.5, outer: float = 1.0):
    """C-infinity plateau bump: 1 on |r| <= inner, 0 on |r| >= outer."""
    r = np.abs(np.asarray(r, dtype=float))
    s = np.clip((r - inner) / (outer - inner), 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        ga = np.where(s > 0, np.exp(-1.0 / np.maximum(s, 1e-300)), 0.0)
        gb = np.where(s < 1, np.exp(-1.0 / np.maximum(1.0 - s, 1e-300)), 0.0)
    out = gb / np.where(ga + gb == 0.0, 1.0, ga + gb)
    out[r >= outer] = 0.0
    out[r <= inner] = 1.0
    return out


@dataclass
class WavePacketSpec:
    """Datum perturbation parameters: eps^K Re(e^{i y xi0/eps^h} theta e)."""

    K: float
    xi0: float
    x0: float
    eps: float
    h: float
    delta: float = 1.0
    e_vec: np.ndarray = (1.0,)

    def theta(self, y):
        return smooth_cutoff(y, inner=self.delta / 2.0, outer=self.delta)

    def direction(self) -> np.ndarray:
        e = np.asarray(self.e_vec, dtype=complex)
        return e / np.linalg.norm(e)


def build_wavepacket(spec: WavePacketSpec, grid: Grid1D,
                     frame: str = "rescaled") -> GridFunction:
    """Assemble the packet on `grid`.

    frame="rescaled": nodes are y; carrier frequency xi0/eps^h.
    frame="original": nodes are x; the packet is eps^K phi0((x-x0)/eps^{1-h}),
    carrier frequency xi0/eps.  The grid must give >= 8 nodes per oscillation.
    """
    x = grid.nodes
    if frame == "rescaled":
        y = x
        carrier_freq = spec.xi0 / spec.eps ** spec.h
    elif frame == "original":
        y = (x - spec.x0) / spec.eps ** (1.0 - spec.h)
        carrier_freq = spec.xi0 / spec.eps
    else:
        raise ValueError(f"unknown frame {frame!r}")
    per_osc = 2.0 * np.pi / abs(carrier_freq) / grid.dx
    if per_osc < 8.0 - 1e-9:
        need = _fast_grid_len(math.ceil(grid.n * (8.0 - 1e-9) / per_osc))
        raise ValueError(f"carrier unresolved ({per_osc:.1f} nodes/oscillation); "
                         f"need n >= {need}")
    theta = spec.theta(y)
    phase = np.exp(1j * carrier_freq * (x - (spec.x0 if frame == "original" else 0.0)))
    vals = np.outer(theta * phase, spec.direction())
    return GridFunction(grid, spec.eps ** spec.K * np.real(vals).astype(complex))


# ---------------------------------------------------------------------------
# calculus residuals
# ---------------------------------------------------------------------------

@dataclass
class CompositionReport:
    residuals: np.ndarray
    fitted_order: float


def composition_residual(a: Callable, b: Callable, eps_ladder,
                         h: float, u_probe: GridFunction) -> CompositionReport:
    """||op(a) op(b) u - op(ab) u|| / ||u|| across the ladder, with the order of
    the leading remainder fitted by log-log regression."""
    eps_arr = np.asarray(list(eps_ladder), dtype=float)
    if np.unique(eps_arr).size < 2:
        raise ValueError("the composition order needs at least two distinct eps values")
    resids = []
    for eps in eps_ladder:
        bu = op_eps_apply(b, u_probe, eps, h)
        abu = op_eps_apply(a, bu, eps, h)
        direct = op_eps_apply(lambda x, xi, e: np.asarray(a(x, xi, e), dtype=complex)
                              * np.asarray(b(x, xi, e), dtype=complex), u_probe, eps, h)
        num = GridFunction(u_probe.grid, abu.values - direct.values).l2_norm()
        resids.append(num / u_probe.l2_norm())
    resids = np.asarray(resids)
    if np.all(resids > 0):
        order = float(np.polyfit(np.log(eps_arr), np.log(resids), 1)[0])
    else:
        order = np.inf
    return CompositionReport(resids, order)


def operator_norm_estimate(a: Callable, eps: float, h: float,
                           probes: Sequence[GridFunction]) -> float:
    """Lower estimate of the L^2 operator norm of op_eps(a): max over probes
    of ||op(a)u|| / ||u||."""
    best = 0.0
    for u in probes:
        num = op_eps_apply(a, u, eps, h).l2_norm()
        den = sobolev_norm(u, 0.0)
        if den > 0:
            best = max(best, num / den)
    return best
