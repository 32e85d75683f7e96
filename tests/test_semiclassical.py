import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypflow.semiclassical import (Grid1D, GridFunction, WavePacketSpec, _fast_grid_len,
                                   build_wavepacket, composition_residual, eps_sobolev_norm,
                                   load_grid_function, op_eps_apply,
                                   operator_norm_estimate, save_grid_function,
                                   smooth_cutoff, sobolev_norm)


def smooth_probe(grid, seed=0, ncomp=1, kmax=8):
    rng = np.random.default_rng(seed)
    vals = np.zeros((grid.n, ncomp), dtype=complex)
    for k in range(1, kmax + 1):
        c = rng.normal(size=ncomp) + 1j * rng.normal(size=ncomp)
        vals += np.outer(np.exp(1j * k * grid.nodes), c / k ** 2)
    return GridFunction(grid, vals.real + 0.1)


def test_grid_invariants_and_fft_roundtrip():
    for grid in (Grid1D(256, 2 * np.pi), Grid1D(100, 1.0)):
        u = smooth_probe(grid)
        back = np.fft.ifft(u.hat(), axis=0)
        assert np.max(np.abs(back - u.values)) <= 1e-12 * np.max(np.abs(u.values))
    with pytest.raises(ValueError, match="even"):
        Grid1D(101, 1.0)


# every even 2^a 3^b 5^c up to 40,000, built from the exponents
_EVEN_5_SMOOTH = sorted(n for n in {2 ** (a + 1) * 3 ** b * 5 ** c
                                    for a in range(16) for b in range(10) for c in range(7)}
                        if n <= 40_000)


@settings(max_examples=300, deadline=None)
@given(st.integers(min_value=0, max_value=5000))
def test_fast_grid_len_is_the_least_even_5_smooth_bound(m):
    n = _fast_grid_len(m)
    assert n >= m and n in _EVEN_5_SMOOTH
    assert not [j for j in _EVEN_5_SMOOTH if m <= j < n]


def test_identity_symbol():
    # a scalar value takes the Fourier multiplier, an (n,) array the
    # Kohn-Nirenberg sum: both must reproduce u
    grid = Grid1D(256, 2 * np.pi)
    u = smooth_probe(grid)
    for one in (lambda x, xi, e: 1.0, lambda x, xi, e: 1.0 + 0.0 * x):
        v = op_eps_apply(one, u, 1e-3, 0.5)
        assert np.max(np.abs(v.values - u.values)) <= 1e-12 * np.max(np.abs(u.values))


def test_spectral_derivative_symbol():
    grid = Grid1D(512, 2 * np.pi)
    u = smooth_probe(grid, seed=3)
    eps, h = 1e-2, 2.0 / 3.0
    deriv = lambda x, xi, e: 1j * xi
    v = op_eps_apply(deriv, u, eps, h)
    ux = np.fft.ifft(1j * grid.freqs[:, None] * u.hat(), axis=0)
    assert np.max(np.abs(v.values - eps ** h * ux)) <= 1e-10 * np.max(np.abs(ux))


def test_multiplier_on_plane_wave():
    eps, h = 1e-3, 1.0
    grid = Grid1D(1 << 13, 2 * np.pi)
    k0 = int(round(1.0 / eps ** h))
    u = GridFunction(grid, np.exp(1j * k0 * grid.nodes))
    a = lambda x, xi, e: np.cos(xi) + 2.0
    v = op_eps_apply(a, u, eps, h)
    expected = (np.cos(eps ** h * k0) + 2.0) * u.values
    assert np.max(np.abs(v.values - expected)) <= 1e-10 * np.max(np.abs(expected))


def test_linearity_random():
    grid = Grid1D(256, 2 * np.pi)
    rng = np.random.default_rng(8)
    a = lambda x, xi, e: np.sin(x) + 2.0 + 0.3 * xi
    for _ in range(20):
        u = smooth_probe(grid, seed=rng.integers(1 << 30))
        v = smooth_probe(grid, seed=rng.integers(1 << 30))
        al, be = rng.normal(size=2)
        lhs = op_eps_apply(a, GridFunction(grid, al * u.values + be * v.values),
                           1e-2, 0.5)
        rhs = al * op_eps_apply(a, u, 1e-2, 0.5).values \
            + be * op_eps_apply(a, v, 1e-2, 0.5).values
        assert np.max(np.abs(lhs.values - rhs)) <= 1e-10 * max(1.0, np.max(np.abs(rhs)))


def test_sobolev_norms():
    grid = Grid1D(512, 2 * np.pi)
    u = smooth_probe(grid, seed=5)
    assert abs(eps_sobolev_norm(u, 0.0, 1e-3, 0.5) - u.l2_norm()) < 1e-12
    # plane wave at xi0/eps^h: weighted mass <xi0>^m
    eps, h, m = 1e-3, 1.0, 2.0
    grid2 = Grid1D(1 << 13, 2 * np.pi)
    k0 = int(round(1.0 / eps))
    w = GridFunction(grid2, np.exp(1j * k0 * grid2.nodes))
    got = eps_sobolev_norm(w, m, eps, h)
    expected = (1.0 + (eps ** h * k0) ** 2) ** (m / 2.0) * w.l2_norm()
    assert abs(got - expected) <= 1e-10 * expected


def _dilate(u, eps, h):
    """L2-isometric dilation (d_eps u)(x) = eps^{h/2} u(eps^h x): on a periodic
    grid, the same samples scaled by eps^{h/2} on a grid of length L / eps^h."""
    g = Grid1D(u.grid.n, u.grid.length / eps ** h, u.grid.x_left / eps ** h)
    return GridFunction(g, eps ** (h / 2.0) * u.values)


def test_dilation_identity_on_multipliers():
    eps, h = 1e-2, 2.0 / 3.0
    grid = Grid1D(512, 2 * np.pi)
    u = smooth_probe(grid, seed=11)
    a = lambda x, xi, e: 1.0 / (1.0 + xi ** 2)
    direct = op_eps_apply(a, u, eps, h)
    du = _dilate(u, eps, h)
    on_dilated = op_eps_apply(a, du, 1.0, 1.0)
    assert abs(du.l2_norm() - u.l2_norm()) <= 1e-12 * u.l2_norm()
    assert np.max(np.abs(on_dilated.values - eps ** (h / 2) * direct.values)) \
        <= 1e-10 * np.max(np.abs(direct.values))


# ---------------------------------------------------------------------------
# wave packets
# ---------------------------------------------------------------------------

def test_wavepacket_pointwise_formula():
    eps, h = 1e-2, 0.5
    grid = Grid1D(1 << 10, 2 * np.pi, x_left=-np.pi)
    spec = WavePacketSpec(K=2.0, xi0=1.0, x0=0.0, eps=eps, h=h, delta=1.0,
                          e_vec=np.array([1.0]))
    u = build_wavepacket(spec, grid, frame="rescaled")
    y = grid.nodes
    expected = eps ** 2 * np.cos(y / eps ** h) * spec.theta(y)
    assert np.max(np.abs(u.values[:, 0].real - expected)) < 1e-12


def test_wavepacket_linf_and_support():
    eps, h = 1e-3, 0.5
    k0 = int(round(1.0 / eps))
    grid = Grid1D(1 << 14, 2 * np.pi, x_left=-np.pi)
    spec = WavePacketSpec(K=1.5, xi0=1.0, x0=0.0, eps=eps, h=h, delta=0.7,
                          e_vec=np.array([1j, 1.0]) / np.sqrt(2))
    u = build_wavepacket(spec, grid, frame="original")
    linf = np.max(np.abs(u.values))
    assert abs(linf - eps ** 1.5 / np.sqrt(2)) <= 0.05 * eps ** 1.5
    outside = np.abs(grid.nodes) > 0.7 * eps ** (1 - h) * 1.001
    assert np.max(np.abs(u.values[outside])) == 0.0


def test_wavepacket_resolution_guard():
    eps, h = 1e-3, 0.5
    grid = Grid1D(1 << 8, 2 * np.pi, x_left=-np.pi)
    spec = WavePacketSpec(K=1.0, xi0=1.0, x0=0.0, eps=eps, h=h)
    with pytest.raises(ValueError, match="need n"):
        build_wavepacket(spec, grid, frame="original")


@pytest.mark.parametrize("eps, xi0, frame", [(1e-3, 1.0, "original"), (3e-3, 1.7, "original"),
                                             (1e-2, 1.0, "rescaled"), (0.07, 3.0, "rescaled")])
def test_wavepacket_hint_builds_the_packet(eps, xi0, frame):
    # the "need n >=" of a refused grid is the least even 5-smooth count that
    # builds: the next smaller one is refused
    spec = WavePacketSpec(K=1.0, xi0=xi0, x0=0.0, eps=eps, h=0.5)
    with pytest.raises(ValueError, match="need n") as exc:
        build_wavepacket(spec, Grid1D(16, 2 * np.pi, x_left=-np.pi), frame=frame)
    need = int(re.search(r"need n >= (\d+)", str(exc.value)).group(1))
    assert need in _EVEN_5_SMOOTH
    u = build_wavepacket(spec, Grid1D(need, 2 * np.pi, x_left=-np.pi), frame=frame)
    assert u.grid.n == need and np.max(np.abs(u.values)) > 0.0
    below = _EVEN_5_SMOOTH[_EVEN_5_SMOOTH.index(need) - 1]
    with pytest.raises(ValueError, match="need n"):
        build_wavepacket(spec, Grid1D(below, 2 * np.pi, x_left=-np.pi), frame=frame)


def test_wavepacket_sobolev_slope():
    # || packet ||_{H^m} ~ eps^{-m + (1-h)/2} for K = 0
    m, h, xi0 = 2.0, 0.5, 4.0
    ladder = [1e-2, 10 ** -2.5, 1e-3, 10 ** -3.5]
    norms = []
    for eps in ladder:
        k0 = xi0 / eps
        n = 1 << int(np.ceil(np.log2(8 * k0)))
        grid = Grid1D(n, 2 * np.pi, x_left=-np.pi)
        spec = WavePacketSpec(K=0.0, xi0=xi0, x0=0.0, eps=eps, h=h, delta=0.7)
        u = build_wavepacket(spec, grid, frame="original")
        norms.append(sobolev_norm(u, m))
    slope = np.polyfit(np.log(ladder), np.log(norms), 1)[0]
    predicted = -m + (1.0 - h) / 2.0
    assert abs(slope - predicted) <= 0.02 * abs(predicted)


def test_cutoff_plateau():
    r = np.linspace(-1.2, 1.2, 301)
    th = smooth_cutoff(r, inner=0.5, outer=1.0)
    assert np.all(th[np.abs(r) <= 0.5] == 1.0)
    assert np.all(th[np.abs(r) >= 1.0] == 0.0)
    assert np.all((th >= 0.0) & (th <= 1.0))


# ---------------------------------------------------------------------------
# calculus residuals
# ---------------------------------------------------------------------------

def test_composition_multipliers_exact():
    grid = Grid1D(256, 2 * np.pi)
    u = smooth_probe(grid, seed=2)
    a = lambda x, xi, e: np.tanh(xi) + 2.0
    b = lambda x, xi, e: 1.0 / (1.0 + xi ** 2)
    rep = composition_residual(a, b, [1e-2, 1e-3], 2.0 / 3.0, u)
    assert np.max(rep.residuals) < 1e-14


def test_composition_orders():
    h = 2.0 / 3.0
    grid = Grid1D(256, 2 * np.pi)
    u = smooth_probe(grid, seed=4)
    a = lambda x, xi, e: np.tanh(xi) + 2.0
    b_slow = lambda x, xi, e: 1.0 + e ** (1 - h) * np.sin(x)
    b_fast = lambda x, xi, e: 1.0 + 0.5 * np.sin(x)
    ladder = [1e-2, 1e-3, 1e-4, 1e-5]
    rep_slow = composition_residual(a, b_slow, ladder, h, u)
    rep_fast = composition_residual(a, b_fast, ladder, h, u)
    assert rep_slow.fitted_order >= 0.9
    assert abs(rep_fast.fitted_order - h) <= 0.05


def test_operator_norm_estimates():
    grid = Grid1D(512, 2 * np.pi)
    probes = [smooth_probe(grid, seed=s) for s in range(4)]
    c = lambda x, xi, e: 2.5 + 0.0 * xi
    est = operator_norm_estimate(c, 1e-3, 0.5, probes)
    assert abs(est - 2.5) <= 1e-10 * 2.5
    # multiplier estimate stays below the sup and is attained on a tuned probe
    a = lambda x, xi, e: np.exp(-(xi - 0.4) ** 2)
    eps, h = 1e-2, 2.0 / 3.0
    sup = max(np.exp(-(eps ** h * k - 0.4) ** 2) for k in grid.freqs)
    est = operator_norm_estimate(a, eps, h, probes)
    assert est <= sup * (1 + 1e-12)
    # order-0 symbol: estimates uniformly bounded across the ladder
    vals = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-5):
        vals.append(operator_norm_estimate(a, eps, h, probes))
    slope = np.polyfit(np.log([1e-2, 1e-3, 1e-4, 1e-5]), np.log(vals), 1)[0]
    assert abs(slope) <= 0.05


def test_container_roundtrip(tmp_path):
    grid = Grid1D(128, 2 * np.pi, x_left=-np.pi)
    u = smooth_probe(grid, seed=6, ncomp=2)
    path = tmp_path / "u.hypgrid"
    save_grid_function(u, str(path))
    v = load_grid_function(str(path))
    assert v.grid == u.grid
    assert np.array_equal(v.values, u.values)


def test_resolution_check_guard():
    from hypflow.semiclassical import resolution_check
    n = 256
    grid = Grid1D(n, 2 * np.pi)
    hot = GridFunction(grid, np.exp(1j * (n // 3) * grid.nodes))
    with pytest.raises(ValueError, match="need n"):
        resolution_check(hot)
    resolution_check(smooth_probe(grid))   # fine
