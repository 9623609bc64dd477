import io
import math
import operator
import time
import warnings
from functools import cache

import numpy as np
import pytest
from helpers import full_range_raster
from reference import pure_parts, wigner_integral, wigner_point, wigner_values
from scipy.linalg import expm

from zenocavity.fock import (
    FieldState,
    annihilation_op,
    cat_state,
    coherent,
    displacement_op,
    fock_basis,
    photon_distribution,
    vacuum,
)
from zenocavity.openquantum import pure_density
from zenocavity import phasespace
from zenocavity.phasespace import (
    _CSV_BLOCK,
    _G17_MIN,
    W_MAX,
    WignerGrid,
    _g17_below_one,
    _geometry,
    count_lobes,
    export_csv,
    export_pgm,
    import_csv,
    wigner_grid,
)

TWO_OVER_PI = 2.0 / math.pi


def test_wigner_point_examples():
    assert abs(wigner_point(vacuum(12), 0) - TWO_OVER_PI) < 1e-12
    assert abs(wigner_point(fock_basis(1, 12), 0) + TWO_OVER_PI) < 1e-12
    psi = coherent(2, 40)
    assert abs(wigner_point(psi, 2) - TWO_OVER_PI) < 1e-9
    # analytic gaussian: W(0) = (2/pi) exp(-2 |alpha|^2)
    assert abs(wigner_point(psi, 0) - TWO_OVER_PI * math.exp(-8)) < 1e-9


def test_wigner_point_density_matrix():
    rho = 0.5 * pure_density(vacuum(12)) + 0.5 * pure_density(fock_basis(1, 12))
    assert abs(wigner_point(rho, 0)) < 1e-12  # parities cancel


def test_grid_matches_pointwise_and_peaks_at_center():
    grid = wigner_grid(vacuum(16), (-3, 3, -3, 3), nx=61, ny=61)
    j, i = np.unravel_index(np.argmax(grid.values), grid.values.shape)
    assert grid.xs[i] == pytest.approx(0, abs=1e-12)
    assert grid.ys[j] == pytest.approx(0, abs=1e-12)
    psi = cat_state(2, 1, 40)
    grid = wigner_grid(psi, (-1, 1, -1, 1), nx=9, ny=11)
    for jj in (0, 5, 10):
        for ii in (0, 4, 8):
            xi = complex(grid.xs[ii], grid.ys[jj])
            # the raster's u spacing divides sqrt(2) dx, the point's does
            # not: two quadratures of one integral agree to rounding
            assert abs(grid.values[jj, ii] - wigner_point(psi, xi)) < 1e-10


def test_even_cat_fringes_alternate_along_imaginary_axis():
    # analytic even-cat Wigner on the imaginary axis, alpha = 2:
    # W(iy) = (2/pi) [exp(-2y^2) cos(8y) + exp(-8 - 2y^2)] / (1 + exp(-8))
    psi = cat_state(2, 1, 40)

    def analytic(y):
        return (
            TWO_OVER_PI
            * (math.exp(-2 * y * y) * math.cos(8 * y)
               + math.exp(-8 - 2 * y * y))
            / (1 + math.exp(-8))
        )

    for y in (0.0, math.pi / 16, math.pi / 8, math.pi / 4, 0.9):
        assert wigner_point(psi, 1j * y) == pytest.approx(analytic(y), abs=1e-9)
    assert wigner_point(psi, 1j * math.pi / 8) < -0.4  # negative fringe
    assert wigner_point(psi, 0) > 0.6  # positive peak between the lobes


def test_bounded_by_two_over_pi():
    for psi in (vacuum(20), cat_state(1.5, -1, 24), coherent(1j, 20)):
        grid = wigner_grid(psi, (-3, 3, -3, 3), nx=41, ny=41)
        assert np.max(np.abs(grid.values)) <= W_MAX + 1e-9


def test_normalization_integral():
    # position-space evaluation needs no padding, so the state's own dim
    # is enough even though the corners lie |xi - alpha| ~ 11 away
    grid = wigner_grid(coherent(2, 48), (-7, 7, -7, 7), nx=141, ny=141)
    assert abs(wigner_integral(grid) - 1.0) < 1e-3


def test_far_points_give_the_exact_gaussian():
    # far from the state's support W is its exact tail, with no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert wigner_point(vacuum(10), 22.0) == pytest.approx(
            TWO_OVER_PI * math.exp(-2 * 22.0**2), abs=1e-15)
        grid = wigner_grid(vacuum(10), (18, 26, -2, 2), nx=5, ny=5)
    exact = TWO_OVER_PI * np.exp(-2 * (grid.xs[None, :] ** 2 + grid.ys[:, None] ** 2))
    assert np.max(np.abs(grid.values - exact)) < 1e-15


def test_fine_raster_matches_gaussian():
    # columns far closer than the u spacing go through interleaved
    # sub-rasters; a 1e-4-wide window must still be the exact Gaussian
    alpha = 1.0 + 0.5j
    for width in (0.1, 1e-4):
        grid = wigner_grid(coherent(alpha, 20), (1 - width, 1 + width, 0.4, 0.6), nx=41, ny=5)
        xi = grid.xs[None, :] + 1j * grid.ys[:, None]
        exact = TWO_OVER_PI * np.exp(-2 * np.abs(xi - alpha) ** 2)
        assert np.max(np.abs(grid.values - exact)) < 1e-12


ORACLE_PAD = 400


@cache
def _unit_displacements() -> tuple[np.ndarray, np.ndarray]:
    """Dense D(-1) and D(-i) on ORACLE_PAD levels, by scipy.linalg.expm."""
    a = annihilation_op(ORACLE_PAD)
    return expm(a - a.conj().T), expm(-1j * (a + a.conj().T))


def _powers(step: np.ndarray, ns: list[int], v: np.ndarray) -> list[np.ndarray]:
    """step^n @ v for each integer n in ns; step is unitary."""
    out = {0: v}
    for n in range(1, max(ns) + 1):
        out[n] = step @ out[n - 1]
    for n in range(-1, min(ns) - 1, -1):
        out[n] = step.conj().T @ out[n + 1]
    return [out[n] for n in ns]


def _dense_wigner(parts, xs: list[int], ys: list[int]) -> np.ndarray:
    """Displaced-parity raster of sum_c w_c |v_c><v_c| at integer points.

    D(-x - iy) = D(-i)^y D(-1)^x up to a phase, which the parity ignores.
    The state is padded with zeros to ORACLE_PAD levels, enough for the
    displaced dim-80 states up to |xi| ~ 7.
    """
    d_re, d_im = _unit_displacements()
    parity = np.where(np.arange(ORACLE_PAD) % 2 == 0, 1.0, -1.0)
    values = np.zeros((len(ys), len(xs)))
    for weight, vec in parts:
        v = np.zeros(ORACLE_PAD, dtype=np.complex128)
        v[: len(vec)] = vec / np.linalg.norm(vec)
        cols = np.stack(_powers(d_re, xs, v), axis=1)
        for j, rows in enumerate(_powers(d_im, ys, cols)):
            values[j] += TWO_OVER_PI * weight * (parity @ np.abs(rows) ** 2)
    return values


def _random_amps(rng, dim: int) -> np.ndarray:
    return rng.normal(size=dim) + 1j * rng.normal(size=dim)


def test_raster_matches_dense_oracle_full_support():
    psi = FieldState(_random_amps(np.random.default_rng(7), 80))
    grid = wigner_grid(psi, (-5, 5, -5, 5), nx=11, ny=11)
    lattice = list(range(-5, 6))
    err = np.max(np.abs(grid.values - _dense_wigner([(1.0, psi.amps)], lattice, lattice)))
    assert err < 1e-12


def test_raster_matches_dense_oracle_top_fock_state():
    # |79> has the widest spectrum a dim-80 state can have, and the
    # [-12, 12]^2 window asks for the finest u spacing; the oracle's basis
    # holds the displaced state on the central [-5, 5]^2
    grid = wigner_grid(fock_basis(79, 80), (-12, 12, -12, 12), nx=25, ny=25)
    lattice = list(range(-5, 6))
    oracle = _dense_wigner([(1.0, fock_basis(79, 80).amps)], lattice, lattice)
    assert np.max(np.abs(grid.values[7:18, 7:18] - oracle)) < 1e-12


def test_raster_matches_dense_oracle_mixed_state():
    rng = np.random.default_rng(11)
    parts = [(w, _random_amps(rng, 30)) for w in (0.5, 0.3, 0.2)]
    rho = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in parts)
    values = wigner_values(rho, (-4, 4, -3, 5), nx=9, ny=9)
    oracle = _dense_wigner(parts, list(range(-4, 5)), list(range(-3, 6)))
    assert np.max(np.abs(values - oracle)) < 1e-12


def test_half_range_kernel_matches_full_complex_form():
    # the integrand at -u is the conjugate of the one at u, so summing
    # u >= 0 with a real kernel is the full complex sum up to rounding
    rng = np.random.default_rng(11)
    parts = [(w, _random_amps(rng, 30)) for w in (0.5, 0.3, 0.2)]
    rho = sum(w * np.outer(v, v.conj()) / np.vdot(v, v).real for w, v in parts)
    cases = [
        (cat_state(2.5, 1, 80), (-6.0, 6.0, -6.0, 6.0), 121, 121),  # the rasters layout
        (rho, (-4.0, 4.0, -3.0, 5.0), 9, 9),
        (coherent(1.0 + 0.5j, 20), (1 - 1e-4, 1 + 1e-4, 0.4, 0.6), 41, 5),  # stride split
    ]
    for state, (x_min, x_max, y_min, y_max), nx, ny in cases:
        values = wigner_values(state, (x_min, x_max, y_min, y_max), nx, ny)
        oracle = full_range_raster(
            pure_parts(state), x_min, (x_max - x_min) / (nx - 1), nx, np.linspace(y_min, y_max, ny)
        )
        assert np.max(np.abs(values - oracle)) <= 4e-15
    for state, xi in ((cat_state(2.5, 1, 80), 0.3 - 0.7j), (rho, -1.2 + 0.4j), (vacuum(10), 22)):
        xi = complex(xi)
        oracle = full_range_raster(pure_parts(state), xi.real, 0.0, 1, np.array([xi.imag]))
        assert abs(wigner_point(state, xi) - oracle[0, 0]) <= 4e-15


def test_raster_layout_cache_is_transparent():
    psi = cat_state(2, 1, 40)
    _geometry.cache_clear()
    wigner_grid(psi, (-3, 3, -2, 2), nx=31, ny=21)
    cached = wigner_grid(psi, (-3, 3, -2, 2), nx=31, ny=21)
    assert _geometry.cache_info().hits == 1
    _geometry.cache_clear()
    rebuilt = wigner_grid(psi, (-3, 3, -2, 2), nx=31, ny=21)
    assert np.array_equal(cached.values, rebuilt.values)
    assert _geometry.cache_info().maxsize == 4
    for arr in _geometry(40, -3.0, 0.2, 31, -2.0, 2.0, 21):
        assert not arr.flags.writeable


def test_displacement_covariance():
    psi = cat_state(1.2, 1, 30)
    gamma = 0.6 - 0.4j
    moved = FieldState(displacement_op(gamma, 30) @ psi.amps)
    for xi in (0.3 + 0.1j, -0.5j, 1.0):
        assert abs(
            wigner_point(moved, xi) - wigner_point(psi, xi - gamma)
        ) < 1e-8


def test_parity_identity_at_origin():
    psi = cat_state(1.7, 1j, 36)
    p = photon_distribution(psi)
    expected = TWO_OVER_PI * (p[0::2].sum() - p[1::2].sum())
    assert wigner_point(psi, 0) == pytest.approx(expected, abs=1e-13)


def test_csv_round_trip_bit_exact():
    grid = wigner_grid(coherent(1, 20), (-2, 2, -1, 1), nx=7, ny=5)
    buf = io.StringIO()
    export_csv(grid, buf)
    text = buf.getvalue()
    assert text.splitlines()[0] == "x,y,w"
    assert len(text.splitlines()) == 1 + 35
    back = import_csv(io.StringIO(text))
    assert np.array_equal(back.values, grid.values)
    buf2 = io.StringIO()
    export_csv(back, buf2)
    assert buf2.getvalue() == text


def _reference_csv(grid: WignerGrid) -> str:
    """The per-line writer that export_csv must reproduce byte for byte."""
    lines = ["x,y,w\n"]
    xs, ys = grid.xs, grid.ys
    for j in range(grid.ny):
        for i in range(grid.nx):
            lines.append(f"{xs[i]:.17g},{ys[j]:.17g},{grid.values[j, i]:.17g}\n")
    return "".join(lines)


def test_csv_matches_per_line_writer():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(4, 7)) * 10.0 ** rng.integers(-300, 300, size=(4, 7))
    values[0, :3] = [-0.0, 0.0, 5e-324]
    values[3, -2:] = [-1.7976931348623157e308, 1.0 / 3.0]
    grid = WignerGrid(x_min=-2.5, x_max=0.1, y_min=-0.3, y_max=7.0, nx=7, ny=4,
                      values=values)
    buf = io.StringIO()
    export_csv(grid, buf)
    assert buf.getvalue() == _reference_csv(grid)
    assert ",-0\n" in buf.getvalue()


def test_csv_matches_per_value_writer_on_random_bit_patterns():
    # finite doubles from random bit patterns, signed zeros, subnormals and
    # both sides of the switch to exponent form at 1e17
    bits = np.random.default_rng(23).integers(0, 2**64, size=200, dtype=np.uint64)
    finite = bits.view(np.float64)[np.isfinite(bits.view(np.float64))]
    special = [0.0, -0.0, 5e-324, -2.2250738585072014e-308, 1e16, 1.2345678901234568e17]
    values = np.concatenate([special, finite[:11 * 13 - len(special)]]).reshape(13, 11)
    grid = WignerGrid(x_min=-1e16, x_max=3.3e17, y_min=-5e-324, y_max=0.1, nx=11, ny=13,
                      values=values)
    buf = io.StringIO()
    export_csv(grid, buf)
    assert buf.getvalue() == _reference_csv(grid)
    lines = buf.getvalue().splitlines()
    assert lines[1].startswith("-10000000000000000,-4.9406564584124654e-324,")
    assert [line.rsplit(",", 1)[1] for line in lines[1:7]] == [
        "0", "-0", "4.9406564584124654e-324", "-2.2250738585072014e-308",
        "10000000000000000", "1.2345678901234568e+17",
    ]


def _one_string_csv(grid: WignerGrid) -> str:
    """export_csv as it was when it joined the whole raster into one string."""
    xs = [f"{x:.17g}," for x in grid.xs.tolist()]
    ys = [f"{y:.17g}," for y in grid.ys.tolist()]
    keys = [x + y for y in ys for x in xs]
    ws = map("{:.17g}\n".format, grid.values.ravel().tolist())
    return "x,y,w\n" + "".join(map(operator.add, keys, ws))


def test_csv_written_by_rows_matches_one_string_form(tmp_path):
    # a non-square raster: a row is one y, nx values long
    grid = wigner_grid(cat_state(1.5, 1.0, 30), (-4, 3, -2, 2.5), nx=9, ny=4)
    with open(tmp_path / "w.csv", "w", encoding="utf-8") as fh:
        export_csv(grid, fh)
    text = (tmp_path / "w.csv").read_text(encoding="utf-8")
    assert text == _one_string_csv(grid)
    assert text.splitlines()[1:3] == [f"{grid.xs[0]:.17g},-2,{grid.values[0, 0]:.17g}",
                                      f"{grid.xs[1]:.17g},-2,{grid.values[0, 1]:.17g}"]
    assert len(text.splitlines()) == 1 + 9 * 4


def test_vectorised_17_digit_text_matches_per_value_format(monkeypatch):
    # blocks of at least _G17_MIN values with |v| < 1 are rounded in numpy,
    # where a value near a 17-digit tie takes '%.17g' itself; any other
    # block keeps the per-row %.17g template
    rng = np.random.default_rng(41)
    ties = np.arange(26215, 2**18, 2) / 2.0**18  # odd k / 2^18 >= 0.1: 18 digits ending in 5
    below_one = rng.integers(1, 0x3FF0000000000000, size=100_000, dtype=np.uint64)
    below_one |= rng.integers(0, 2, size=below_one.size, dtype=np.uint64) << np.uint64(63)
    powers = np.array([float(f"1e{k}") for k in range(-323, 0)])
    subnormals = np.concatenate([np.arange(1, 600) * 5e-324, 2.2250738585072014e-308
                                 - np.arange(600) * 5e-324])
    vectorised = {
        "random bit patterns below 1": below_one.view(np.float64),
        "powers of ten with their neighbours": np.concatenate(
            [powers, np.nextafter(powers, 0.0), np.nextafter(powers, 1.0), -powers]),
        "subnormals and zeros": np.concatenate([subnormals, -subnormals, [0.0, -0.0]]),
        "ties below 1": ties,
    }
    per_value = {
        "ties above 1": np.full(300, 1125899906842624.25),  # 2^50 + 1/4
        "random bit patterns": rng.integers(0, 2**64, size=1000, dtype=np.uint64).view(np.float64),
        "specials": np.concatenate([np.full(300, 0.5), [0.0, -0.0, np.inf, -np.inf, np.nan,
                                                        1.0, np.nextafter(1.0, 2.0), 1e300]]),
    }
    rounded = []
    monkeypatch.setattr(phasespace, "_g17_below_one",
                        lambda v: rounded.append(v) or _g17_below_one(v))
    for name, values in {**vectorised, **per_value}.items():
        assert len(values) >= _G17_MIN, name
        nx = math.gcd(len(values), 10)  # a raster of at least 2 x 2, blocks of 256 or more
        grid = WignerGrid(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=nx, ny=len(values) // nx,
                          values=values.reshape(-1, nx))
        buf = io.StringIO()
        rounded.clear()
        export_csv(grid, buf)
        if name in vectorised:
            # every block is rounded in numpy, into one NUL-padded row a value
            assert np.array_equal(np.concatenate(rounded), values, equal_nan=True), name
            rows = _g17_below_one(values)
            assert rows.shape == (len(values), 4) and rows.dtype == np.uint64, name
            assert rows.tobytes().replace(b"\0", b"").decode("ascii") == "".join(
                f"{v:.17g}\n" for v in values.tolist()), name
        else:
            assert rounded == [], name
            assert buf.getvalue() == _reference_csv(grid), name
    assert f"{ties[0]:.17g}" == "0.10000228881835938"  # 0.100002288818359375 to even
    assert f"{1125899906842624.25:.17g}" == "1125899906842624.2"


def test_csv_across_row_blocks_matches_per_line_writer():
    # a raster of several row blocks: the first two hold values that keep
    # the %.17g conversion, the last one a tie formatted by '%.17g' itself
    rows = _CSV_BLOCK // 300
    grid = wigner_grid(cat_state(2.0, 1.0, 40), (-4, 4, -3, 3), nx=300, ny=2 * rows + 3)
    grid.values[rows - 1:rows + 1, :4] = [[0.0, -0.0, 1.25, np.nan], [np.inf, -2.0, 0.5, 1e-300]]
    grid.values[-1, :2] = [26215 / 2**18, -26217 / 2**18]
    buf = io.StringIO()
    export_csv(grid, buf)
    assert buf.getvalue() == _reference_csv(grid)


def test_csv_with_the_longest_axis_texts_matches_per_line_writer(monkeypatch):
    # a numpy-path raster whose x and y texts take the longest %.17g form,
    # 25 bytes with the comma, inside their 32-byte slots
    grid = WignerGrid(x_min=-7.2345678901234567e-305, x_max=-7.1e-305,
                      y_min=-8.2345678901234567e-301, y_max=-8.1e-301, nx=20, ny=16,
                      values=np.random.default_rng(7).uniform(-0.6, 0.6, size=(16, 20)))
    assert [len(f"{x:.17g},") for x in grid.xs].count(25) == 18
    assert [len(f"{y:.17g},") for y in grid.ys].count(25) == 14
    rounded = []
    monkeypatch.setattr(phasespace, "_g17_below_one",
                        lambda v: rounded.append(v) or _g17_below_one(v))
    buf = io.StringIO()
    export_csv(grid, buf)
    assert len(rounded) == 1
    assert buf.getvalue() == _reference_csv(grid)
    first = buf.getvalue().splitlines()[1]
    assert first.startswith("-7.2345678901234568e-305,-8.2345678901234568e-301,")


def test_rasters_csv_takes_the_vectorised_path(monkeypatch):
    # the figure-2 raster: every block of w goes through the numpy
    # rounding, and no value is uncertain enough to take '%.17g' itself;
    # the %.17g conversion would be byte-identical but slower
    grid = wigner_grid(cat_state(2.5, 1, 80), (-6, 6, -6, 6), nx=121, ny=121)
    blocks, per_value = [], []
    below_one, text_table = phasespace._g17_below_one, phasespace._text_table

    def counted_texts(texts, size=8):
        per_value.append(len(texts))
        return text_table(texts, size)

    def counted_blocks(v):
        # only the texts _g17_below_one asks for are per-value w texts;
        # export_csv's x and y tables are not counted
        blocks.append(v.copy())
        with monkeypatch.context() as inner:
            inner.setattr(phasespace, "_text_table", counted_texts)
            return below_one(v)

    monkeypatch.setattr(phasespace, "_g17_below_one", counted_blocks)
    buf = io.StringIO()
    export_csv(grid, buf)
    assert len(blocks) > 1
    assert np.array_equal(np.concatenate(blocks), grid.values.ravel())
    assert per_value == [0] * len(blocks)
    assert buf.getvalue() == _reference_csv(grid)


def test_pgm_format_and_midpoint():
    values = np.zeros((4, 3))
    grid = WignerGrid(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=3, ny=4,
                      values=values)
    buf = io.StringIO()
    export_pgm(grid, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "P2"
    assert lines[4] == "3 4" and lines[5] == "255"
    pixels = [int(v) for row in lines[6:] for v in row.split()]
    assert pixels == [128] * 12
    # extremes clip to 0 / 255
    values2 = np.full((4, 3), W_MAX)
    values2[0, 0] = -W_MAX
    grid2 = WignerGrid(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=3, ny=4,
                       values=values2)
    buf2 = io.StringIO()
    export_pgm(grid2, buf2)
    rows = buf2.getvalue().splitlines()[6:]
    assert rows[-1].split()[0] == "0"  # bottom row written last
    assert rows[0].split()[-1] == "255"


def _reference_pgm(grid: WignerGrid) -> str:
    """The map(str, ...) writer that export_pgm must reproduce byte for byte."""
    levels = np.clip(
        np.round((grid.values + W_MAX) / (2.0 * W_MAX) * 255.0), 0, 255
    ).astype(int)
    return (
        "P2\n# wigner raster, 0 -> W=-2/pi, 255 -> W=+2/pi\n"
        f"# x_min={grid.x_min:.17g} x_max={grid.x_max:.17g}\n"
        f"# y_min={grid.y_min:.17g} y_max={grid.y_max:.17g}\n"
        f"{grid.nx} {grid.ny}\n255\n"
        + "".join(" ".join(map(str, row)) + "\n" for row in levels[::-1].tolist())
    )


def test_pgm_matches_str_writer():
    values = np.random.default_rng(4).uniform(-1.2 * W_MAX, 1.2 * W_MAX, size=(6, 9))
    values[0, :8] = [-5.0, 5.0, -W_MAX, W_MAX, 0.0, -0.0, 1e-15, -1e-15]
    grid = WignerGrid(x_min=-1, x_max=1, y_min=-2, y_max=3, nx=9, ny=6, values=values)
    buf = io.StringIO()
    export_pgm(grid, buf)
    assert buf.getvalue() == _reference_pgm(grid)
    assert buf.getvalue().splitlines()[-1].startswith("0 255 0 255 128 128 128 127 ")


def _pgm_grids() -> dict[str, WignerGrid]:
    level_values = (np.arange(256) / 255.0 * 2.0 - 1.0) * W_MAX
    rng = np.random.default_rng(29)
    wide = rng.uniform(-W_MAX, W_MAX, size=(29, 300))
    wide[3], wide[4], wide[5, ::2] = -W_MAX, W_MAX, -W_MAX  # rows of 1-, 3- and mixed-digit levels
    return {
        "all 256 levels": WignerGrid(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=16, ny=16,
                                     values=rng.permutation(level_values).reshape(16, 16)),
        "2 x 2": WignerGrid(x_min=-1, x_max=1, y_min=-1, y_max=1, nx=2, ny=2,
                            values=np.array([[-W_MAX, 0.1], [0.2, W_MAX]])),
        "300 x 29": WignerGrid(x_min=-3, x_max=3, y_min=-0.5, y_max=0.5, nx=300, ny=29,
                               values=wide),
    }


@pytest.mark.parametrize("name", list(_pgm_grids()))
def test_pgm_rows_match_str_writer(name):
    # every row ends in a newline where its last level's space was, whatever its length
    grid = _pgm_grids()[name]
    buf = io.StringIO()
    export_pgm(grid, buf)
    assert buf.getvalue() == _reference_pgm(grid)
    rows = buf.getvalue().splitlines()[6:]
    assert [len(row.split(" ")) for row in rows] == [grid.nx] * grid.ny
    if name == "all 256 levels":
        assert sorted(int(v) for row in rows for v in row.split()) == list(range(256))
    if name == "300 x 29":
        assert len({len(row) for row in rows}) > 3


def test_pgm_header_records_bounds():
    grid = wigner_grid(vacuum(10), (-2.5, 2.5, -1.5, 1.5), nx=5, ny=5)
    buf = io.StringIO()
    export_pgm(grid, buf)
    header = buf.getvalue()
    assert "x_min=-2.5" in header and "y_max=1.5" in header


def test_count_lobes_on_cats():
    assert count_lobes(wigner_grid(coherent(2, 40), (-5, 5, -5, 5))) == 1
    assert count_lobes(wigner_grid(cat_state(2.5, 1, 48), (-5, 5, -5, 5))) == 2


def test_count_lobes_matches_loop_on_plateaus(monkeypatch):
    # rounding makes equal neighbours; a blur of 1e-3 cells is the identity
    values = np.round(np.random.default_rng(5).normal(size=(15, 12)), 1)
    values[5, 5:7] = 9.0  # a two-cell plateau holds no lobe
    grid = WignerGrid(x_min=0, x_max=11, y_min=0, y_max=14, nx=12, ny=15, values=values)
    monkeypatch.setattr(phasespace, "LOBE_SMOOTH_SIGMA", 1e-3)
    for rel in (-1.0, 0.0, 0.25):
        monkeypatch.setattr(phasespace, "LOBE_REL_THRESHOLD", rel)
        cut = rel * values.max()
        expected = 0
        for j in range(1, 14):
            for i in range(1, 11):
                c = values[j, i]
                patch = values[j - 1:j + 2, i - 1:i + 2]
                if c > cut and c >= patch.max() and np.count_nonzero(patch == c) == 1:
                    expected += 1
        assert count_lobes(grid) == expected


def test_count_lobes_on_a_tiny_window_stays_fast():
    # the blur is 0.5 / dx cells wide, thousands over +-0.01; a 4-sigma
    # kernel would then cost n^3, one capped at the raster size n^2
    n = 301
    xs = np.linspace(-0.01, 0.01, n)
    values = np.exp(-(xs[None, :] ** 2 + xs[:, None] ** 2) / 1e-4)  # one bump
    grid = WignerGrid(x_min=-0.01, x_max=0.01, y_min=-0.01, y_max=0.01, nx=n, ny=n,
                      values=values)
    count_lobes(WignerGrid(x_min=0, x_max=1, y_min=0, y_max=1, nx=3, ny=3,
                           values=np.zeros((3, 3))))  # scipy imported before timing
    t0 = time.perf_counter()
    lobes = count_lobes(grid)
    assert time.perf_counter() - t0 < 1.0
    assert lobes == 1
