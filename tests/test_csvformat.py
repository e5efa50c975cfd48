"""The numpy CSV formatter writes every value exactly as ``'%.17g' % value``."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ctqrw import cli
from ctqrw._csvformat import _decimal, format_rows


def reference(table) -> bytes:
    """The CSV lines CPython writes one value at a time."""
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in table.tolist()).encode()


def assert_same_bytes(values, n_cols=1):
    table = np.asarray(values, dtype=float).reshape(-1, n_cols)
    got, want = format_rows(table), reference(table)
    if got != want:
        bad = [(g, w) for g, w in zip(got.splitlines(), want.splitlines()) if g != w]
        pytest.fail(f"{len(bad)} rows differ, first: {bad[:1]}")


BITS = st.integers(0, 2**64 - 1).map(lambda b: float(np.uint64(b).view(np.float64)))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.integers(1, 4).flatmap(
        lambda cols: st.lists(
            st.lists(st.one_of(BITS, st.floats()), min_size=cols, max_size=cols),
            min_size=1,
            max_size=40,
        )
    )
)
def test_any_bit_pattern_formats_as_cpython(rows):
    table = np.array(rows, dtype=float)
    assert format_rows(table) == reference(table)


def test_zeros_subnormals_and_non_finite_values():
    tiny = np.nextafter(0.0, 1.0)
    values = [0.0, -0.0, tiny, -tiny, 12345 * tiny, 2.2250738585072009e-308,
              2.2250738585072014e-308, np.inf, -np.inf, np.nan, -np.nan, 1e-230, 1e230,
              1.7976931348623157e308]
    assert_same_bytes(values)
    assert_same_bytes(values + values[::-1], n_cols=2)


def test_powers_of_ten_and_their_neighbours():
    values = []
    for k in range(-310, 309):
        v = float(f"1e{k}")
        values += [v, np.nextafter(v, 0.0), np.nextafter(v, np.inf), -v]
    assert_same_bytes(values, n_cols=4)


def test_values_just_below_1e17_and_1e16():
    values = [1e17, 1e17 - 8, 1e17 - 16, np.nextafter(1e17, 0.0), 99999999999999999.0,
              1e16, 1e16 - 1, 1e16 - 2, 9999999999999998.0, 99999999999999990.0,
              0.99999999999999994, 9.9999999999999995e-5, 0.0001, 0.00099999999999999991]
    assert_same_bytes(values + [-v for v in values], n_cols=2)


def test_exact_ties_round_half_to_even():
    # each value is an exact 18-digit decimal ending in 5
    ties = [5811181041963.53125, 108.751678466796875, 0.302089691162109375, 362506.866455078125]
    assert format_rows(np.array([[ties[0]]])) == b"5811181041963.5312\n"
    assert_same_bytes(ties)
    # a tie is never decided by the vectorized digits
    assert not _decimal(np.array(ties))[2].any()


def test_dyadic_fractions():
    values = [k / 2.0**j for j in range(0, 80, 3) for k in range(1, 4000, 37)]
    assert_same_bytes(values + [-v for v in values], n_cols=2)


def test_write_csv_spans_blocks_and_wide_rows(tmp_path):
    rng = np.random.default_rng(5)
    for shape in [(3001, 7), (3, 9000)]:
        table = rng.standard_normal(shape) * 10.0 ** rng.integers(-12, 20, shape)
        table[rng.random(shape) < 0.3] = 0.0
        path = tmp_path / "t.csv"
        header = [f"c{k}" for k in range(shape[1])]
        cli.write_csv(str(path), header, list(table.T))
        assert path.read_bytes() == (",".join(header) + "\n").encode() + reference(table)


VOLTERRA = """
[experiment]
kind = solve

[model]
type = depolarizing

[kernel]
type = fractional
amplitude = 0.70710678118654752
alpha = 0.5

[grid]
t_max_over_T = 10
n_points = 8001

[initial]
state = bloch:0.3,-0.5,0.7

[solve]
route = volterra
"""

REALIZATIONS = """
[experiment]
kind = realizations
seed = 7

[model]
type = depolarizing

[kernel]
type = fractional
amplitude = 0.70710678118654752
alpha = 0.5

[initial]
state = plus_x

[realizations]
n_realizations = 300
"""

INTRINSIC = """
[experiment]
kind = intrinsic

[kernel]
type = fractional
amplitude = 0.70710678118654752
alpha = 0.5

[grid]
t_max_over_T = 10
n_points = 2001

[intrinsic]
levels = 0, 1.3, 2.9
phase = delta
tau_b = 0.5
"""


@pytest.mark.parametrize(
    "text, shape",
    [(VOLTERRA, (8001, 9)), (REALIZATIONS, (200, 901)), (INTRINSIC, (2001, 19))],
    ids=["volterra", "realizations", "intrinsic"],
)
def test_benchmark_shaped_tables_never_fall_back(tmp_path, text, shape):
    config = tmp_path / "run.ini"
    config.write_text(text)
    assert cli.run(str(config), str(tmp_path)) == 0
    table = np.loadtxt(tmp_path / "output.csv", delimiter=",", skiprows=1)
    assert table.shape == shape
    values = table[table != 0.0]  # +-0 never reaches the digit path
    assert _decimal(values)[2].all()
