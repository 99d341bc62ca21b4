"""The vectorized %.17g kernel of trajectory.csv against Python's format(x, ".17g")."""

import math
import subprocess
import sys

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from paulidyn.csvtext import format_values


def assert_matches_format(values):
    x = np.asarray(values, dtype=np.float64)
    assert format_values(x) == [format(v, ".17g") for v in x.tolist()]


def with_neighbours(values, ulps: int = 1) -> np.ndarray:
    """values, their negatives, and the doubles up to ``ulps`` steps to either side."""
    x = np.asarray(values, dtype=np.float64)
    out = [x]
    down = up = x
    for _ in range(ulps):
        down, up = np.nextafter(down, 0.0), np.nextafter(up, np.inf)
        out += [down, up]
    x = np.concatenate(out)
    return np.concatenate((x, -x))


def test_every_power_of_ten_and_its_neighbours():
    powers = [float(f"1e{k}") for k in range(-323, 309)]
    assert_matches_format(with_neighbours(powers))


def test_notation_switch_at_both_ends():
    # %.17g switches to exponent notation below 1e-4 and from 1e17 on
    assert_matches_format(with_neighbours([1e-5, 1e-4, 1e16, 1e17], ulps=64))
    # values that round across the switch print in the notation of the rounded value
    assert format_values(np.array([9.9999999999999999e-05, 99999999999999999.0])) == [
        "0.0001", "1e+17"]
    assert format_values(np.array([np.nextafter(1e-4, 0.0), np.nextafter(1e17, 0.0)])) == [
        "9.9999999999999991e-05", "99999999999999984"]


def exact_ties() -> dict:
    """Doubles n / 2**j with exactly 18 significant digits (their 17-digit rounding is
    a tie), by the parity of their 17th digit."""
    ties = {0: [], 1: []}
    for j in range(1, 64):
        for n in range(1, 4000, 2):
            digits = str(n * 5**j).rstrip("0")
            if len(digits) == 18:
                ties[int(digits[16]) % 2].append(n / 2**j)
    return ties


def test_exact_ties_round_half_even():
    assert format_values(np.array([2.0**-25, 835396668477306.125])) == [
        "2.9802322387695312e-08", "835396668477306.12"]
    # half-even rounds down after an even 17th digit, where half-up would not
    even, odd = exact_ties().values()
    assert len(even) > 100 and len(odd) > 100
    assert_matches_format(with_neighbours(even + odd))


def test_subnormals_zeros_and_non_finite_values():
    specials = [5e-324, 1e-310, 2.2250738585072009e-308, 2.2250738585072014e-308, 0.0,
                1.0, 0.1]
    subnormals = np.random.default_rng(5).integers(1, 2**52, 2000).view(np.float64)
    extremes = [math.inf, -math.inf, math.nan, -math.nan, 1.7976931348623157e308,
                -1.7976931348623157e308]
    assert_matches_format(np.concatenate((with_neighbours(specials), subnormals, extremes)))
    assert format_values(np.array([0.0, -0.0, -math.inf, math.nan])) == ["0", "-0", "-inf", "nan"]


def test_random_values_over_the_whole_range():
    rng = np.random.default_rng(11)
    scaled = rng.standard_normal(50_000) * 10.0 ** rng.uniform(-320, 308, 50_000)
    bits = rng.integers(0, 2**64, 50_000, dtype=np.uint64, endpoint=False).view(np.float64)
    assert_matches_format(np.concatenate((scaled, bits)))


@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
@settings(max_examples=300, deadline=None)
def test_raw_bit_patterns(patterns):
    assert_matches_format(np.array(patterns, dtype=np.uint64).view(np.float64))


def test_tables_are_built_on_first_use_and_only_for_exponents_seen():
    code = ("import numpy as np, paulidyn\n"
            "from paulidyn import csvtext\n"
            "assert csvtext._TABLES.words is None and not csvtext._TABLES.ready.any()\n"
            "csvtext.format_values(np.array([1.0, 1.5, 3.0, -0.0]))\n"
            "print(int(csvtext._TABLES.ready.sum()))\n")
    run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "3"  # binary exponents 1 and 2, and the zeros' 0
