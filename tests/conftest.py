"""Shared fixtures and the reference optimum table used across test modules."""

import pytest

from packbound.optimizer import terminal_gap

# d -> (sigma_star, Z_star, phi_star, improvement ratio), quoted to 7 digits
REFERENCE_TABLE = {
    3: (1.246997, 7.932582, 0.5758254, 1.842641),
    4: (1.212589, 13.71016, 0.4252472, 2.267985),
    5: (1.186929, 21.97918, 0.3048322, 2.787037),
    6: (1.167000, 33.53884, 0.2136444, 3.418310),
    7: (1.151106, 49.42513, 0.1471058, 4.184343),
    8: (1.137967, 70.88348, 0.09985085, 5.112364),
    24: (1.058992, 5473.546, 8.245251e-05, 106.4095),
    36: (1.041611, 76521.15, 2.566299e-07, 928.1828),
    56: (1.028036, 4.248007e06, 1.253255e-11, 31140.19),
    60: (1.026330, 9.179315e06, 1.674130e-12, 62262.60),
    64: (1.024823, 1.968233e07, 2.221414e-13, 124175.32),
    80: (1.020211, 3.908042e08, 6.521679e-17, 1.922982e06),
    100: (1.016421, 1.478804e10, 2.288485e-21, 5.688234e08),
    125: (1.013311, 1.246172e12, 5.610270e-27, 3.758024e09),
    150: (1.011214, 9.698081e13, 1.275632e-32, 2.319290e11),
    175: (1.009671, 7.086019e15, 2.745830e-38, 1.485866e13),
    200: (1.008510, 4.959086e17, 5.667098e-44, 9.016510e14),
}

#: dimensions of the reference optimum table
TABLE_DIMS = tuple(REFERENCE_TABLE)


@pytest.fixture(scope="session")
def table_records():
    """Gap optima for every tabulated dimension (memoized in the module)."""
    return {d: terminal_gap(d) for d in TABLE_DIMS}
