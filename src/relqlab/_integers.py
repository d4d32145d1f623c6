"""The integer test every count and index argument of the library shares."""

import numpy as np


def is_integer(value):
    """True for a Python or numpy integer; False for bool and np.bool_, which
    would otherwise pass as the counts 0 and 1."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, (bool, np.bool_))
