import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

DATA_DIR = Path(__file__).parent / "data"

# every character that UTF-8 encodes, all but the surrogates: st.text()'s
# default alphabet, without the scan of every code point that hypothesis
# makes to build it when its example database is empty
UTF8_TEXT = st.text(st.characters(exclude_categories=("Cs",)))


@st.composite
def seeded_arrays(draw, shape):
    """uint8 arrays of ``shape`` whose values come from a drawn set of 1-256
    levels, placed by a numpy Generator of a drawn seed: the one strategy for
    pixels, as hypothesis then draws a few values per array, not one per pixel."""
    levels = np.array(draw(st.lists(st.integers(0, 255), min_size=1, max_size=256, unique=True)), np.uint8)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return levels[rng.integers(0, len(levels), shape)]


def u8_arrays(*trailing):
    """seeded_arrays whose two leading sides are 1-40 px."""
    sides = st.tuples(st.integers(1, 40), st.integers(1, 40))
    return sides.flatmap(lambda hw: seeded_arrays(hw + trailing))


@pytest.fixture
def data_dir() -> Path:
    return DATA_DIR


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)
