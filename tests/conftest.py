"""Shared fixtures and hypothesis strategies."""

from __future__ import annotations

import random

import pytest
from hypothesis import strategies as st

from vknot.gauss import Diagram, Entry, parse_gauss
from vknot.table import load_table

# The worked three-crossing example (crossings alpha,beta,gamma = 1,2,3):
# signs (-1, +1, -1), indices (-1, 1, 2), dJ_1 = 2, dJ_2 = -1.
EXAMPLE_31 = "O3- U1- O2+ U3- U2+ O1-"


@pytest.fixture(scope="session")
def example_31() -> Diagram:
    return parse_gauss(EXAMPLE_31)


@pytest.fixture(scope="session")
def table_records():
    return load_table()


def random_code(m: int, seed: int) -> str:
    """A random m-crossing Gauss code: random pairing, passes and signs."""
    rng = random.Random(seed)
    slots = list(range(2 * m))
    rng.shuffle(slots)
    tokens = [""] * (2 * m)
    for c in range(m):
        over, sign = rng.choice("OU"), rng.choice("+-")
        tokens[slots[2 * c]] = f"{over}{c}{sign}"
        tokens[slots[2 * c + 1]] = f"{'U' if over == 'O' else 'O'}{c}{sign}"
    return " ".join(tokens)


@st.composite
def diagrams(draw, max_crossings: int = 5, min_crossings: int = 0) -> Diagram:
    """Random valid diagram: random pairing, passes and signs."""
    m = draw(st.integers(min_crossings, max_crossings))
    slots = list(range(2 * m))
    order = draw(st.permutations(slots))
    entries: list[Entry | None] = [None] * (2 * m)
    for c in range(m):
        a, b = order[2 * c], order[2 * c + 1]
        over_first = draw(st.booleans())
        sign = draw(st.sampled_from((1, -1)))
        entries[a] = Entry(str(c + 1), over_first, sign)
        entries[b] = Entry(str(c + 1), not over_first, sign)
    return Diagram(entries)


@st.composite
def laurent_term_lists(draw):
    return draw(
        st.lists(
            st.tuples(
                st.integers(-6, 6),
                st.integers(-6, 6),
                st.integers(-9, 9),
            ),
            max_size=12,
        )
    )
