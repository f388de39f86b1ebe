"""Hypothesis strategy for valid inclusion specs in a small box."""

from hypothesis import strategies as st

from uob.inclusion import InclusionSpec


def _no_zero_line(A):
    """No zero row (an empty super block) and no zero column."""
    return all(map(any, A)) and all(map(any, zip(*A)))


@st.composite
def specs(draw):
    """Valid specs from the box s, r <= 3, entries 0..2, m_j <= 3."""
    s, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    row = st.lists(st.integers(0, 2), min_size=r, max_size=r)
    A = draw(st.lists(row, min_size=s, max_size=s).filter(_no_zero_line))
    return InclusionSpec.from_matrix(A, draw(st.lists(st.integers(1, 3), min_size=r, max_size=r)))
