"""Generators for segment folds: start values, addend tuples, lengths.

A fold adds each cell's addend tuple to the cell's value *n* times, in
order.  Values span zero (both signs), negatives, huge magnitudes that
overflow to infinity, subnormals and int-valued starts (ints past 2**53
round on their first addition); tuples hold 0-3 addends; *n* sits on
and around the vectorised fold's chunk boundary as well as anywhere up
to a few chunks.
"""

from hypothesis import strategies as st

from repro.simcpu.engine import FOLD_CHUNK_TICKS

_floats = st.floats(allow_nan=False, allow_infinity=False)

#: Values that make a fold's float rounding visible.
EDGE_VALUES = (0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 1e308, -1e308,
               1.7976931348623157e308, 0.1, 1e-3)

#: Fold lengths around the chunk boundary, which every run covers.
CHUNK_EDGES = (FOLD_CHUNK_TICKS - 1, FOLD_CHUNK_TICKS,
               FOLD_CHUNK_TICKS + 1, 3 * FOLD_CHUNK_TICKS + 7)

fold_values = st.one_of(
    _floats, st.sampled_from(EDGE_VALUES),
    st.integers(-2 ** 70, 2 ** 70), st.integers(-10, 10))

fold_addends = st.lists(st.one_of(_floats, st.sampled_from(EDGE_VALUES)),
                        max_size=3).map(tuple)

fold_lengths = st.one_of(st.sampled_from((0, 1, 2) + CHUNK_EDGES),
                         st.integers(0, CHUNK_EDGES[-1]))


@st.composite
def fold_cells(draw, max_cells: int = 8):
    """(values, addend tuples): one start value and tuple per cell."""
    cells = draw(st.lists(st.tuples(fold_values, fold_addends),
                          max_size=max_cells))
    return [value for value, _ in cells], [adds for _, adds in cells]
