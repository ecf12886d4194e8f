"""g10 without pytest: tests/memory_guard.py imports this module to keep
pytest out of its VmHWM, and conftest.py re-exports the builder."""

from martinpoly.multigraph import from_edges


def cyclically_6_connected_10_vertex():
    """A cyclically 6-connected simple 4-regular graph on 10 vertices, g10
    for short."""
    return from_edges(10, [
        (0, 3), (0, 4), (0, 5), (0, 6), (1, 2), (1, 3), (1, 6), (1, 8),
        (2, 4), (2, 5), (2, 9), (3, 4), (3, 9), (4, 8), (5, 6), (5, 7),
        (6, 7), (7, 8), (7, 9), (8, 9)])
