"""Shared exception type, and the reason a read or write failed.

`StructuralError` covers every bad input: malformed data (asymmetry, a bad
cell, a label mismatch, a hand-built `ClusterNetwork` whose per-metric
parent links do not form one laminar tree), an unusable argument (an empty
or unknown metric subfamily, an unknown metric id, a lattice chain that is
not maximal, default weights at d >= p^2), or a path that cannot be read or
written. It is raised, fully worded, where the fault is found, and the CLI
maps it, and only it, to exit 2 with its text unchanged. A lattice that is
no ball of a norm is an answer (`padic.intermediary_balls` returns None),
not an error; any other exception is a fault in the program (exit 3).
"""


class StructuralError(ValueError):
    """Bad input: malformed data, an unusable argument or an unusable path."""


def reason(exc: Exception) -> str:
    """An OSError's reason without the path it repeats; any other error whole."""
    return getattr(exc, "strerror", None) or str(exc)
