"""Shared exception type, and the reason a read or write failed.

`StructuralError` covers every bad input: malformed data (asymmetry, a bad
cell, a label mismatch, a hand-built `ClusterNetwork` whose per-metric
parent links do not form one laminar tree), an unusable argument, or a path
that cannot be read or written. The CLI maps it, and only it, to exit 2.
"""


class StructuralError(ValueError):
    """Bad input: malformed data, an unusable argument or an unusable path."""


def reason(exc: Exception) -> str:
    """An OSError's reason without the path it repeats; any other error whole."""
    return getattr(exc, "strerror", None) or str(exc)
