"""Shared exception type.

`StructuralError` marks malformed input: asymmetry, a bad cell, a label
mismatch, or a hand-built `ClusterNetwork` whose per-metric parent links do
not form one laminar tree. Networks fused from dendrograms always pass that
check, so queries on a constructed network need no error path of their own.
"""


class StructuralError(ValueError):
    """Malformed input data (asymmetry, bad cell, label mismatch, ...)."""
