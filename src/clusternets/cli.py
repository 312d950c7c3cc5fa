"""Command-line front end.

Subcommands: cluster, network, complex, dimension, padic-verify,
phylo-sweep. Output is deterministic (canonical ordering everywhere, no
timestamps in the payload), and every JSON payload is written by
`network.PayloadEncoder`, byte-identical to `json.dumps(indent=2,
sort_keys=True)`. Run metadata can be emitted to a side file with
--emit-meta, left only beside a run that exits 0. Exit codes: 0 success, 2
bad input (a `StructuralError`, the one exception mapped to 2), 3 internal
invariant violation. Errors go to stderr as one-line JSON carrying the
exception's own text: only `main` and `_write_file` catch, and neither
rewords a library error or reads its text to decide. Each subcommand
imports only the layers it calls: `padic`, `phylo` and `simplicial` load on
first use (`_bind`), so `dimension` never compiles the p-adic code.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from importlib import import_module
from pathlib import Path

from .dendrogram import build_dendrogram
from .errors import StructuralError, reason
from .metric import matrix_name, read_matrix
from .network import ClusterNetwork, PayloadEncoder, merge_dendrograms, subfamily, to_dot, to_json

_ROLES = (("out", "--out"), ("emit_meta", "--emit-meta"), ("matrices", "input matrix"),
          ("manifest", "manifest"), ("sweep_spec", "sweep spec"), ("marker_files", "marker file"))
_LAYERS = {
    "padic": ("ball_network", "default_weights", "verify_correspondence"),
    "phylo": ("load_marker_bundle", "load_sweep_spec", "sweep"),
    "simplicial": ("build_complex", "check_compatibility", "complex_json_dict",
                   "dimension_json_dict", "network_dimension", "skeleton_dot"),
}


def _bind(layer: str) -> None:
    """Import a layer and bind its names here; a name already bound (a
    wrapper or test double assigned from outside) keeps its value."""
    module = import_module(f".{layer}", __package__)
    for name in _LAYERS[layer]:
        globals().setdefault(name, getattr(module, name))


def __getattr__(name: str):
    """A layer's name read from outside before a run bound it (bench/replay.py)."""
    for layer, names in _LAYERS.items():
        if name in names:
            _bind(layer)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _metric_id(path: str, used: set[str]) -> str:
    base = name = matrix_name(path)
    k = 1
    while name in used:
        name = f"{base}.{k}"
        k += 1
    used.add(name)
    return name


def _network_from_paths(paths: list[str]) -> ClusterNetwork:
    used: set[str] = set()
    ids = [_metric_id(p, used) for p in paths]
    dendros = [build_dendrogram(read_matrix(p)) for p in paths]
    return merge_dendrograms(dendros, ids)


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True, cls=PayloadEncoder) + "\n"


def _write_file(path: str, text: str) -> None:
    """A write that fails part way removes the regular file it opened; a path
    that cannot be opened, or is no regular file, is left as it was."""
    regular = False
    try:
        with open(path, "w") as f:
            regular = Path(path).is_file()
            f.write(text)
    except OSError as exc:
        if regular:
            Path(path).unlink()
        raise StructuralError(f"cannot write {path}: {reason(exc)}") from None


def _refuse_overwrite(args) -> None:
    """Refuse an output that names an input or the other output (`-` names no file)."""
    named = [(role, p) for key, role in _ROLES for v in [getattr(args, key, None)]
             for p in (v if isinstance(v, (list, tuple)) else [v]) if p not in (None, "-")]
    for i, (role, path) in enumerate(named):
        for other, second in named[i + 1 :] if role.startswith("--") else ():
            if (os.path.samefile(path, second) if os.path.exists(path) and os.path.exists(second)
                    else Path(path).resolve() == Path(second).resolve()):
                raise StructuralError(f"{role} and {other} name one file: {path}")


def _parse_subfamily(arg: str | None, net: ClusterNetwork) -> frozenset[str]:
    if arg is None:
        return frozenset(net.metric_ids)
    return subfamily(net, {x for x in arg.split(",") if x})


def cmd_network(args) -> str:
    net = _network_from_paths(args.matrices)
    return to_dot(net) if args.format == "dot" else to_json(net)


def cmd_complex(args) -> str:
    _bind("simplicial")
    net = _network_from_paths(args.matrices)
    r = _parse_subfamily(args.r, net)
    cx = build_complex(net, r)
    if args.format == "dot":
        return skeleton_dot(cx)
    dim = network_dimension(net, r)
    return _dump(complex_json_dict(cx, dim, check_compatibility(net)))


def cmd_dimension(args) -> str:
    _bind("simplicial")
    net = _network_from_paths(args.matrices)
    r = _parse_subfamily(args.r, net)
    return _dump(dimension_json_dict(network_dimension(net, r), check_compatibility(net)))


def cmd_padic_verify(args) -> str:
    if args.precision < 1:
        raise StructuralError(f"precision must be at least 1, got {args.precision}")
    if args.window < 0:
        raise StructuralError(f"window must be at least 0, got {args.window}")
    _bind("padic")
    q = default_weights(args.p, args.d) if args.q is None else args.q.split(",")
    report = verify_correspondence(args.p, args.d, q)
    report["parameters"]["precision"] = args.precision
    if args.window:
        _bind("simplicial")
        net = ball_network(args.p, args.d, q, window=args.window)
        report["sampled_network"] = {
            "window": args.window,
            "points": len(net.labels),
            "metrics": len(net.metric_ids),
            "dimension": network_dimension(net, frozenset(net.metric_ids)).overall,
        }
    return _dump(report)


def cmd_phylo_sweep(args) -> str:
    _bind("phylo")
    markers = load_marker_bundle(args.manifest)
    args.marker_files = markers.paths
    _refuse_overwrite(args)
    grid = load_sweep_spec(args.sweep_spec, len(markers))
    net = sweep(markers, grid)
    return to_dot(net) if args.format == "dot" else to_json(net)


def _add_common(sub: argparse.ArgumentParser, formats: bool = True) -> None:
    if formats:
        sub.add_argument("--format", choices=("json", "dot"), default="json")
    sub.add_argument("--out", default=None, help="output path (default stdout)")
    sub.add_argument("--emit-meta", default=None, help="write run metadata JSON here")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusternets",
        description="Chain-distance dendrograms, cluster networks, and "
        "p-adic ball-chain verification (exact rational arithmetic).",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    s = subs.add_parser("cluster", help="dendrogram of one distance matrix")
    s.add_argument("matrices", nargs=1, metavar="matrix", help="CSV path or - for stdin")
    _add_common(s)
    s.set_defaults(func=cmd_network)

    s = subs.add_parser("network", help="fuse dendrograms of several matrices")
    s.add_argument("matrices", nargs="+", help="CSV paths")
    _add_common(s)
    s.set_defaults(func=cmd_network)

    s = subs.add_parser("complex", help="simplicial complex of a metric family")
    s.add_argument("matrices", nargs="+", help="CSV paths")
    s.add_argument("--r", default=None, help="comma-separated metric ids (default all)")
    _add_common(s)
    s.set_defaults(func=cmd_complex)

    s = subs.add_parser("dimension", help="dimension report of a metric family")
    s.add_argument("matrices", nargs="+", help="CSV paths")
    s.add_argument("--r", default=None, help="comma-separated metric ids (default all)")
    _add_common(s, formats=False)
    s.set_defaults(func=cmd_dimension)

    s = subs.add_parser(
        "padic-verify", help="chain/norm correspondence check at small (p, d)"
    )
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--d", type=int, required=True)
    s.add_argument("--q", default=None, help="comma-separated weights, e.g. 3/5,4/5")
    s.add_argument("--precision", type=int, default=8, help="echoed in the report")
    s.add_argument(
        "--window",
        type=int,
        default=0,
        help="also sample (Z/p^window)^d and report the reordering-family "
        "network dimension (0 = skip)",
    )
    _add_common(s, formats=False)
    s.set_defaults(func=cmd_padic_verify)

    s = subs.add_parser("phylo-sweep", help="weight sweep over a marker bundle")
    s.add_argument("manifest", help="marker bundle manifest JSON")
    s.add_argument("sweep_spec", help="sweep specification JSON")
    _add_common(s)
    s.set_defaults(func=cmd_phylo_sweep)

    return parser


def _error_json(code: int, kind: str, message: str) -> None:
    sys.stderr.write(
        json.dumps({"error": {"code": code, "kind": kind, "message": message}}) + "\n"
    )


def main(argv: list[str] | None = None) -> int:
    """Run one subcommand. Its payload is complete, and the --emit-meta file
    written, before the payload's first byte goes out, so an exit 2 leaves
    no payload behind. A payload that cannot be written takes the meta file
    with it, so a meta file exists only beside a run that exits 0."""
    argv = sys.argv[1:] if argv is None else list(argv)
    args = build_parser().parse_args(argv)
    try:
        if args.emit_meta == "-":
            raise StructuralError("--emit-meta needs a file path; - is not one")
        _refuse_overwrite(args)
        payload = args.func(args)
        if args.emit_meta:
            meta = {"tool": "clusternets", "argv": argv, "unix_time": time.time()}
            _write_file(args.emit_meta, json.dumps(meta, indent=2) + "\n")
        try:
            if args.out is None or args.out == "-":
                sys.stdout.write(payload)
            else:
                _write_file(args.out, payload)
        except Exception:
            if args.emit_meta:
                Path(args.emit_meta).unlink(missing_ok=True)
            raise
        return 0
    except StructuralError as exc:
        _error_json(2, "input", str(exc))
        return 2
    except Exception as exc:  # a fault in the program, never bad input
        _error_json(3, "internal", f"{type(exc).__name__}: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
