"""Command-line surface.

Subcommands: eval (single function evaluation), dist (coordinate distance
between structure files or generator specs), embed (sequence-space
coordinates as CSV), bounds (dilatation bound reports), verify
(inequality suites), example (write built-in families / the
chained-pants model to files).

Values print with 15 significant digits; CSV carries full precision.
Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 domain or assumption error.

`eval` and `bounds` reach their functions through the package's lazy
namespace, which loads a function's module on first use, and the other
commands import their modules in their own body, so each command loads
only the modules it calls, and no scalar command loads numpy.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys

import fnteich

from .errors import DomainError, UsageError

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def fmt(v: float) -> str:
    return f"{v:.15g}"


def _parse_float(text: str) -> float:
    if text == "inf":
        return math.inf
    try:
        return float(text)
    except ValueError:
        raise UsageError(f"not a number: {text!r}") from None


def _as_index(value: float, what: str) -> int:
    if not float(value).is_integer():
        raise UsageError(f"{what} must be an integer, got {value}")
    return int(value)


# ---------------------------------------------------------------------
# eval


def _eval_dist(args):
    z = fnteich.hp(args[0], args[1])
    w = fnteich.hp(args[2], args[3])
    return [("", fnteich.hyp_distance(z, w))]


def _eval_hexagon_sides(args):
    b = fnteich.hexagon_sides(fnteich.HexagonAlternatingSides(*args))
    return [("", v) for v in b]


def _eval_hexagon_alt(args):
    hexa = fnteich.HexagonAlternatingSides(args[0], args[1], args[2])
    return [("", fnteich.hexagon_altitude(
        hexa, _as_index(args[3], "side index")))]


def _eval_quad_mod(args):
    return [("", fnteich.quad_modulus(fnteich.IdealQuadrilateral(*args)))]


def _eval_affine(args):
    k, mu = fnteich.affine_dilatation(args[0])
    return [("K", k), ("mu", mu)]


def _eval_twist_k(args):
    k, mu = fnteich.twist_dilatation(fnteich.TwistScenario(args[0], args[1]))
    return [("K", k), ("mu", mu)]


def _eval_arc81(args):
    n = _as_index(args[0], "n")
    res = fnteich.pants1_arc_length(n)
    return [("cosh_sq", res.cosh_sq), ("l", res.length),
            ("cap3", res.bound_3coth), ("cap4", res.bound_4coth)]


def _unary(name):
    return lambda a: [("", getattr(fnteich, name)(a[0]))]


EVAL_FUNCTIONS = {
    # name: (arity, handler taking list of floats)
    "B": (1, _unary("collar_margin")),
    "omega": (1, _unary("collar_halfwidth")),
    "theta": (1, _unary("angle_of_distance")),
    "dist": (4, _eval_dist),
    "hexagon-sides": (3, _eval_hexagon_sides),
    "hexagon-alt": (4, _eval_hexagon_alt),
    "K": (1, _unary("elliptic_k")),
    "mu": (1, _unary("grotzsch_modulus")),
    "mu-lb": (1, _unary("grotzsch_lower_bound")),
    "h": (1, _unary("twist_min_dilatation")),
    "hprime": (1, _unary("twist_min_dilatation_derivative")),
    "quad-mod": (4, _eval_quad_mod),
    "cyl-interval": (1, _unary("cylinder_interval")),
    "affine-k": (1, _eval_affine),
    "twist-k": (2, _eval_twist_k),
    "L": (1, _unary("collar_cylinder_halflength")),
    "seam-angle": (1, _unary("seam_angle_bound")),
    "arc81": (1, _eval_arc81),
}


def cmd_eval(ns) -> int:
    name = ns.function
    if name not in EVAL_FUNCTIONS:
        raise UsageError(f"unknown function {name!r}; expected one of "
                         f"{sorted(EVAL_FUNCTIONS)}")
    arity, handler = EVAL_FUNCTIONS[name]
    if len(ns.args) != arity:
        raise UsageError(f"{name} takes {arity} argument(s), got "
                         f"{len(ns.args)}")
    values = handler([_parse_float(a) for a in ns.args])
    parts = [fmt(v) if label == "" else f"{label}={fmt(v)}"
             for label, v in values]
    print(" ".join(parts))
    return EXIT_OK


# ---------------------------------------------------------------------
# dist / embed


METRIC_KINDS = {"fn": "fn", "raw-twist": "raw_twist",
                "raw-length": "raw_length"}


def _load_window(path, window: int | None):
    """The StructureWindow of a structure file, cut to `window` curves
    when one is given, or of a generator spec, which needs one."""
    from . import fnspace as fns

    source = fns.parse_structure_file(path)
    if isinstance(source, fns.StructureWindow):
        return source if window is None else source.truncated(window)
    if window is None:
        raise UsageError(f"{path}: a generator spec needs --window")
    return fns.StructureWindow.from_generator(source, window)


def cmd_dist(ns) -> int:
    from . import fnspace as fns

    x = _load_window(ns.file_a, ns.window)
    y = _load_window(ns.file_b, ns.window)
    kind = METRIC_KINDS[ns.metric]
    if kind == "fn":
        res = fns.fn_distance(x, y)
    else:
        res = fns.fn_distance_variant(x, y, kind)
    print(f"distance {fmt(res.value)}")
    print(f"exactness {res.exactness}")
    print(f"attained_index {res.attained_index}")
    return EXIT_OK


def cmd_embed(ns) -> int:
    from . import fnspace as fns

    image = fns.to_linf(_load_window(ns.file, ns.window))
    out = open(ns.csv, "w", newline="") if ns.csv else sys.stdout
    try:
        writer = csv.writer(out)
        writer.writerow(("index", "log_length", "length_times_twist"))
        for i, (ll, lt, boundary) in enumerate(
                zip(image.log_length.tolist(),
                    image.length_times_twist.tolist(),
                    image.boundary.tolist()), start=1):
            writer.writerow((i, repr(ll), "" if boundary else repr(lt)))
    finally:
        if ns.csv:
            out.close()
    return EXIT_OK


# ---------------------------------------------------------------------
# bounds


def cmd_bounds(ns) -> int:
    assume = fnteich.BoundAssumptions(cap=ns.cap, bishop_c=ns.bishop_c)
    combined = fnteich.combined_qc_upper(ns.d_fn, assume)
    twist_only = fnteich.twist_change_bound(ns.d_fn, assume)
    info = fnteich.cylinder_halflength_report(ns.cap)
    # every bound is computed before the first line is printed, so a
    # rejected input prints nothing on stdout
    rev = (None if ns.logk is None
           else fnteich.fn_from_qc_upper(ns.logk, assume))
    print(f"combined_upper {fmt(combined.upper)}")
    print(f"twist_upper {fmt(twist_only.upper)}")
    print(f"length_route_coefficient {fmt(3.0 * ns.bishop_c)}")
    print(f"inverse_constant {fmt(2.0 + 3.0 * ns.bishop_c)}")
    print(f"L {fmt(info.value)}")
    print(f"L_printed_variant {fmt(info.printed_closed_form)}")
    print(f"note {info.note}")
    if rev is not None:
        print(f"fn_from_qc_upper {fmt(rev.upper)}")
    return EXIT_OK


# ---------------------------------------------------------------------
# verify


def cmd_verify(ns) -> int:
    from .suites import SUITES, GridSpec, check_grid_applies, run_suite

    names = list(SUITES) if ns.suite == "all" else [ns.suite]
    if ns.suite != "all" and ns.suite not in SUITES:
        raise UsageError(f"unknown suite {ns.suite!r}; expected one of "
                         f"{sorted(SUITES)} or 'all'")
    grid = GridSpec.parse(ns.grid) if ns.grid else None
    check_grid_applies(names, grid)
    csv_file = None
    writer = None
    if ns.csv:
        csv_file = open(ns.csv, "w", newline="")
        writer = csv.writer(csv_file)
        writer.writerow(("check", "inputs", "lhs", "rhs", "slack"))
    try:
        ok = True
        for name in names:
            result = run_suite(name, grid, writer)
            sys.stdout.write(result.render())
            ok = ok and result.passed
    finally:
        if csv_file:
            csv_file.close()
    return EXIT_OK if ok else EXIT_VERIFY_FAIL


# ---------------------------------------------------------------------
# example


def cmd_example(ns) -> int:
    import os

    from . import families as fam
    from . import fnspace as fns

    outdir = ns.out
    os.makedirs(outdir, exist_ok=True)
    written = []

    def write(name, text):
        path = os.path.join(outdir, name)
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
        written.append(path)

    if ns.kind in ("fn1", "fn2"):
        window = ns.window if ns.window is not None else ns.n
        x, y = fam.make_fn_pair(ns.kind, ns.n, window)
        stem = f"{ns.kind}_n{ns.n}_w{window}"
        write(f"{stem}_x.fnstruct", fns.format_structure_file(x))
        write(f"{stem}_y.fnstruct", fns.format_structure_file(y))
        write(f"{stem}_x.generator", x.generator.spec_line() + "\n")
        write(f"{stem}_y.generator", y.generator.spec_line() + "\n")
    elif ns.kind == "pants1":
        model = fam.pants1_graph(ns.n)
        write(f"pants1_n{ns.n}_graph_original.txt",
              fam.format_pants_graph(model.graph, "chained-pants original"))
        write(f"pants1_n{ns.n}_graph_recut.txt",
              fam.format_pants_graph(model.recut_graph,
                                     "chained-pants recut"))
        write(f"pants1_n{ns.n}_lengths_original.fnstruct",
              fns.format_structure_file(model.original_window()))
        write(f"pants1_n{ns.n}_lengths_recut.fnstruct",
              fns.format_structure_file(model.recut_window()))
    else:
        raise UsageError(f"unknown example kind {ns.kind!r}")
    for path in written:
        print(f"wrote {path}")
    return EXIT_OK


# ---------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fnteich",
        description=("Hyperbolic-surface numerics in Fenchel-Nielsen "
                     "coordinates: function evaluation, coordinate "
                     "distances, dilatation bounds, and machine "
                     "verification of the inequalities behind them."))
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate a named function")
    p.add_argument("function")
    p.add_argument("args", nargs="*")
    p.set_defaults(run=cmd_eval)

    p = sub.add_parser("dist",
                       help="coordinate distance between structure files")
    p.add_argument("file_a")
    p.add_argument("file_b")
    p.add_argument("--metric", choices=sorted(METRIC_KINDS), default="fn")
    p.add_argument("--window", type=int, default=None)
    p.set_defaults(run=cmd_dist)

    p = sub.add_parser("embed",
                       help="sequence-space coordinates of a structure")
    p.add_argument("file")
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--csv", default=None)
    p.set_defaults(run=cmd_embed)

    p = sub.add_parser("bounds", help="dilatation bound report")
    p.add_argument("d_fn", type=float)
    p.add_argument("--cap", type=float, required=True,
                   help="length cap N")
    p.add_argument("--bishop-c", type=float, required=True,
                   help="pants-map constant C(N)")
    p.add_argument("--logk", type=float, default=None)
    p.set_defaults(run=cmd_bounds)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite",
                   help="a suite name (an unknown name lists them) or 'all'")
    p.add_argument("--grid", default=None,
                   help="lo:hi:steps override for the suite's main axes")
    p.add_argument("--csv", default=None)
    p.set_defaults(run=cmd_verify)

    p = sub.add_parser("example", help="write built-in example files")
    p.add_argument("kind", choices=("fn1", "fn2", "pants1"))
    p.add_argument("n", type=int)
    p.add_argument("--window", type=int, default=None)
    p.add_argument("--out", default=".")
    p.set_defaults(run=cmd_example)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
        return ns.run(ns)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OverflowError:
        print("error: value out of floating-point range", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
