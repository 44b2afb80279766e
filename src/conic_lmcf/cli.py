"""Command-line driver for the conic-lmcf toolkit.

Every subcommand writes its artifacts into ``--outdir`` together with a
``report.json`` capturing the resolved inputs, the headline outputs, library
versions and wall time.  Artifacts are deterministic for fixed inputs and
seed: JSON is dumped with sorted keys, CSV floats use repr-faithful ``%.17g``
formatting, and all text files are UTF-8 with ``\\n`` line endings.  The one
intentionally non-reproducible field is ``wall_time_s`` inside report.json.

Exit codes: 0 on success, 2 for invalid inputs (bad flags, malformed config,
out-of-contract parameters), 1 for runtime numerical failures.
"""

from __future__ import annotations

import argparse
import ast
import json
import math
import numbers
import sys
import time
from pathlib import Path

from . import __version__
from .errors import NumericalError, ValidationError, check_count

# numpy and the numeric layers are imported where used: a command loads only what it runs


# ----------------------------------------------------------------------
# artifact writers


def _fmt(value) -> str:
    # float (numpy's float64 too) and int (bool too) first: an ABC isinstance costs
    # about 0.5 µs, and numpy registers its other scalars as numbers.Integral and .Real
    if isinstance(value, float):
        return format(float(value), ".17g")
    if isinstance(value, int):
        return str(int(value))
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return format(float(value), ".17g")
    text = str(value)
    # RFC 4180 quoting, so csv readers keep a field with a comma whole
    return '"' + text.replace('"', '""') + '"' if "," in text or '"' in text else text


def write_csv(path: Path, header, rows) -> None:
    """UTF-8 CSV with \\n line endings and full-precision floats."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _fields(values) -> list:
    """``_fmt``'s text of each number in ``values``, from one ``%`` call.

    ``values`` is a numpy array or a sequence of ints (bools too), written
    with ``%d``, and floats (numpy's float64 too), written with ``%.17g``.
    """
    if hasattr(values, "tolist"):
        values = values.tolist()
    specs = ["%.17g" if isinstance(v, float) else "%d" for v in values]
    # neither conversion writes a newline, so it parts the fields
    return ("\n".join(specs) % tuple(values)).split("\n") if specs else []


# rows per "%" call and per write in write_frames and write_columns, so a
# large table never becomes one string
_CHUNK_ROWS = 4096


def _key_chunks(keys) -> list:
    """The key field texts in lists of up to ``_CHUNK_ROWS``, ready for a row template.

    A chunk's template is its keys joined by the row's tail (:func:`_write_rows`),
    so a key's ``%`` is doubled to come back as it is.
    """
    if "%" in "".join(keys):
        keys = [key.replace("%", "%%") for key in keys]
    return [keys[a:a + _CHUNK_ROWS] for a in range(0, len(keys), _CHUNK_ROWS)]


def _write_rows(fh, chunks, columns, lead: str, sep: str) -> None:
    """Write the rows ``lead + key + (sep + field of each column)`` of one key chunking.

    A column that is a list of ``str`` holds field texts, written as they
    are; any other column (a float array, a list of numbers) is written with
    ``%.17g``.  Each chunk of up to ``_CHUNK_ROWS`` rows is its keys joined
    by ``lead`` and the row tail, filled by one ``%`` and written by one call.
    A column of another length than the keys raises ``ValueError``.
    """
    n = sum(map(len, chunks))
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns of lengths {[len(c) for c in columns]}, not {n}")
    lists = [c.tolist() if hasattr(c, "tolist") else c for c in columns]
    tail = "".join([sep + ("%s" if c and isinstance(c[0], str) else "%.17g")
                    for c in lists]) + "\n"
    if len(lists) == 1:
        values = lists[0]
    else:
        values = [None] * (n * len(lists))
        for j, c in enumerate(lists):
            values[j::len(lists)] = c
    step = _CHUNK_ROWS * len(lists)
    for i, chunk in enumerate(chunks):
        fh.write((lead + (tail + lead).join(chunk) + tail) % tuple(values[i * step:(i + 1) * step]))


def write_frames(path: Path, header, keys, frames) -> None:
    """write_csv's bytes for a long table written one frame at a time.

    ``keys`` are the key column's field texts (``_fmt``'s, or :func:`_fields`
    of numbers).  ``frames`` yields ``(t, columns)`` with numeric ``t``; each
    column is as long as ``keys`` (see :func:`_write_rows`), and the frame's
    rows are ``(t, keys[j], columns[0][j], ...)``.  The keys are chunked once
    per table and ``t`` is formatted once per frame.
    """
    chunks = _key_chunks(keys)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for t, columns in frames:
            _write_rows(fh, chunks, columns, _fmt(t) + ",", ",")


def write_json(path: Path, payload) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        json.dump(_json_values(payload), fh, sort_keys=True, indent=2, allow_nan=False)
        fh.write("\n")


def _json_values(value):
    """``value`` with numpy scalars and arrays as Python ones, tuples as lists, and each
    non-finite float as ``None``: JSON (RFC 8259) has no NaN or infinity, so it is ``null``."""
    if isinstance(value, dict):
        return {k: _json_values(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_json_values(v) for v in value]
    if hasattr(value, "tolist"):  # a numpy array or scalar
        return _json_values(value.tolist())
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def write_columns(path: Path, keys, *columns) -> None:
    """Whitespace-separated columns (gnuplot-ready): fields two spaces apart.

    ``keys`` are the first column's field texts (:func:`_fields`); every other
    column is written as :func:`_write_rows` says, as in :func:`write_frames`.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        _write_rows(fh, _key_chunks(keys), columns, "", "  ")


def write_report(outdir: Path, command: str, inputs: dict, outputs: dict, t0: float) -> None:
    """Write ``report.json``; ``schemas/report.schema.json`` states its shape, and the tests
    validate every golden run's report against it."""
    report = {
        "command": command,
        "inputs": inputs,
        "outputs": outputs,
        "versions": {
            "python": ".".join(str(v) for v in sys.version_info[:3]),
            "numpy": __import__("numpy").__version__,
            "scipy": __import__("scipy").__version__,
            "conic-lmcf": __version__,
        },
        "wall_time_s": time.perf_counter() - t0,
    }
    write_json(outdir / "report.json", report)


# ----------------------------------------------------------------------
# shared argument plumbing


def _preload_config(argv) -> tuple[str | None, dict]:
    """The ``--config`` path in raw argv and the defaults it holds, before the real parse.

    Only ``--config PATH`` and ``--config=PATH`` before any ``--`` are read;
    ``main`` refuses an abbreviation that the parse takes for ``--config``.
    """
    path = None
    for i, token in enumerate(argv):
        if token == "--":  # the parse reads what follows as positionals
            break
        if token == "--config" and i + 1 < len(argv):
            path = argv[i + 1]
        elif token.startswith("--config="):
            path = token.split("=", 1)[1]
    if path is None:
        return None, {}
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ValidationError(f"cannot read config file {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer over Python's digit limit
        raise ValidationError(f"config file {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ValidationError("config file must hold a JSON object of flag defaults")
    return path, cfg


class _Arg:
    """add_argument wrapper that lets a config file supply defaults.

    Explicit command-line flags always win over config values, which win
    over built-in defaults.  A config value is read as the command line
    reads the flag's text, and one the flag cannot take raises
    :class:`ValidationError` naming the key and ``command``.
    """

    def __init__(self, parser, config: dict, command: str):
        self.parser = parser
        self.config = config
        self.command = command

    def add(self, name: str, **kwargs):
        dest = name.lstrip("-").replace("-", "_")
        if dest in self.config:
            value = self.config[dest]
            typ = kwargs.get("type", str)
            try:
                if kwargs.get("action") == "store_true":
                    if not isinstance(value, bool):
                        raise ValueError("expected true or false")
                    default = value
                elif kwargs.get("nargs") == "+":
                    seq = value if isinstance(value, list) else [value]
                    default = [_config_scalar(v, typ) for v in seq]
                else:
                    if isinstance(value, list) and len(value) == 1:
                        value = value[0]
                    default = (None if value is None and kwargs.get("default") is None
                               else _config_scalar(value, typ, kwargs.get("choices")))
            except (TypeError, ValueError) as exc:
                raise ValidationError(f"config key {dest!r} = {json.dumps(value)} is not a value "
                                      f"{self.command} {name} can take: {exc}") from exc
            kwargs["default"] = default
            kwargs.pop("required", None)
        return self.parser.add_argument(name, **kwargs)


def _config_scalar(value, typ, choices=None):
    """A JSON scalar read as the flag's command-line text; bools, lists and null are not."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise TypeError(f"expected {typ.__name__}")
    converted = typ(str(value))
    if choices is not None and converted not in choices:
        raise ValueError(f"expected one of {choices}")
    return converted


def _parse_metric(text: str):
    import numpy as np
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
        return np.asarray(rows, dtype=float)
    except ValueError as exc:
        raise ValidationError(f"malformed --metric {text!r}") from exc


def build_link(args):
    """The link that ``--link`` names, refusing a flag of another link or a ``--dim`` unlike its own.

    An hl-torus or mesh link has dimension 2, a ``--metric`` torus the metric's size.
    A command without ``--dim`` passes ``dim=None``.
    """
    import numpy as np
    from .links import FlatTorus, MeshLink, RoundSphere
    for flag, value, owner in (("--metric", args.metric, "torus"),
                               ("--mesh-file", args.mesh_file, "mesh")):
        if value is not None and args.link != owner:
            raise ValidationError(f"{flag} is for --link {owner}, not --link {args.link}")
    if args.link == "sphere":
        return RoundSphere(args.dim)
    if args.link == "torus" and args.metric is None:
        # FlatTorus rejects the 0 x 0 metric of a --dim below 1
        dim = max(args.dim, 0)
        check_count(dim * dim, f"entries of the {dim}x{dim} torus metric", "lower --dim")
        return FlatTorus(np.eye(dim))
    if args.link == "torus":
        link = FlatTorus(_parse_metric(args.metric))
    elif args.link == "mesh":
        if args.mesh_file is None:
            raise ValidationError("--link mesh requires --mesh-file")
        link = MeshLink.from_off(args.mesh_file)
    else:  # hl-torus, the one link that loads the cone catalog (--link takes no other choice)
        from .cones import harvey_lawson_torus
        link = harvey_lawson_torus().link
    if args.dim not in (None, link.dim):
        given = "the --metric torus" if args.metric is not None else f"--link {args.link}"
        raise ValidationError(f"--dim {args.dim} is not {link.dim}, the dimension of {given}: "
                              f"drop --dim or make it agree")
    return link


def _check_cone_link(link, flag: str) -> None:
    """Refuse a link below dimension 2, whose cone is below m = 3, naming ``flag``."""
    if link.dim < 2:
        raise ValidationError(f"{flag} gives a {link.dim}-dimensional link, but exponents need "
                              f"a cone of dimension m >= 3, over a link of dimension >= 2")


def _build_cone(args):
    from .cones import catalog_cone, cone_from_json
    if args.cone_json:
        return cone_from_json(args.cone_json)
    return catalog_cone(args.cone)


# ----------------------------------------------------------------------
# forcing / initial-condition parsing


def compile_expression(text: str, variables, flag: str):
    """Compile ``text`` into a function of ``variables``; errors name ``flag``.

    Only number literals, ``+ - * / **`` (``^`` is ``**``), unary ``±``,
    ``sin(x)``, ``cos(x)``, ``pi`` and the variables pass the check, and only
    the checked tree is compiled.  Literals are floats, so powers overflow
    instead of building huge integers.  A literal exponent 2 is a product:
    exactly rounded, where a float's ``x**2`` calls libm ``pow``.

    The function evaluates under ``np.errstate(all="ignore")``: callers check
    its values for finiteness, so a numpy warning would only repeat that
    report.  Its ``reads`` attribute is the frozenset of ``variables`` the
    expression uses; a constant reads none.
    """
    import numpy as np
    allowed = "allowed: numbers, + - * / ^ **, sin(), cos(), pi, " + ", ".join(variables)
    at = {"lineno": 1, "col_offset": 0}  # the location compile() asks of every new node
    reads = set()

    def checked(node):
        match node:
            case ast.Constant(value=int() | float() as value) if not isinstance(value, bool):
                return ast.Constant(float(value), **at)
            case ast.Name(id=name) if name in variables:
                reads.add(name)
                return node
            case ast.Name(id="pi"):
                return node
            case ast.Call(ast.Name(id="sin" | "cos") as func, [arg], []):
                return ast.Call(func, [checked(arg)], [], **at)
            case ast.BinOp(left, ast.Pow(), ast.Constant(value=2)):
                return ast.Call(ast.Name("square", ast.Load(), **at), [checked(left)], [], **at)
            case ast.BinOp(left, ast.Add() | ast.Sub() | ast.Mult() | ast.Div() | ast.Pow() as op,
                           right):
                return ast.BinOp(checked(left), op, checked(right), **at)
            case ast.UnaryOp(ast.UAdd() | ast.USub() as op, operand):
                return ast.UnaryOp(op, checked(operand), **at)
        raise ValueError(f"{ast.unparse(node)!r} is outside the expression grammar")

    try:
        lam = ast.parse(f"lambda {', '.join(variables)}: 0", mode="eval")
        lam.body.body = checked(ast.parse(text.strip().replace("^", "**"), mode="eval").body)
        code = compile(lam, flag, "eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise ValidationError(f"cannot parse {flag} {text!r}: {exc}; {allowed}") from exc
    body = eval(code, {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "pi": math.pi,
                       "square": lambda x: x * x})

    def f(*values):
        with np.errstate(all="ignore"):
            return body(*values)

    f.reads = frozenset(reads)
    return f


def parse_forcing(expr: str | None, csv_path: str | None):
    """Build f(t, r) from an expression in ``t`` and ``r`` or a (t, r, f) CSV table."""
    if expr and csv_path:
        raise ValidationError("give either --forcing or --forcing-csv, not both")
    if csv_path:
        return _forcing_from_csv(csv_path)
    if not expr or expr.strip() in ("0", "none"):
        return None
    return compile_expression(expr, ("t", "r"), "--forcing")


def _bracket(nodes, x):
    """Cell ``(lo, hi)`` of sorted ``nodes`` holding ``x``, and ``x``'s weight ``w`` on ``hi``.

    ``x`` lies within ``[nodes[0], nodes[-1]]``, and the last node falls in
    the last cell.  A one-node axis gives ``lo = hi = 0`` and ``w = 0``.
    """
    import numpy as np
    if nodes.size == 1:
        lo = np.zeros(np.shape(x), dtype=int)
        return lo, lo, np.zeros(np.shape(x))
    lo = np.clip(np.searchsorted(nodes, x, side="right") - 1, 0, nodes.size - 2)
    return lo, lo + 1, (x - nodes[lo]) / (nodes[lo + 1] - nodes[lo])


def _forcing_from_csv(path: str):
    """f(t, r) interpolated in a (t, r, f) table; ``reads`` omits ``t`` for one time row."""
    import numpy as np
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"cannot read forcing table {path}: {exc}") from exc
    if not np.all(np.isfinite(data)):
        raise ValidationError(f"forcing table {path} holds a non-finite entry")
    if data.shape[1] != 3:
        raise ValidationError("forcing CSV needs exactly three columns: t,r,f")
    ts = np.unique(data[:, 0])
    rs = np.unique(data[:, 1])
    if ts.size * rs.size != data.shape[0]:
        raise ValidationError("forcing CSV must tabulate a full (t, r) product grid")
    order = np.lexsort((data[:, 1], data[:, 0]))
    grid_f = data[order, 2].reshape(ts.size, rs.size)

    def f(t, r):
        # bilinear on the cell holding the clipped (t, r), with scipy's
        # RegularGridInterpolator weights and summation order
        i0, i1, y0 = _bracket(ts, np.clip(t, ts[0], ts[-1]))
        j0, j1, y1 = _bracket(rs, np.clip(np.asarray(r, dtype=float), rs[0], rs[-1]))
        return (grid_f[i0, j0] * (1 - y0) * (1 - y1) + grid_f[i0, j1] * (1 - y0) * y1
                + grid_f[i1, j0] * y0 * (1 - y1) + grid_f[i1, j1] * y0 * y1)

    # with one time row the t weight y0 is 0 whatever t is, so f's bits do not depend on t
    f.reads = frozenset({"r"} if ts.size == 1 else {"t", "r"})
    return f


def parse_initial_condition(expr: str, m: int, n: int):
    """Catalog name or an expression in x1..xm (see :func:`compile_expression`).

    Only the named profile, or the expression, is evaluated on the grid.
    """
    import numpy as np
    from .flow import INITIAL_CONDITIONS, grid_coordinates
    xs = grid_coordinates(m, n)
    if expr in INITIAL_CONDITIONS:
        return INITIAL_CONDITIONS[expr](xs)
    f = compile_expression(expr, [f"x{i + 1}" for i in range(m)], "--ic")
    try:
        values = np.asarray(f(*xs), dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("a value on the grid is not finite")
    except (ArithmeticError, TypeError, ValueError) as exc:
        raise ValidationError(f"cannot evaluate --ic {expr!r}: {exc}") from exc
    return np.broadcast_to(values, xs[0].shape).copy()


# ----------------------------------------------------------------------
# subcommand handlers: each writes its artifacts into ``out`` and returns
# the report's outputs

def cmd_spectrum(args, out: Path) -> dict:
    from .links import MeshLink
    if args.link == "mesh" and args.count < 1:
        raise ValidationError(f"--count must be a positive integer, got {args.count}")
    link = build_link(args)
    if isinstance(link, MeshLink):
        entries = link.spectrum(count=args.count)
    else:
        entries = link.spectrum(args.lmax)
    rows = [(e.lam, e.multiplicity, e.basis_tag) for e in entries]
    write_csv(out / "spectrum.csv", ["lambda", "multiplicity", "basis_tag"], rows)
    for e in entries:
        print(f"lambda={e.lam:.12g}  multiplicity={e.multiplicity}  {e.basis_tag}")
    return {
        "files": ["spectrum.csv"],
        "n_eigenvalues": len(entries),
        "total_multiplicity": int(sum(e.multiplicity for e in entries)),
    }


def cmd_exponents(args, out: Path) -> dict:
    from .exponents import ExponentTable
    link = build_link(args)
    _check_cone_link(link, "--dim")
    if args.m != link.dim + 1:
        raise ValidationError(f"--m {args.m} is not {link.dim + 1}, the dimension of a cone over "
                              f"the {link.dim}-dimensional link: make --m and --dim agree")
    if args.alpha_max < 0:
        raise ValidationError(f"--alpha-max must be >= 0, got {args.alpha_max:g}")
    entries = ExponentTable.for_link(link).entries(args.alpha_max)
    rows = [(e.lambda_source, e.multiplicity, e.alpha, 2.0 - args.m - e.alpha)
            for e in entries if e.alpha >= 0]
    write_csv(out / "exponents.csv",
              ["lambda", "multiplicity", "alpha_plus", "alpha_minus"], rows)
    for lam, mult, hi, lo in rows:
        print(f"lambda={lam:.12g}  mult={mult}  alpha+={hi:.12g}  alpha-={lo:.12g}")
    return {
        "files": ["exponents.csv"],
        "window": [2.0 - args.m - args.alpha_max, args.alpha_max],
        "n_exponents": len(entries),
    }


def cmd_stability(args, out: Path) -> dict:
    import dataclasses
    from .cones import stability_index
    cone = _build_cone(args)
    report = stability_index(cone)
    counts = report.harmonic_counts
    print(f"stability index: {report.index}")
    print(f"harmonic counts (orders 0/1/2): {counts[0]}/{counts[1]}/{counts[2]}")
    print(f"moment-map span: translations {report.rank_translations}/"
          f"{report.expected_rank_translations}, su({cone.m}) {report.rank_su}, "
          f"so dim G = {report.dim_G}")
    for note in report.warnings:
        print(f"WARNING: {note}")
    payload = dataclasses.asdict(report)
    write_json(out / "stability.json", payload)
    return {"files": ["stability.json"], **payload}


def cmd_fredholm(args, out: Path) -> dict:
    from .exponents import ExponentTable, fredholm_index
    cone = _build_cone(args)
    gammas = list(args.gamma)
    table = ExponentTable.for_link(cone.link)
    index = fredholm_index([table] * len(gammas), gammas,
                           with_asymptotics=args.with_asymptotics)
    print(f"fredholm index: {index}")
    payload = {
        "index": index,
        "gammas": gammas,
        "with_asymptotics": bool(args.with_asymptotics),
        "counts": [table.count_M(g) for g in gammas],
    }
    write_json(out / "fredholm.json", payload)
    return {"files": ["fredholm.json"], **payload}


def _solve_modes(lams, m, args, forcing, store_every=0):
    from .radial import LaplaceTypeSpec, RadialGrid, solve_modes
    if len(set(lams)) < len(lams):
        raise ValidationError(f"--lam lists an eigenvalue twice: {lams}")
    outer = None if args.outer is None else lambda t, value=args.outer: value
    grid = RadialGrid(R=args.radius, n_cells=args.n, q=args.q)
    specs = [LaplaceTypeSpec(lam=lam, m=m) for lam in lams]
    dt = args.dt if args.dt is not None else args.T / 400.0
    return solve_modes(specs, grid, T=args.T, dt=dt, forcing=forcing,
                       outer_bc=outer, store_every=store_every)


def cmd_heat(args, out: Path) -> dict:
    forcing = parse_forcing(args.forcing, args.forcing_csv)
    lams = list(args.lam)
    sols = _solve_modes(lams, args.m, args, forcing, args.store_every)
    files, sup_final = [], {}
    # the modes share one grid and one first frame, the zero state; each mode's final
    # frame ends its CSV and is its profile
    radii, zero = _fields(sols[0].grid.nodes), _fields(sols[0].values[0])
    for lam, sol in zip(lams, sols):
        tag = _fmt(float(lam))
        final = _fields(sol.final())
        times = sol.times.tolist()
        frames = ([(times[0], (zero,))] + [(t, (u,)) for t, u in zip(times[1:-1], sol.values[1:])]
                  + [(times[-1], (final,))])
        write_frames(out / f"mode_{tag}.csv", ["t", "r", "u"], radii, frames)
        write_columns(out / f"profile_{tag}.dat", radii, final)
        files += [f"mode_{tag}.csv", f"profile_{tag}.dat"]
        sup_final[tag] = float(abs(sol.final()).max())
        print(f"lambda={lam:g}: sup|u(T)| = {sup_final[tag]:.6e}")
    return {"files": files, "sup_final": sup_final}


def cmd_asymptotics(args, out: Path) -> dict:
    import dataclasses
    from .asymptotics import extract_asymptotics, mode_exponent, synthesize
    from .exponents import ExponentTable
    forcing = parse_forcing(args.forcing, args.forcing_csv)
    lams = list(args.lam)
    if len(lams) != 1:
        raise ValidationError("asymptotics extraction works on a single --lam mode")
    if args.metric is not None:
        from .links import FlatTorus
        link = FlatTorus(_parse_metric(args.metric))
    else:
        from .cones import harvey_lawson_torus
        link = harvey_lawson_torus().link
    _check_cone_link(link, "--metric")
    table = ExponentTable.for_link(link)
    mode_exponent(table, lams[0], args.gamma)  # refuse a bad --lam or --gamma before the solve
    # the fit reads the final frame only, so no intermediate frame is kept
    sol = _solve_modes(lams, table.m, args, forcing)[0]
    expansion = extract_asymptotics(sol, table, gamma=args.gamma)
    for alpha, k, coeff in expansion.terms:
        print(f"term r^{alpha + 2 * k:g} (harmonic order {alpha:g}, lift {k}): "
              f"coefficient {coeff:.8e}")
    print(f"remainder decay rate: {expansion.remainder_rate:.4f} (target >= {args.gamma:g})")
    payload = dataclasses.asdict(expansion)
    write_json(out / "asymptotics.json", payload)
    remainder = sol.final() - synthesize(expansion.terms, sol.grid.nodes)
    write_columns(out / "remainder.dat", _fields(sol.grid.nodes), abs(remainder))
    return {"files": ["asymptotics.json", "remainder.dat"], **payload}


def cmd_flow(args, out: Path) -> dict:
    from .flow import run_flow
    u0 = args.amplitude * parse_initial_condition(args.ic, args.m, args.n)
    final, series, states = run_flow(u0, T=args.T, dt=args.dt, snapshots=args.snapshots)
    write_frames(out / "flow_snapshots.csv", ["t", "node", "u", "theta"], _fields(range(u0.size)),
                 ((st.t, (st.u.ravel(), st.theta.ravel())) for st in states))
    write_columns(out / "sup_theta.dat", _fields(series["t"]), series["sup_theta"])
    write_json(out / "flow_summary.json", series)
    print(f"final time {final.t:g}: sup|u| = {abs(final.u).max():.6e}, "
          f"sup|theta| = {abs(final.theta).max():.6e}")
    return {
        "files": ["flow_snapshots.csv", "sup_theta.dat", "flow_summary.json"],
        "sup_u_final": float(abs(final.u).max()),
        "sup_theta_final": float(abs(final.theta).max()),
        "n_steps": len(series["t"]) - 1,
    }


def cmd_defect(args, out: Path) -> dict:
    import dataclasses
    from .flow import linearization_defect
    u0 = parse_initial_condition(args.ic, args.m, args.n)
    report = linearization_defect(u0, epsilons=list(args.eps), T=args.T, dt=args.dt)
    for eps, d, dn in zip(report.epsilons, report.defects, report.defects_per_amplitude):
        print(f"eps={eps:g}: defect {d:.6e}, per-amplitude {dn:.6e}")
    for i, (raw, norm) in enumerate(zip(report.ratios, report.ratios_per_amplitude)):
        print(f"halving {i}: raw ratio {raw:.4f}, per-amplitude ratio {norm:.4f}")
    payload = dataclasses.asdict(report)
    write_json(out / "defect.json", payload)
    write_columns(out / "defect.dat", _fields(report.epsilons), report.defects)
    return {"files": ["defect.json", "defect.dat"], **payload}


# ----------------------------------------------------------------------
# parser assembly and the command runner


def link_flags(a: _Arg) -> None:
    a.add("--link", type=str, default="hl-torus",
          choices=["hl-torus", "torus", "sphere", "mesh"], help="which cone link to use")
    a.add("--dim", type=int, default=2, help="link dimension (sphere/torus)")
    a.add("--metric", type=str, default=None,
          help="flat-torus metric, rows separated by ';' e.g. '0.667,0.333;0.333,0.667'")
    a.add("--mesh-file", type=str, default=None, help="OFF file for --link mesh")


def cone_flags(a: _Arg) -> None:
    a.add("--cone", type=str, default="hl-torus-3", help="catalog cone name")
    a.add("--cone-json", type=str, default=None, help="cone description file (overrides --cone)")


def radial_flags(a: _Arg) -> None:
    a.add("--lam", type=float, nargs="+", default=[0.0],
          help="link eigenvalue(s); the modes share one factorisation and step loop")
    a.add("--radius", type=float, default=1.0, help="outer radius of the annulus (finite)")
    a.add("--n", type=int, default=400, help="number of grid cells")
    a.add("--q", type=float, default=2.0, help="grid grading power")
    a.add("--T", type=float, default=0.1, help="final time")
    a.add("--dt", type=float, default=None, help="time step (default T/400)")
    a.add("--forcing", type=str, default=None, help="expression in t and r, e.g. 't*r^0.5'")
    a.add("--forcing-csv", type=str, default=None, help="CSV table t,r,f")
    a.add("--outer", type=float, default=None, help="constant outer Dirichlet value (finite)")


def torus_flags(a: _Arg, ic: str) -> None:
    a.add("--m", type=int, default=2, help="number of dimensions")
    a.add("--n", type=int, default=64, help="grid points per axis")
    a.add("--T", type=float, default=0.5, help="final time")
    a.add("--dt", type=float, default=None, help="time step (default from grid)")
    a.add("--ic", type=str, default=ic, help="catalog name or expression in x1..xm")


def spectrum_flags(a: _Arg) -> None:
    link_flags(a)
    a.add("--lmax", type=float, default=10.0, help="largest eigenvalue to report")
    a.add("--count", type=int, default=10, help="eigenvalue count for mesh links")


def exponents_flags(a: _Arg) -> None:
    link_flags(a)
    a.add("--m", type=int, default=3, help="cone dimension")
    a.add("--alpha-max", type=float, default=5.0, help="upper edge of the exponent window")


def stability_flags(a: _Arg) -> None:
    cone_flags(a)
    # read by nothing: the benchmark's stability jobs still pass it
    a.add("--seed", type=int, default=0, help=argparse.SUPPRESS)


def fredholm_flags(a: _Arg) -> None:
    cone_flags(a)
    a.add("--gamma", type=float, nargs="+", required=True, help="weight, one per cone end")
    a.add("--with-asymptotics", action="store_true",
          help="index of the extended operator with polyhomogeneous unknowns")


def heat_flags(a: _Arg) -> None:
    radial_flags(a)
    a.add("--m", type=int, default=3, help="cone dimension")
    a.add("--store-every", type=int, default=0, help="keep every k-th frame (0: first/last)")


def asymptotics_flags(a: _Arg) -> None:
    radial_flags(a)
    a.add("--metric", type=str, default=None, help="flat-torus link metric (default hl-torus-3)")
    a.add("--gamma", type=float, default=2.4, help="expansion is resolved below this rate")


def flow_flags(a: _Arg) -> None:
    torus_flags(a, ic="sine")
    a.add("--amplitude", type=float, default=1.0, help="scale factor on the initial potential")
    a.add("--snapshots", type=int, default=5, help="number of recorded field snapshots")


def defect_flags(a: _Arg) -> None:
    torus_flags(a, ic="mixed")
    a.add("--eps", type=float, nargs="+", default=[0.1, 0.05, 0.025],
          help="decreasing amplitude ladder")


# subcommand name -> (handler, help, function adding its own flags)
COMMANDS = {
    "spectrum": (cmd_spectrum, "link Laplacian spectrum with multiplicities", spectrum_flags),
    "exponents": (cmd_exponents, "homogeneity exponents of a cone Laplacian", exponents_flags),
    "stability": (cmd_stability, "stability index of a special Lagrangian cone", stability_flags),
    "fredholm": (cmd_fredholm, "Fredholm index of the weighted Laplacian", fredholm_flags),
    "heat": (cmd_heat, "radial mode solves of the cone heat equation", heat_flags),
    "asymptotics": (cmd_asymptotics, "extract the conical expansion of a heat solution",
                    asymptotics_flags),
    "flow": (cmd_flow, "periodic graphical Lagrangian mean curvature flow", flow_flags),
    "defect": (cmd_defect, "defect of the heat-flow linearisation, halved amplitudes",
               defect_flags),
}


def _add_command_flags(parser, config: dict, name: str) -> argparse.ArgumentParser:
    """``parser`` with the flags of subcommand ``name``, their defaults read from ``config``."""
    a = _Arg(parser, config, name)
    a.add("--outdir", type=str, default="out", help="directory for artifacts (created if missing)")
    parser.add_argument("--config", type=str, default=None,
                        help="JSON file of flag defaults (explicit flags take precedence)")
    COMMANDS[name][2](a)
    return parser


def command_parser(name: str, config: dict) -> argparse.ArgumentParser:
    """Subcommand ``name``'s parser on its own: the one ``build_parser`` nests, flags and all."""
    return _add_command_flags(argparse.ArgumentParser(prog=f"conic-lmcf {name}"), config, name)


def build_parser(config: dict, argv) -> argparse.ArgumentParser:
    """The parser for ``argv``, with flags only on the subcommand it selects.

    That subcommand is ``argv``'s first token without a leading ``-``, since
    the top-level parser takes no option with a value.  Every other
    subcommand is registered by name and help alone, which is all that the
    top-level help and usage errors print.  Only the selected subcommand
    reads ``config``.
    """
    parser = argparse.ArgumentParser(
        prog="conic-lmcf",
        description="numerics for Lagrangian mean curvature flow out of conical singularities",
    )
    parser.add_argument("--version", action="version", version=f"conic-lmcf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    selected = next((token for token in argv if not token.startswith("-")), None)
    for name, (_, help, _) in COMMANDS.items():
        p = sub.add_parser(name, help=help)
        if name == selected:
            _add_command_flags(p, config, name)
    return parser


def parse_args(argv, config: dict) -> argparse.Namespace:
    """``build_parser(config, argv).parse_args(argv)``, building one parser when it can.

    When ``argv`` starts with a subcommand, that subcommand's parser alone
    reads the rest; it is the parser the tree would hand the rest to, so its
    help, errors and namespace are the tree's.  The tree is built only for
    the usage errors its top level reports: no subcommand first, tokens left
    over, and a token ``--=...``, which it finds ambiguous between
    ``--help`` and ``--version`` before the subcommand parses.
    """
    if argv and argv[0] in COMMANDS and not any(token.startswith("--=") for token in argv):
        args, extra = command_parser(argv[0], config).parse_known_args(
            argv[1:], argparse.Namespace(command=argv[0]))
        if not extra:
            return args
    return build_parser(config, argv).parse_args(argv)


def main(argv=None) -> int:
    """Parse ``argv``, run the subcommand into ``--outdir`` and write its report.

    Every float flag must be finite, and ``--config`` must be spelled in
    full.  The report's inputs are every parsed flag except ``--outdir`` and
    ``--config``.
    """
    if argv is None:
        argv = sys.argv[1:]
    try:
        config_path, config = _preload_config(argv)
        args = parse_args(argv, config)
        if args.config != config_path:
            raise ValidationError(f"--config must be spelled in full; an abbreviation gave "
                                  f"{args.config!r}")
        for dest, value in vars(args).items():
            if any(isinstance(v, float) and not math.isfinite(v)
                   for v in (value if isinstance(value, list) else [value])):
                raise ValidationError(f"--{dest.replace('_', '-')} must be finite, got {value}")
        out = Path(args.outdir)
        out.mkdir(parents=True, exist_ok=True)
        t0 = time.perf_counter()
        outputs = COMMANDS[args.command][0](args, out)
        inputs = {k: v for k, v in vars(args).items() if k not in ("command", "outdir", "config")}
        write_report(out, args.command, inputs, outputs, t0)
        return 0
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
