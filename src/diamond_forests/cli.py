"""Command-line entry point: expansions, model evaluations, solver, MC, verify.

Output is a versioned JSON envelope (schema "diamond-forests/1") with sorted
keys, so identical invocations produce byte-identical reports.  Exact rational
quantities are serialized as "p/q" strings; floats use the shortest decimal
that round-trips.  Exit codes: 0 success, 1 verify ran but a check failed,
2 usage error, 3 numeric-domain error, 4 internal error (any other exception).

Each command imports only the modules it runs, because a cold process
compiles every package module it imports:

* numpy is loaded by ``chaos2``, ``riccati``, ``mc``, ``verify
  chaos2|heston-riccati|mc-cross`` and ``verify levy|bessel --paths N``,
  inside the commands that call the solver, the simulators or the numeric
  models.  ``bessel`` and ``verify bessel`` without ``--paths`` run on
  ``math``, and every exact command starts without numpy.
* The forest algebra (``algebra``, ``expansions``) is loaded only by
  ``expand`` and ``verify reorder``.  The other commands run the recursion
  from ``recursion`` alone.

Likewise this module imports ``verification``, ``models.levy``,
``models.signature``, ``csv``, ``inspect``, ``dataclasses`` and
``traceback`` only in the commands or paths that use them.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from .errors import (
    DEFAULT_MAX_ORDER_CAP,
    MAX_CUMULANT_ORDER,
    MAX_PATHS,
    MAX_STEPS,
    MIN_PATHS,
    MIN_STEPS,
    DomainError,
)

if TYPE_CHECKING:
    from .affine import ForwardVarianceCurve
    from .models.chaos2 import Chaos2State

SCHEMA_ID = "diamond-forests/1"


class UsageError(Exception):
    """Bad arguments or malformed input files (exit code 2)."""


# ---------------------------------------------------------------------------
# serialization


def _jsonable(value):
    # a Fraction, a Tree or a numpy value exists only once a command has
    # imported its module, so none of them is imported here
    fractions = sys.modules.get("fractions")
    if fractions is not None and isinstance(value, fractions.Fraction):
        return str(value)  # "p" or "p/q", as ``algebra.format_fraction`` writes it
    algebra = sys.modules.get("diamond_forests.algebra")
    if algebra is not None and isinstance(value, algebra.Tree):
        return value.diamond_text()
    np = sys.modules.get("numpy")
    if np is not None and isinstance(value, np.generic):
        return _jsonable(value.item())
    if np is not None and isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    return value


def render_json(envelope: dict) -> str:
    return json.dumps(_jsonable(envelope), sort_keys=True, indent=2) + "\n"


def _flatten(prefix: str, value, rows: List[Tuple[str, object]]) -> None:
    if isinstance(value, dict):
        for k in sorted(value):
            _flatten(f"{prefix}.{k}" if prefix else str(k), value[k], rows)
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            _flatten(f"{prefix}[{i}]", v, rows)
    else:
        rows.append((prefix, value))


def render_csv(envelope: dict) -> str:
    import csv

    result = _jsonable(envelope["result"])
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    table = _tabular(result)
    if table is not None:
        header, rows = table
        writer.writerow(header)
        writer.writerows(rows)
    else:
        writer.writerow(["key", "value"])
        flat: List[Tuple[str, object]] = []
        _flatten("", result, flat)
        writer.writerows(flat)
    return buf.getvalue()


def _tabular(result: dict) -> Optional[Tuple[List[str], List[list]]]:
    """A natural table for results that are mostly one list of records."""
    if "grid" in result and "g" in result:
        return ["tau", "g"], [list(p) for p in zip(result["grid"], result["g"])]
    for key in ("estimates", "checks", "terms"):
        records = result.get(key)
        if isinstance(records, list) and records and all(
            isinstance(r, dict) for r in records
        ):
            header = sorted({k for r in records for k in r})
            return header, [[r.get(h, "") for h in header] for r in records]
    return None


def render_text(envelope: dict) -> str:
    flat: List[Tuple[str, object]] = []
    _flatten("", _jsonable(envelope["result"]), flat)
    width = max((len(k) for k, _ in flat), default=0)
    lines = [f"{envelope['command']}  [{envelope['schema']}]"]
    lines += [f"  {k.ljust(width)}  {v}" for k, v in flat]
    return "\n".join(lines) + "\n"


RENDERERS = {"json": render_json, "csv": render_csv, "text": render_text}


# ---------------------------------------------------------------------------
# input files


def read_config_file(path: str) -> List[Tuple[str, str]]:
    """key=value lines; '#' starts a comment; repeated keys are kept in order."""
    pairs: List[Tuple[str, str]] = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for ln, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{ln}: expected key=value, got {raw.strip()!r}")
                key, val = line.split("=", 1)
                pairs.append((key.strip(), val.strip()))
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc}") from exc
    return pairs


def _read_csv_rows(path: str, what: str, names: Tuple[str, ...]) -> List[List[float]]:
    """Numeric rows with one column per name; skips blank and '#' rows and a
    header row, recognized by all names but the last."""
    import csv

    try:
        with open(path, "r", encoding="utf-8") as fh:
            rows = [r for r in csv.reader(fh) if r and not r[0].lstrip().startswith("#")]
    except OSError as exc:
        raise UsageError(f"cannot read {what} file {path}: {exc}") from exc
    out: List[List[float]] = []
    for i, row in enumerate(rows, 1):
        if [c.strip().lower() for c in row[: len(names) - 1]] == list(names[:-1]):
            continue
        if len(row) != len(names):
            raise UsageError(
                f"{path}:{i}: expected {len(names)} columns ({', '.join(names)})"
            )
        try:
            out.append([float(c) for c in row])
        except ValueError as exc:
            raise UsageError(f"{path}:{i}: non-numeric entry {row!r}") from exc
    if not out:
        raise UsageError(f"{path}: no {what} samples found")
    return out


def read_kernel_csv(path: str, T: float) -> Chaos2State:
    """Rows (w, v, f(w, v)) sampled at the left points of a uniform grid."""
    import numpy as np

    from .models.chaos2 import Chaos2State

    triples = _read_csv_rows(path, "kernel", ("w", "v", "value"))
    coords = sorted({w for w, _, _ in triples} | {v for _, v, _ in triples})
    M = len(coords)
    h = T / M
    index = {}
    for c in coords:
        k = round(c / h)
        if not math.isclose(c, k * h, rel_tol=0.0, abs_tol=1e-9 * max(T, 1.0)):
            raise UsageError(
                f"{path}: coordinate {c!r} is not on a uniform left-point grid of step {h!r}"
            )
        index[c] = k
    kernel = np.zeros((M, M))
    for w, v, f in triples:
        r, s = index[w], index[v]
        if max(r, s) >= M:
            raise UsageError(f"{path}: coordinate beyond the horizon {T}")
        if r < s:
            kernel[r, s] = f
        elif r > s:
            kernel[s, r] = f
        elif f != 0.0:
            raise UsageError(f"{path}: diagonal sample at w=v={w!r} must be 0")
    return Chaos2State(kernel=kernel, scalar=0.0, T=T)


def read_curve_csv(path: str) -> ForwardVarianceCurve:
    """Rows (u, forward variance at u)."""
    from .affine import ForwardVarianceCurve

    rows = _read_csv_rows(path, "curve", ("u", "xi"))
    times = [u for u, _ in rows]
    values = [xi for _, xi in rows]
    try:
        return ForwardVarianceCurve.sampled(times, values)
    except ValueError as exc:
        raise UsageError(f"{path}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommand implementations (each returns a result dict)


def cmd_expand(args) -> dict:
    from .algebra import parse_poly
    from .expansions import g_expansion, k_expansion, specialize, spx_g_expansion

    builders = {"K": k_expansion, "G": g_expansion, "SPX": spx_g_expansion}
    low = 1 if args.kind == "K" else 2
    _flag("order", args.order, low, f"the {args.kind} expansion", DEFAULT_MAX_ORDER_CAP)
    result = builders[args.kind](args.order)
    if args.bind:
        bindings = {}
        for spec in args.bind:
            if "=" not in spec:
                raise UsageError(f"--bind expects SYMBOL=EXPR, got {spec!r}")
            sym, expr = spec.split("=", 1)
            try:
                bindings[sym.strip()] = parse_poly(expr.strip())
            except ValueError as exc:
                raise UsageError(f"cannot parse binding {spec!r}: {exc}") from exc
        result = specialize(result, bindings)  # a ValueError exits 2 like a UsageError
    orders = {
        str(n): [{"tree": t, "coeff": str(p)} for t, p in forest]
        for n, forest in result.orders.items()
    }
    return {
        "kind": result.kind,
        "orders": orders,
        "shape_counts": {str(n): len(f) for n, f in result.orders.items()},
        "all_zero": result.is_zero(),
    }


def cmd_levy(args) -> dict:
    from .models.levy import levy_alpha, levy_cgf

    _flag("order", args.order, 2, "the area series")
    alphas = levy_alpha(args.order)
    partial = levy_cgf(args.T, args.order)
    closed = -math.log(math.cos(args.T))
    return {
        "alpha": {str(n): a for n, a in alphas.items()},
        "cgf_partial": partial,
        "closed_form": closed,
        "gap": abs(partial - closed),
    }


def cmd_cameron_martin(args) -> dict:
    from .models.signature import cameron_martin_cgf, cameron_martin_cgf_coeffs, cameron_martin_q

    _flag("order", args.order, 1, "the exponent series")
    result = {
        "q": {str(n): v for n, v in cameron_martin_q(args.order).items()},
        "cgf_coefficients": {
            str(n): v for n, v in cameron_martin_cgf_coeffs(args.order).items()
        },
    }
    if args.lam is not None:
        result["cgf_value"] = cameron_martin_cgf(args.lam, args.order)
        root = math.sqrt(2 * abs(args.lam))
        cosine = math.cosh(root) if args.lam >= 0 else math.cos(root)
        result["closed_form"] = -0.5 * math.log(cosine)
    return result


def cmd_bessel(args) -> dict:
    from .models.bessel import bessel_laplace, bessel_laplace_series

    _flag("order", args.order, 2, "the Laplace series")
    closed = bessel_laplace(args.x, args.delta, args.lam, args.T)
    series = bessel_laplace_series(args.x, args.delta, args.lam, args.T, args.order)
    return {
        "closed_form": closed,
        "series": series,
        "gap": abs(closed - series),
    }


def cmd_chaos2(args) -> dict:
    from .models.chaos2 import chaos2_cumulants, constant_kernel, eigenvalue_cumulants

    _flag("order", args.order, 1, "the cumulants")
    if (args.kernel is None) == (args.flat is None):
        raise UsageError("provide exactly one of --kernel FILE or --flat VALUE")
    _grid_horizon(args.T)
    if args.flat is not None and not math.isfinite(args.flat):
        raise UsageError(f"--flat must be finite, got {args.flat}")
    if args.kernel is not None:
        state = read_kernel_csv(args.kernel, args.T)
    else:
        if args.grid is None:
            raise UsageError("--flat needs --grid M")
        grid = _flag("grid", args.grid, 1, "the flat kernel")
        state = constant_kernel(args.T, grid, args.flat)
    recursion = chaos2_cumulants(state, args.order)
    spectral = eigenvalue_cumulants(state, args.order)
    return {
        "grid_points": state.M,
        "cumulants": {str(n + 1): v for n, v in enumerate(recursion)},
        "eigenvalue_cumulants": {str(n + 1): v for n, v in enumerate(spectral)},
    }


def cmd_signature(args) -> dict:
    from .models.signature import diamond_ito, diamond_strat, fawcett_sigma

    for w in (args.left, args.right):
        if not w or not w.isdigit():
            raise UsageError(f"words must be nonempty digit strings, got {w!r}")
    op = diamond_ito if args.mode == "ito" else diamond_strat
    expr = op(args.left[:-1], args.left[-1], args.right[:-1], args.right[-1])
    result = {
        "mode": args.mode,
        "expr": str(expr),
        "terms": expr.to_json_list(),
        "sigma_left": fawcett_sigma(args.left),
        "sigma_right": fawcett_sigma(args.right),
    }
    if args.T is not None:
        result["time_zero_value"] = expr.evaluate(args.T)
    return result


def _grid_horizon(T: float) -> None:
    """Refuse a kernel grid's ``--T`` under the flag's name, before ``Chaos2State``."""
    if not (math.isfinite(T) and T > 0):
        raise UsageError(f"--T must be finite and positive for the kernel grid, got {T}")


def _flag(
    name: str, value: int, minimum: int, purpose: str, maximum: Optional[int] = None
) -> int:
    """Refuse a value outside [minimum, maximum] under the flag's own name."""
    if value < minimum:
        raise UsageError(f"--{name} must be >= {minimum} for {purpose}, got {value}")
    if maximum is not None and value > maximum:
        raise UsageError(f"--{name} must be <= {maximum} for {purpose}, got {value}")
    return value


def cmd_riccati(args) -> dict:
    from .affine import (
        ForwardVarianceCurve,
        KernelSpec,
        mgf_value,
        riccati_residual,
        solve_riccati,
    )

    if args.kernel == "exp":
        if args.lam is None:
            raise UsageError("exponential kernel needs --lambda")
        if args.alpha is not None:
            raise UsageError("exponential kernel takes no --alpha")
        kern = KernelSpec.exponential(nu=args.nu, lam=args.lam)
    else:
        if args.alpha is None:
            raise UsageError("power-law kernel needs --alpha")
        if args.lam is not None:
            raise UsageError("power-law kernel takes no --lambda")
        kern = KernelSpec.power_law(nu=args.nu, alpha=args.alpha)
    steps = _flag("steps", args.steps, MIN_STEPS, "the Riccati solve", MAX_STEPS)
    sol = solve_riccati(
        kern, args.rho, args.a, args.b, args.c, args.delta, horizon=args.T, n_steps=steps
    )
    curve = read_curve_csv(args.curve) if args.curve else ForwardVarianceCurve.flat(args.xi0)
    return {
        "grid": sol.grid,
        "g": sol.g,
        "boundary": sol.g[0],
        "mgf": mgf_value(sol, args.x, curve, args.zeta, 0.0, args.T),
        "residual": riccati_residual(sol),
        "solver_tolerance": sol.solver_tolerance,
    }


def cmd_mc(args) -> dict:
    from dataclasses import asdict

    from .mc import MODEL_PARAMS, SimConfig, empirical_cumulants, empirical_mgf, simulate

    params: Dict[str, object] = {}
    for spec in args.param or []:
        if "=" not in spec:
            raise UsageError(f"--param expects NAME=VALUE, got {spec!r}")
        key, val = spec.split("=", 1)
        try:
            params[key.strip()] = float(val)
        except ValueError as exc:
            raise UsageError(f"--param {spec!r}: value must be numeric") from exc
    if args.kernel is not None:
        readers = [name for name, names in MODEL_PARAMS.items() if "kernel" in names]
        if args.model in MODEL_PARAMS and args.model not in readers:
            raise UsageError(
                f"--kernel is read only by model {', '.join(readers)}, not {args.model}"
            )
        _grid_horizon(args.T)
        params["kernel"] = read_kernel_csv(args.kernel, args.T).kernel
    steps = _flag("steps", args.steps, 1, "the simulation")
    paths = _flag("paths", args.paths, MIN_PATHS, "the simulation", MAX_PATHS)
    max_order = _flag(
        "max-order", args.max_order, 1, "the cumulant estimates", MAX_CUMULANT_ORDER
    )
    seed = _flag("seed", args.seed, 0, "the random generator", 2**64 - 1)
    # a refused config raises ValueError, which exits 2 like a UsageError
    samples = simulate(SimConfig(args.model, params, paths, steps, args.T, seed))
    result: Dict[str, object] = {
        "columns": sorted(samples.columns),
        "n_paths": samples.n,
    }
    column = args.column
    if column is None and len(samples.columns) == 1:
        column = next(iter(samples.columns))
    if column is not None:
        if column not in samples.columns:
            raise UsageError(f"--column {column!r}: {args.model} samples carry "
                             f"{result['columns']}")
        estimates = empirical_cumulants(samples, max_order, column=column)
        result["estimates"] = [asdict(e) for e in estimates]
    if args.mgf is not None:
        try:
            a, b, c = (float(p) for p in args.mgf.split(","))
        except ValueError as exc:
            raise UsageError("--mgf expects three comma-separated numbers a,b,c") from exc
        result["mgf"] = asdict(empirical_mgf(samples, (a, b, c)))
    return result


VERIFY_FLAGS = ("order", "seed", "paths", "steps")
# sorted(verification.SUITES), spelled out so that the parser need not import it
SUITE_NAMES = ("bessel", "cameron-martin", "chaos2", "heston-riccati", "levy", "mc-cross",
               "reorder")
# --order's range and purpose for each suite that takes it
VERIFY_ORDER = {
    "reorder": (2, DEFAULT_MAX_ORDER_CAP, "the regraded expansion"),
    "levy": (2, None, "the area series"),
    "cameron-martin": (1, None, "the exponent series"),
}


def cmd_verify(args) -> Tuple[dict, int]:
    import inspect

    from .verification import SUITES, run_suite

    if args.suite not in SUITES:
        raise UsageError(f"unknown suite {args.suite!r}; choose from {list(SUITE_NAMES)}")
    takes = inspect.signature(SUITES[args.suite]).parameters
    kwargs = {f: getattr(args, f) for f in VERIFY_FLAGS if getattr(args, f) is not None}
    for flag in kwargs:
        if flag not in takes:
            accepted = " ".join(f"--{f}" for f in VERIFY_FLAGS if f in takes) or "none"
            raise UsageError(
                f"suite {args.suite!r} does not take --{flag} (it takes: {accepted})"
            )
    if args.order is not None:
        low, high, purpose = VERIFY_ORDER[args.suite]
        _flag("order", args.order, low, purpose, high)
    if args.steps is not None:
        if args.suite == "heston-riccati":
            _flag("steps", args.steps, MIN_STEPS, "the Riccati solve", MAX_STEPS)
        else:
            _flag("steps", args.steps, 1, "the simulation")
    if args.paths is not None:
        # a suite whose own default is --paths 0 reads 0 as "no Monte Carlo check"
        optional = takes["paths"].default == 0
        if not (optional and args.paths == 0):
            purpose = "the Monte Carlo check" + (" (0 skips it)" if optional else "")
            _flag("paths", args.paths, MIN_PATHS, purpose, MAX_PATHS)
    if args.seed is not None:
        _flag("seed", args.seed, 0, "the random generator", 2**64 - 1)
    report = run_suite(args.suite, **kwargs)
    return report.to_dict(), (0 if report.passed else 1)


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diamond-forests",
        description="Tree expansions of conditional cumulants, model evaluators, "
        "a convolution Riccati solver, and Monte Carlo verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value file of defaults (flags win)")
        p.add_argument(
            "--output", choices=("json", "csv", "text"), default="json",
            help="output format (default json)",
        )

    p = sub.add_parser("expand", help="cumulant / joint-exponent forests")
    p.add_argument("--kind", choices=("K", "G", "SPX"), default="K")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--bind", action="append", metavar="SYM=EXPR",
                   help="substitute a symbol, e.g. b=-a^2/2 (repeatable)")
    common(p)

    p = sub.add_parser("levy", help="planar-area coefficients and CGF")
    p.add_argument("--order", type=int, default=20)
    p.add_argument("--T", type=float, default=0.5)
    common(p)

    p = sub.add_parser("cameron-martin", help="squared-norm exponent series")
    p.add_argument("--order", type=int, default=10)
    p.add_argument("--lam", type=float, default=None)
    common(p)

    p = sub.add_parser("bessel", help="squared-radius Laplace transform")
    p.add_argument("--delta", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, required=True)
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--order", type=int, default=80, help="series truncation")
    common(p)

    p = sub.add_parser("chaos2", help="second-chaos cumulants on a grid")
    p.add_argument("--kernel", help="CSV of rows (w, v, f(w,v))")
    p.add_argument("--flat", type=float, default=None, help="constant kernel value")
    p.add_argument("--grid", type=int, default=None, help="grid points for --flat")
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--order", type=int, default=4)
    common(p)

    p = sub.add_parser("signature", help="diamond of two iterated-integral words")
    p.add_argument("--left", required=True, help="word as a digit string, e.g. 112")
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=("ito", "strat"), default="ito")
    p.add_argument("--T", type=float, default=None,
                   help="evaluate at time 0 with this horizon")
    common(p)

    p = sub.add_parser("riccati", help="convolution Riccati solve")
    p.add_argument("--kernel", choices=("exp", "power"), required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--alpha", type=float, default=None)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=0.1, help="swap window length")
    p.add_argument("--T", type=float, required=True)
    p.add_argument("--steps", type=int, default=1024)
    p.add_argument("--xi0", type=float, default=0.04, help="flat forward variance")
    p.add_argument("--curve", help="CSV of rows (u, xi(u)) overriding --xi0")
    p.add_argument("--x", type=float, default=0.0, help="current log-price state")
    p.add_argument("--zeta", type=float, default=0.0, help="current swap state")
    common(p)

    p = sub.add_parser("mc", help="Monte Carlo simulators and estimators")
    p.add_argument("--model", required=True)
    p.add_argument("--paths", type=int, required=True)
    p.add_argument("--steps", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--param", action="append", metavar="NAME=VALUE",
                   help="model parameter (repeatable)")
    p.add_argument("--kernel", help="CSV kernel for the second-chaos model")
    p.add_argument("--column", default=None, help="column for cumulant estimates")
    p.add_argument("--max-order", type=int, default=4)
    p.add_argument("--mgf", default=None, metavar="A,B,C",
                   help="also report the empirical MGF at these weights")
    common(p)

    p = sub.add_parser("verify", help="named cross-check suites")
    p.add_argument("suite", help=f"one of {list(SUITE_NAMES)}")
    for flag in VERIFY_FLAGS:
        p.add_argument(f"--{flag}", type=int, default=None,
                       help="passed to suites that take it (default: the suite's)")
    common(p)

    return parser


_CONFIG_SKIP = {"command", "config", "output"}


def _merge_config_tokens(argv: Sequence[str]) -> List[str]:
    """Insert config-file pairs as flags right after the subcommand token."""
    argv = list(argv)
    path = None
    for i, tok in enumerate(argv):
        if tok == "--config":
            if i + 1 >= len(argv):
                raise UsageError("--config needs a file path")
            path = argv[i + 1]
            break
        if tok.startswith("--config="):
            path = tok.split("=", 1)[1]
            break
    if path is None or not argv:
        return argv
    inserted: List[str] = []
    for key, val in read_config_file(path):
        if key in ("suite",):
            raise UsageError("the verify suite must be given on the command line")
        inserted.extend([f"--{key}", val])
    return [argv[0], *inserted, *argv[1:]]


def _resolved_config(args) -> dict:
    cfg = {}
    for key, val in sorted(vars(args).items()):
        if key in _CONFIG_SKIP or val is None:
            continue
        cfg[key.replace("_", "-")] = val
    return cfg


DISPATCH = {
    "expand": cmd_expand,
    "levy": cmd_levy,
    "cameron-martin": cmd_cameron_martin,
    "bessel": cmd_bessel,
    "chaos2": cmd_chaos2,
    "signature": cmd_signature,
    "riccati": cmd_riccati,
    "mc": cmd_mc,
}


def run(argv: Sequence[str]) -> Tuple[str, int]:
    """Execute one invocation; returns (rendered output, exit code)."""
    parser = build_parser()
    argv = _merge_config_tokens(list(argv))
    args = parser.parse_args(argv)
    exit_code = 0
    if args.command == "verify":
        result, exit_code = cmd_verify(args)
    else:
        result = DISPATCH[args.command](args)
    envelope = {
        "schema": SCHEMA_ID,
        "command": args.command,
        "config": _resolved_config(args),
        "result": result,
    }
    return RENDERERS[args.output](envelope), exit_code


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        out, code = run(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # exit 1 is reserved for a failed verification
        import traceback

        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 4
    sys.stdout.write(out)
    return code


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
