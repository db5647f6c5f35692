"""The four seeded workloads: request generators, executors and oracle checks.

Every workload is a closed loop with one client.  Requests come in rounds:
a round holds one request for each *cell* of the workload (a cell fixes
everything that sets a request's cost, such as the expansion order or the
grid size), in an order shuffled by the seed, and the seed draws the
remaining inputs.  A run ends on a round boundary, so each run measures the
same mix of costs and its medians move only when the program does.

``execute`` is the timed part and calls the package only through its public
functions with the generated inputs.  ``check`` runs after the timer stops
and compares the output with an oracle that already exists in the package
(a closed form, an independent series, an ODE or eigenvalue route), or,
for a Monte Carlo estimate, with an exact value at five standard errors.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import count
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np
from diamond_forests import (
    catalan,
    g_expansion,
    k_expansion,
    parse_poly,
    reorder,
    specialize,
    spx_g_expansion,
    wedderburn_etherington,
)
from diamond_forests.affine import (
    ForwardVarianceCurve,
    KernelSpec,
    heston_ode_reference,
    mgf_value,
    riccati_residual,
    solve_riccati,
    spx_expansion_value,
)
from diamond_forests.mc import BLOCK_PATHS, SimConfig, empirical_cumulants, empirical_mgf, simulate
from diamond_forests.models import (
    bessel_laplace,
    brownian_drift_cumulants,
    chaos2_cumulants,
    constant_kernel,
    diamond_ito,
    diamond_strat,
    eigenvalue_cumulants,
    fawcett_sigma,
    kernel_from_function,
    levy_alpha,
    stopped_bm_cgf,
)
from diamond_forests.verification import log_cosh_taylor_coefficients, tan_taylor_coefficients

Request = Dict[str, object]

# A Monte Carlo estimate passes when it lies within this many standard errors
# of the exact value; at 5 SE a correct program fails a single comparison
# with probability below 1e-6.
MC_GATE_SE = 5.0
# Two blocks, so that both Monte Carlo workers run.
MC_PATHS = 2 * BLOCK_PATHS
MC_STEPS = 128


class CheckFailed(Exception):
    """The output of a request disagrees with its oracle."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class Workload:
    """A named set of cells; subclasses draw, execute and check requests."""

    name = ""
    cells: Tuple[Tuple, ...] = ()

    def setup(self) -> object:
        return None

    def draw(self, rng: random.Random, cell: Tuple) -> Request:
        raise NotImplementedError

    def execute(self, request: Request, ctx: object) -> object:
        raise NotImplementedError

    def check(self, request: Request, output: object, ctx: object) -> None:
        raise NotImplementedError

    def rounds(self, seed: int) -> Iterator[List[Request]]:
        """Rounds of requests; the same seed always yields the same rounds."""
        for r in count():
            rng = random.Random(f"{self.name}/{seed}/{r}")
            cells = list(self.cells)
            rng.shuffle(cells)
            yield [self.draw(rng, cell) for cell in cells]


def _u(rng: random.Random, lo: float, hi: float, digits: int = 4) -> float:
    return round(rng.uniform(lo, hi), digits)


# ---------------------------------------------------------------------------
# forest-build: exact combinatorics


class ForestBuild(Workload):
    name = "forest-build"
    # One-letter K at order 10 and two-letter K at order 6 (about 10 ms each)
    # are left out: with them the median fell on the edge of the cheap group
    # and jumped by 40% between runs; without them it lies inside the group of
    # g_expansion(10) and k_expansion(13).
    cells = (
        tuple(("K1", n) for n in range(11, 14))
        + tuple(("K2", n) for n in range(7, 10))
        + tuple(("SPXG", n) for n in range(6, 9))
        + tuple(("G", n) for n in range(8, 12))
    )

    def setup(self):
        return {"kill_b": parse_poly("-a^2/2")}

    def draw(self, rng, cell):
        kind, order = cell
        return {"kind": kind, "order": order}

    def execute(self, request, ctx):
        kind, n = request["kind"], request["order"]
        if kind == "K1":
            return k_expansion(n)
        if kind == "K2":
            return reorder(k_expansion(n, alphabet=("Y", "QV"), symbols=("a", "b")))
        if kind == "SPXG":
            return specialize(spx_g_expansion(n), {"a": 1, "b": 0, "c": 0})
        return specialize(g_expansion(n), {"b": ctx["kill_b"]})

    def check(self, request, output, ctx):
        kind, n = request["kind"], request["order"]
        if kind == "K1":
            for m in range(1, n + 1):
                _require(
                    len(output.orders[m]) == wedderburn_etherington(m),
                    f"order {m}: {len(output.orders[m])} shapes, expected "
                    f"{wedderburn_etherington(m)}",
                )
            for m in range(1, n):
                total = sum(2**m * p.constant_value() for _, p in output.orders[m + 1])
                _require(total == catalan(m), f"order {m + 1}: scaled sum {total} != C_{m}")
        elif kind == "K2":
            g = g_expansion(n)
            for m in range(2, n + 1):
                _require(output.orders[m] == g.orders[m], f"regraded order {m} != G[{m}]")
        else:
            _require(output.is_zero(), "specialized expansion does not cancel")


# ---------------------------------------------------------------------------
# affine-exponent: forward-variance pricing

HORIZON = 1.0
WINDOW = 0.1


def _kernel(request: Request) -> KernelSpec:
    if request["kernel"] == "exp":
        return KernelSpec.exponential(nu=request["nu"], lam=request["lam"])
    return KernelSpec.power_law(nu=request["nu"], alpha=request["alpha"])


class AffineExponent(Workload):
    name = "affine-exponent"
    # kernel x (c = 0?) x grid size, with the order alternating so that the
    # 12 cells are a half fraction of the 24 combinations.  The costliest of
    # them, order 6 with c != 0 on 4096 steps (5-6 s, half a round), is left
    # out: with it a run held two rounds and its median moved by 15% from
    # seed to seed.  Order 6 with c != 0 on 2048 steps and order 5 with
    # c != 0 on 4096 steps still load the per-tree quadrature.
    cells = tuple(
        (kernel, c_zero, n, 5 + (ki + ci + ni) % 2)
        for ki, kernel in enumerate(("exp", "power"))
        for ci, c_zero in enumerate((True, False))
        for ni, n in enumerate((1024, 2048, 4096))
        if (c_zero, n, 5 + (ki + ci + ni) % 2) != (False, 4096, 6)
    )

    def setup(self):
        ctx = {"forests": spx_g_expansion(6).orders}
        # The first requests on the largest grid pay for growing the heap; one
        # cheap request per kernel there keeps that out of the timed rounds.
        for kernel, shape in (("exp", {"lam": 1.0}), ("power", {"alpha": 0.7})):
            self.execute(
                dict(kernel=kernel, n=4096, order=5, nu=0.3, rho=-0.6, a=0.2, b=0.1,
                     c=0.0, xi0=0.04, **shape),
                ctx,
            )
        return ctx

    def draw(self, rng, cell):
        kernel, c_zero, n, order = cell
        req: Request = {"kernel": kernel, "n": n, "order": order, "nu": _u(rng, 0.2, 0.4)}
        if kernel == "exp":
            req["lam"] = _u(rng, 0.5, 1.5)
        else:
            req["alpha"] = _u(rng, 0.6, 0.8)
        req.update(
            rho=_u(rng, -0.9, -0.3),
            a=_u(rng, 0.1, 0.3),
            b=_u(rng, 0.0, 0.2),
            c=0.0 if c_zero else _u(rng, 0.05, 0.15),
            xi0=_u(rng, 0.02, 0.06),
        )
        return req

    def _expansion(self, request, ctx, order):
        return spx_expansion_value(
            order, ctx["forests"], _kernel(request), request["rho"], request["a"],
            request["b"], request["c"], WINDOW, ForwardVarianceCurve.flat(request["xi0"]),
            0.0, 0.0, 0.0, HORIZON, n_steps=request["n"],
        )

    def execute(self, request, ctx):
        kern = _kernel(request)
        sol = solve_riccati(
            kern, request["rho"], request["a"], request["b"], request["c"], WINDOW,
            HORIZON, request["n"],
        )
        curve = ForwardVarianceCurve.flat(request["xi0"])
        return {
            "sol": sol,
            "mgf": mgf_value(sol, 0.0, curve, 0.0, 0.0, HORIZON),
            "residual": riccati_residual(sol),
            "expansion": self._expansion(request, ctx, request["order"]),
        }

    def check(self, request, output, ctx):
        sol = output["sol"]
        if request["kernel"] == "exp" and request["c"] == 0.0:
            ref = heston_ode_reference(
                _kernel(request), request["rho"], request["a"], request["b"], sol.grid
            )
            gap = float(np.max(np.abs(sol.g - ref)))
            _require(gap <= 1e-6, f"solve vs ODE reference: {gap:.3e} > 1e-6")
        else:
            bound = 10.0 * sol.solver_tolerance
            _require(
                output["residual"] <= bound,
                f"residual {output['residual']:.3e} > 10 x tolerance {bound:.3e}",
            )
        # The truncated forest sum must approach the solver's exponent: orders
        # 3..k remove at least 95% of the order-2 truncation gap, up to the
        # solver's own error over the window.  (Across 660 seeded requests the
        # worst share left was 0.7% at order 5.  Neither the last increment nor
        # the gap two orders lower bounds the gap: partial sums can cross.)
        leading = abs(self._expansion(request, ctx, 2) - output["mgf"])
        gap = abs(output["expansion"] - output["mgf"])
        allowed = 0.05 * leading + HORIZON * request["xi0"] * sol.solver_tolerance
        _require(
            math.isfinite(gap) and gap <= allowed,
            f"truncation gap {gap:.3e} at order {request['order']} exceeds {allowed:.3e} "
            f"(5% of the order-2 gap {leading:.3e} plus the solver error)",
        )


# ---------------------------------------------------------------------------
# mc-oracle: Monte Carlo against exact values


def _chaos_state(coeffs: List[List[float]]):
    def fn(s, u):
        out = 0.0 * s
        for p in range(3):
            for q in range(3):
                out = out + coeffs[p][q] * np.cos(np.pi * p * s) * np.cos(np.pi * q * u)
        return out

    return kernel_from_function(fn, 1.0, 64)


def _cumulant_gate(estimates, exact: List[float], slack: Optional[List[float]] = None) -> None:
    for e in estimates:
        allow = MC_GATE_SE * e.std_error + (slack[e.order - 1] if slack else 0.0)
        miss = abs(e.value - exact[e.order - 1])
        _require(
            miss <= allow,
            f"cumulant {e.order}: |{e.value:.6g} - {exact[e.order - 1]:.6g}| = "
            f"{miss:.3e} > {allow:.3e}",
        )


class McOracle(Workload):
    name = "mc-oracle"
    # Order 6 runs on the Gaussian and area models only: on skewed second-chaos
    # samples the bootstrap standard error of a sixth cumulant understates its
    # spread (|z| reached 6.6 in 40 seeded requests), so a 5-SE gate would
    # reject a correct program about once in twenty requests.
    cells = (
        ("BMdrift", 6),
        ("LevyArea", 4),
        ("LevyArea", 6),
        ("Heston", 0),
        ("StoppedBM", 0),
        ("BESQ", 0),
        ("Chaos2", 4),
    )

    def draw(self, rng, cell):
        model, order = cell
        req: Request = {"model": model, "order": order, "seed": rng.getrandbits(32)}
        if model == "BMdrift":
            req.update(mu=_u(rng, -0.5, 0.5), sigma=_u(rng, 0.5, 2.0), T=_u(rng, 0.5, 2.0))
        elif model == "LevyArea":
            req.update(T=_u(rng, 0.5, 1.5))
        elif model == "Heston":
            req.update(
                xi0=_u(rng, 0.02, 0.06), nu=_u(rng, 0.2, 0.4), lam=_u(rng, 0.5, 1.5),
                rho=_u(rng, -0.9, -0.3), a=_u(rng, 0.1, 0.3), b=_u(rng, 0.0, 0.2),
            )
        elif model == "StoppedBM":
            req.update(start=_u(rng, -0.5, 0.5), theta=_u(rng, 0.2, 0.6))
        elif model == "BESQ":
            req.update(
                x=_u(rng, 0.2, 1.5), delta=_u(rng, 0.5, 3.0), lam=_u(rng, 0.1, 0.5),
                T=_u(rng, 0.5, 1.0),
            )
        else:
            req.update(coeffs=[[_u(rng, -1.0, 1.0) for _ in range(3)] for _ in range(3)])
        return req

    def execute(self, request, ctx):
        model, order, seed = request["model"], request["order"], request["seed"]
        if model == "BMdrift":
            mu, sigma, T = request["mu"], request["sigma"], request["T"]
            cfg = SimConfig(model, {"mu": mu, "sigma": sigma}, MC_PATHS, 1, T, seed)
            states = brownian_drift_cumulants(sigma, mu, 0.0, T, order)
            exact = [math.factorial(n + 1) * k for n, k in enumerate(states)]
            return empirical_cumulants(simulate(cfg), order), exact
        if model == "LevyArea":
            T = request["T"]
            cfg = SimConfig(model, {}, MC_PATHS, MC_STEPS, T, seed)
            alphas = levy_alpha(order)
            exact = [0.0] + [
                math.factorial(n - 1) * float(alphas[n]) * T**n for n in range(2, order + 1)
            ]
            return empirical_cumulants(simulate(cfg), order), exact
        if model == "Heston":
            params = {k: request[k] for k in ("xi0", "nu", "lam", "rho")}
            cfg = SimConfig(model, params, MC_PATHS, MC_STEPS, 1.0, seed)
            est = empirical_mgf(simulate(cfg), (request["a"], request["b"], 0.0))
            kern = KernelSpec.exponential(nu=request["nu"], lam=request["lam"])
            sol = solve_riccati(
                kern, request["rho"], request["a"], request["b"], 0.0, WINDOW, 1.0, 2048
            )
            exact = mgf_value(sol, 0.0, ForwardVarianceCurve.flat(request["xi0"]), 0.0, 0.0, 1.0)
            return est, exact
        if model == "StoppedBM":
            cfg = SimConfig(model, {"start": request["start"]}, MC_PATHS, MC_STEPS, 8.0, seed)
            est = empirical_mgf(simulate(cfg), (request["theta"], 0.0, 0.0))
            return est, stopped_bm_cgf(request["start"], request["theta"])
        if model == "BESQ":
            x, delta, lam, T = (request[k] for k in ("x", "delta", "lam", "T"))
            cfg = SimConfig(model, {"x": x, "delta": delta}, MC_PATHS, 1, T, seed)
            est = empirical_mgf(simulate(cfg), (-lam, 0.0, 0.0))
            return est, float(bessel_laplace(x, delta, lam, T))
        state = _chaos_state(request["coeffs"])
        cfg = SimConfig(model, {"kernel": state.kernel}, MC_PATHS, state.M, state.T, seed)
        estimates = empirical_cumulants(simulate(cfg), order)
        return estimates, (eigenvalue_cumulants(state, order), chaos2_cumulants(state, 3))

    def check(self, request, output, ctx):
        model, order = request["model"], request["order"]
        estimate, exact = output
        if model == "BMdrift":
            _cumulant_gate(estimate, exact)
        elif model == "LevyArea":
            # left-point Euler shrinks cumulant n by O(n / steps); for n = 2 the
            # allowance equals the exact variance bias T^2 / steps
            slack = [n * abs(k) / (2 * MC_STEPS) for n, k in enumerate(exact, start=1)]
            _cumulant_gate(estimate, exact, slack)
        elif model == "Chaos2":
            spectral, recursion = exact
            for n in range(3):
                gap = abs(recursion[n] - spectral[n])
                _require(
                    gap <= 1e-9 * max(1.0, abs(spectral[n])),
                    f"recursion vs eigenvalue cumulant {n + 1}: gap {gap:.3e}",
                )
            _cumulant_gate(estimate, spectral)
        elif model == "BESQ":
            miss = abs(estimate.value - exact)
            _require(
                miss <= MC_GATE_SE * estimate.std_error,
                f"Laplace transform {estimate.value:.6g} vs {exact:.6g}: {miss:.3e}",
            )
        else:
            miss = abs(math.log(estimate.value) - exact)
            se = estimate.std_error / estimate.value
            _require(
                miss <= MC_GATE_SE * se,
                f"log-MGF {math.log(estimate.value):.6g} vs {exact:.6g}: {miss:.3e} > "
                f"{MC_GATE_SE * se:.3e}",
            )


# ---------------------------------------------------------------------------
# cli-cold: one cold command-line process per request

SCHEMA_ID = "diamond-forests/1"
# These two README commands exit 1 with "Object of type bool is not JSON
# serializable"; they stay out of the timed mix (no request may fail) and are
# run once per cli-cold run as a probe whose outcome is reported.
KNOWN_DEFECT_PROBES = (
    ("verify", "bessel", "--paths", "2000"),
    ("verify", "mc-cross", "--paths", "2000", "--steps", "16"),
)


def _fmt(x: float) -> str:
    return repr(float(x))


def run_child(argv: List[str], env: Dict[str, str], cwd: str) -> Tuple[int, bytes, bytes, float]:
    """Run one process to completion; returns (exit code, stdout, stderr, peak RSS MiB)."""
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    err: List[bytes] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], usage.ru_maxrss / 1024.0


def _close(x: float, y: float, rel: float) -> bool:
    return abs(x - y) <= rel * max(1.0, abs(y))


class CliCold(Workload):
    name = "cli-cold"
    cells = (
        ("expand-K",),
        ("expand-K-csv",),
        ("expand-G-bind",),
        ("levy",),
        ("cameron-martin",),
        ("bessel",),
        ("chaos2",),
        ("signature",),
        ("riccati",),
        ("mc-heston",),
        ("verify-reorder",),
        ("verify-levy",),
        ("verify-cameron-martin",),
        ("verify-chaos2",),
        ("verify-heston-riccati",),
    )

    def __init__(self, root: str):
        self.root = root
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        extra = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + (os.pathsep + extra if extra else "")
        self.peak_rss_mib = 0.0

    def command(self, argv: List[str]) -> List[str]:
        return [sys.executable, "-m", "diamond_forests.cli", *argv]

    def setup(self):
        # one cold command fills the file cache the timed commands rely on
        code, _, err, _ = run_child(self.command(["expand", "--order", "3"]), self.env, self.root)
        if code != 0:
            raise RuntimeError(f"warm-up command failed: {err.decode(errors='replace')}")
        return None

    def draw(self, rng, cell):
        kind = cell[0]
        p: Dict[str, object] = {}
        if kind == "expand-K":
            p["order"] = rng.randint(5, 9)
            argv = ["expand", "--kind", "K", "--order", str(p["order"])]
        elif kind == "expand-K-csv":
            p["order"] = rng.randint(5, 9)
            argv = ["expand", "--kind", "K", "--order", str(p["order"]), "--output", "csv"]
        elif kind == "expand-G-bind":
            p["order"] = rng.randint(6, 9)
            argv = ["expand", "--kind", "G", "--order", str(p["order"]), "--bind", "b=-1/2*a^2"]
        elif kind == "levy":
            p.update(order=rng.choice((20, 22, 24)), T=_u(rng, 0.2, 0.5, 3))
            argv = ["levy", "--order", str(p["order"]), "--T", _fmt(p["T"])]
        elif kind == "cameron-martin":
            p.update(order=rng.randint(10, 12), lam=_u(rng, 0.1, 0.3, 3))
            argv = ["cameron-martin", "--order", str(p["order"]), "--lam", _fmt(p["lam"])]
        elif kind == "bessel":
            T = _u(rng, 0.5, 1.0, 3)
            p.update(delta=float(rng.randint(0, 3)), T=T, x=_u(rng, 0.0, 1.5, 3))
            p["lam"] = _u(rng, 0.05, 0.4 / T, 3)
            argv = ["bessel", "--delta", _fmt(p["delta"]), "--lambda", _fmt(p["lam"]),
                    "--T", _fmt(p["T"]), "--x", _fmt(p["x"])]
        elif kind == "chaos2":
            p.update(flat=_u(rng, 0.5, 1.5, 3), grid=rng.choice((32, 64)))
            argv = ["chaos2", "--flat", _fmt(p["flat"]), "--grid", str(p["grid"]), "--order", "4"]
        elif kind == "signature":
            words = ["".join(rng.choice("12") for _ in range(rng.randint(1, 3))) for _ in range(2)]
            p.update(left=words[0], right=words[1], mode=rng.choice(("ito", "strat")),
                     T=_u(rng, 0.2, 1.0, 3))
            argv = ["signature", "--left", p["left"], "--right", p["right"], "--mode", p["mode"],
                    "--T", _fmt(p["T"])]
        elif kind == "riccati":
            p.update(kernel=rng.choice(("exp", "power")), nu=_u(rng, 0.2, 0.4, 3),
                     rho=_u(rng, -0.9, -0.3, 3), a=_u(rng, 0.1, 0.3, 3), b=_u(rng, 0.0, 0.2, 3),
                     steps=rng.choice((512, 1024)))
            argv = ["riccati", "--kernel", p["kernel"], "--nu", _fmt(p["nu"])]
            if p["kernel"] == "exp":
                p["lam"] = _u(rng, 0.5, 1.5, 3)
                argv += ["--lambda", _fmt(p["lam"])]
            else:
                p.update(alpha=_u(rng, 0.6, 0.8, 3), c=rng.choice((0.0, 0.1)))
                argv += ["--alpha", _fmt(p["alpha"]), "--c", _fmt(p["c"])]
            argv += ["--rho", _fmt(p["rho"]), "--a", _fmt(p["a"]), "--b", _fmt(p["b"]),
                     "--T", "1", "--steps", str(p["steps"])]
        elif kind == "mc-heston":
            p.update(seed=rng.getrandbits(32), xi0=_u(rng, 0.02, 0.06, 3), nu=_u(rng, 0.2, 0.4, 3),
                     lam=_u(rng, 0.5, 1.5, 3), rho=_u(rng, -0.9, -0.3, 3), a=_u(rng, 0.1, 0.3, 3),
                     b=_u(rng, 0.0, 0.2, 3))
            argv = ["mc", "--model", "Heston", "--paths", str(MC_PATHS), "--steps", str(MC_STEPS),
                    "--seed", str(p["seed"])]
            for k in ("xi0", "nu", "lam", "rho"):
                argv += ["--param", f"{k}={_fmt(p[k])}"]
            argv += ["--mgf", f"{_fmt(p['a'])},{_fmt(p['b'])},0.0"]
        elif kind == "verify-reorder":
            argv = ["verify", "reorder", "--order", str(rng.randint(6, 8))]
        elif kind == "verify-levy":
            argv = ["verify", "levy", "--order", str(rng.choice((20, 24)))]
        elif kind == "verify-cameron-martin":
            argv = ["verify", "cameron-martin", "--order", str(rng.randint(8, 12))]
        elif kind == "verify-chaos2":
            argv = ["verify", "chaos2"]
        else:
            argv = ["verify", "heston-riccati", "--steps", str(rng.choice((1024, 2048)))]
        return {"kind": kind, "argv": argv, "p": p}

    def split(self, request):
        """The same command in-process through ``cli.run``, so a traced run can
        tell start-up apart from the command and its rendering."""
        from diamond_forests import cli

        cli.run(request["argv"])

    def execute(self, request, ctx):
        code, out, err, rss = run_child(self.command(request["argv"]), self.env, self.root)
        self.peak_rss_mib = max(self.peak_rss_mib, rss)
        return code, out, err

    def check(self, request, output, ctx):
        code, out, err = output
        _require(code == 0, f"exit {code}: {err.decode(errors='replace').strip()[-300:]}")
        if request["kind"] == "expand-K-csv":
            rows = dict(csv.reader(io.StringIO(out.decode())))
            for m in range(1, request["p"]["order"] + 1):
                _require(int(rows[f"shape_counts.{m}"]) == wedderburn_etherington(m),
                         f"order {m} shape count in CSV")
            return
        env = json.loads(out)
        _require(env.get("schema") == SCHEMA_ID, "missing schema id")
        _require(env.get("command") == request["argv"][0], "wrong command in envelope")
        res, p, kind = env["result"], request["p"], request["kind"]
        if kind == "expand-K":
            n = p["order"]
            for m in range(1, n + 1):
                _require(res["shape_counts"][str(m)] == wedderburn_etherington(m),
                         f"order {m} shape count")
            for m in range(1, n):
                total = sum(2**m * Fraction(t["coeff"]) for t in res["orders"][str(m + 1)])
                _require(total == catalan(m), f"order {m + 1} Catalan sum")
        elif kind == "expand-G-bind":
            _require(res["all_zero"] is True, "b = -a^2/2 does not cancel G")
        elif kind == "levy":
            tan = tan_taylor_coefficients(p["order"])
            for n in range(2, p["order"] + 1):
                want = tan.get(n - 1, Fraction(0)) if n % 2 == 0 else Fraction(0)
                _require(Fraction(res["alpha"][str(n)]) == want, f"alpha_{n} vs tan series")
            gap = abs(res["cgf_partial"] + math.log(math.cos(p["T"])))
            _require(gap <= 1e-8, f"levy partial sum gap {gap:.3e}")
        elif kind == "cameron-martin":
            d = log_cosh_taylor_coefficients(p["order"])
            for n in range(1, p["order"] + 1):
                want = -d[n] * 2**n / 2
                _require(Fraction(res["cgf_coefficients"][str(n)]) == want, f"coefficient {n}")
            closed = -0.5 * math.log(math.cosh(math.sqrt(2 * p["lam"])))
            _require(abs(res["cgf_value"] - closed) <= 1e-6, "cgf value vs log-cosh")
        elif kind == "bessel":
            closed = float(bessel_laplace(p["x"], p["delta"], p["lam"], p["T"]))
            _require(_close(res["closed_form"], closed, 1e-12), "closed form")
            _require(abs(res["series"] - closed) <= 1e-8, "series vs closed form")
        elif kind == "chaos2":
            spectral = eigenvalue_cumulants(constant_kernel(1.0, p["grid"], p["flat"]), 4)
            for n in range(1, 5):
                _require(_close(res["eigenvalue_cumulants"][str(n)], spectral[n - 1], 1e-9),
                         f"eigenvalue cumulant {n}")
            for n in range(1, 4):
                _require(_close(res["cumulants"][str(n)], spectral[n - 1], 1e-9),
                         f"recursion cumulant {n} vs eigenvalues")
        elif kind == "signature":
            op = diamond_ito if p["mode"] == "ito" else diamond_strat
            left, right = p["left"], p["right"]
            expr = op(left[:-1], left[-1], right[:-1], right[-1])
            _require(res["terms"] == expr.to_json_list(), "terms differ from the library")
            _require(Fraction(res["sigma_left"]) == fawcett_sigma(left), "sigma of left word")
            _require(Fraction(res["sigma_right"]) == fawcett_sigma(right), "sigma of right word")
        elif kind == "riccati":
            _require(res["residual"] <= 10 * res["solver_tolerance"], "residual vs 10 x tolerance")
            if p["kernel"] == "exp":
                kern = KernelSpec.exponential(nu=p["nu"], lam=p["lam"])
                ref = heston_ode_reference(kern, p["rho"], p["a"], p["b"], np.asarray(res["grid"]))
                gap = float(np.max(np.abs(np.asarray(res["g"]) - ref)))
                _require(gap <= 1e-6, f"solve vs ODE reference {gap:.3e}")
        elif kind == "mc-heston":
            kern = KernelSpec.exponential(nu=p["nu"], lam=p["lam"])
            sol = solve_riccati(kern, p["rho"], p["a"], p["b"], 0.0, WINDOW, 1.0, 2048)
            exact = mgf_value(sol, 0.0, ForwardVarianceCurve.flat(p["xi0"]), 0.0, 0.0, 1.0)
            mgf = res["mgf"]
            se = mgf["std_error"] / mgf["value"]
            _require(abs(mgf["log_value"] - exact) <= MC_GATE_SE * se, "log-MGF vs solver")
        else:
            _require(res["passed"] is True, "suite reports a failed check")
            for c in res["checks"]:
                _require(c["measured"] <= c["tolerance"], f"check {c['name']!r}")

    def probe_known_defects(self) -> Dict[str, str]:
        """Outcome of each README command excluded from the mix as a known crash."""
        report = {}
        for argv in KNOWN_DEFECT_PROBES:
            code, _, err, _ = run_child(self.command(list(argv)), self.env, self.root)
            last = err.decode(errors="replace").strip().splitlines()[-1:] or [""]
            report[" ".join(argv)] = f"exit {code}" + (f": {last[0]}" if code else "")
        return report


def make(name: str, root: str) -> Workload:
    if name == CliCold.name:
        return CliCold(root)
    return {w.name: w for w in (ForestBuild, AffineExponent, McOracle)}[name]()
