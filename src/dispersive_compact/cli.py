"""Command-line front end: coefficient tables, spectra, resolving efficiency,
stability bounds, filter analysis, least-squares optimization, and the
experiment / convergence-study harness.  Every output file, CSV or JSON, is
written here; the library computes rows and documents.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import json
import os
import sys

import numpy as np

from . import exact, kdv, spectral
from .banded import SingularOperatorError
from .operators import FILTER_ORDERS, filter_by_name
from .timeint import DivergenceError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERICAL = 2


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems via exception (exit code 1)."""

    def error(self, message):
        raise UsageError(f"{self.prog}: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="dispersive-compact", description=__doc__)
    sub = parser.add_subparsers(dest="command", metavar="command")
    parser.commands = sub.choices  # command name -> its parser

    def cmd(name, help, handler):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--dump-config", metavar="PATH",
                       help="write the effective config as JSON and exit")
        p.add_argument("--out", help="output file (default stdout)")
        return p

    p = cmd("coeffs", "print exact scheme coefficients", _cmd_coeffs)
    p.add_argument("--scheme", default="TDCCS-T8")
    p.add_argument("--format", choices=["text", "json"], default="text")

    p = cmd("spectrum", "modified-wavenumber table as CSV", _cmd_spectrum)
    p.add_argument("--scheme", default="TDCCS-T8")
    p.add_argument("--samples", type=int, default=400)

    p = cmd("efficiency", "resolving-efficiency table as CSV", _cmd_efficiency)
    p.add_argument("--schemes", default="all",
                   help="comma list of scheme ids, or 'all'")
    p.add_argument("--eps", type=float, default=1e-3, help="tolerance eps_t")
    p.add_argument("--mode", choices=["band_edge", "strict"],
                   default="band_edge")

    p = cmd("stability", "spectral radius and CFL bound", _cmd_stability)
    p.add_argument("--scheme", default="TDCCS-T8")
    p.add_argument("--n", type=int, default=1024)

    p = cmd("filter-analyze", "filter transfer function as CSV", _cmd_filter_analyze)
    p.add_argument("--name", choices=sorted(FILTER_ORDERS), default="F12")
    p.add_argument("--alpha-f", dest="alpha_f", type=float, default=0.4)
    p.add_argument("--samples", type=int, default=400)

    p = cmd("ls-optimize", "least-squares optimized coefficients", _cmd_ls_optimize)
    p.add_argument("--family", default="TDCCS")
    p.add_argument("--variant", default="T8")
    p.add_argument("--r", type=float, default=1.0,
                   help="integration range as fraction of pi")
    p.add_argument("--format", choices=["text", "json"], default="text")

    def experiment_flags(p):
        p.add_argument("--example", default="linear",
                       choices=kdv.preset_names(), help="problem preset")
        p.add_argument("--c", type=float)
        p.add_argument("--eps", type=float)
        p.add_argument("--x0", type=float)
        p.add_argument("--scheme", default="TDCNCS", type=str.upper,
                       choices=list(kdv.FAMILY_OPS), help="family, any case")
        p.add_argument("--dt-rule", dest="dt_rule", default="cfl_h3",
                       choices=list(kdv.DT_RULES))
        p.add_argument("--cfl", type=float,
                       help="with --dt-rule cfl_h3 only (default 0.01)")
        p.add_argument("--dt", type=float, help="with --dt-rule fixed only")
        p.add_argument("--filter", help="NAME:ALPHA_F:EVERY, e.g. F12:0.4:20")
        p.add_argument("--t-final", dest="t_final", type=float)

    p = cmd("run", "integrate one experiment", _cmd_run)
    experiment_flags(p)
    p.add_argument("--N", dest="n", type=int, default=100)
    p.add_argument("--snapshot", help="final-state CSV path")

    p = cmd("converge", "convergence study over a list of N", _cmd_converge)
    experiment_flags(p)
    p.add_argument("--Ns", dest="ns", default="10,20,30,40",
                   help="comma list, e.g. 10,20,30,40")
    p.add_argument("--json", help="also write the report as JSON here")

    return parser


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as err:
        raise UsageError(
            f"{path}: JSON parse error at line {err.lineno} column {err.colno}"
        ) from None
    except OSError as err:
        raise UsageError(f"{path}: {err.strerror}") from None
    if not isinstance(doc, dict):
        raise UsageError(f"{path}: config must be a JSON object")
    return doc


# namespace entries that steer the front end rather than configure a command
_META = ("command", "config", "dump_config", "handler")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _attach_dash_values(parser: _Parser, argv) -> list:
    """argv with each ``--flag VALUE`` whose VALUE starts with '-' and reads
    as a float written ``--flag=VALUE``.  argparse takes such a VALUE for an
    option, unless it is a plain negative decimal, so ``--t-final -1e-3`` or
    ``--alpha-f -inf`` would stop at "expected one argument"."""
    takes_value = {s for command in parser.commands.values()
                   for a in command._actions if a.nargs is None
                   for s in a.option_strings}
    out = []
    for arg in sys.argv[1:] if argv is None else argv:
        if out and out[-1] in takes_value and arg.startswith("-") \
                and _is_float(arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def effective_config(parser: _Parser, argv) -> tuple[argparse.Namespace, dict]:
    """The parsed arguments and the command's settings: flag defaults,
    overridden by the --config file, overridden by explicit flags.  Each file
    value reaches its flag as ``--flag=VALUE`` ahead of the command line's
    own flags, so argparse converts and checks it as it does the same text
    on the command line, and a flag given there still wins."""
    argv = _attach_dash_values(parser, argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        flags = {a.dest: a for a in parser.commands[args.command]._actions
                 if a.dest not in (*_META, "help")}
        file_cfg = load_config(args.config)
        unknown = sorted(set(file_cfg) - set(flags))
        if unknown:
            raise UsageError(
                f"unknown config key(s) {', '.join(unknown)}; "
                f"valid: {', '.join(sorted(flags))}"
            )
        file_flags = []
        for key, val in file_cfg.items():
            if val is None and flags[key].default is not None:
                raise UsageError(
                    f"config key {key} cannot be {json.dumps(val)}")
            if val is not None:
                file_flags.append(f"{flags[key].option_strings[0]}={val}")
        at = argv.index(args.command) + 1
        args = parser.parse_args(argv[:at] + file_flags + argv[at:])
    return args, {k: v for k, v in vars(args).items() if k not in _META}


def _claim_outputs(cfg, created):
    """Open each output path for writing, without truncating it, before any
    computation, so the OS refuses what cannot be written.  Each file made
    here is appended to ``created``."""
    for key in ("out", "snapshot", "json"):
        path = cfg.get(key)
        if not path:
            continue
        new = not os.path.exists(path)
        try:
            # 0o666, as open() uses: os.open's default would add execute bits
            os.close(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666))
        except OSError as err:
            raise UsageError(f"--{key} {path}: {err.strerror}") from None
        if new:  # through a dangling link, the file made is the link's target
            created.append(os.path.realpath(path))


def _output(path):
    """The --out file opened for writing, or stdout (left open) without one."""
    if path is None:
        return contextlib.nullcontext(sys.stdout)
    return open(path, "w", newline="")


def _write_rows(path, header, rows):
    """CSV to ``path``, or stdout without one.  ``rows`` is a list built before
    the file opens, so a refused input leaves an existing file its bytes."""
    with _output(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, doc):
    with _output(path) as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _emit_coeffs(cfg, coeffs):
    if cfg["format"] == "json":
        _write_json(cfg["out"], coeffs.to_json_dict())
        return
    with _output(cfg["out"]) as fh:
        fh.write(f"{coeffs.family} (formal order {coeffs.formal_order})\n")
        for name, val in coeffs.as_dict().items():
            fh.write(f"  {name} = {val} = {float(val):+.12e}\n")


def _cmd_coeffs(cfg) -> int:
    _, coeffs = exact.builtin_scheme(cfg["scheme"])
    _emit_coeffs(cfg, coeffs)
    return EXIT_OK


def _samples(cfg) -> int:
    if cfg["samples"] < 2:
        raise UsageError(f"--samples must be >= 2, got {cfg['samples']}")
    return cfg["samples"]


def _cmd_spectrum(cfg) -> int:
    # w = k*pi/samples for 0 < k < samples: T4-type denominators vanish at pi
    omega = np.linspace(0.0, np.pi, _samples(cfg), endpoint=False)[1:]
    sym = spectral.scheme_symbol(cfg["scheme"])
    psi = sym.psi(omega)
    rel = psi / omega ** sym.derivative_order
    rows = [[f"{w:.10g}", f"{p:.12e}", f"{w ** 3:.12e}", f"{r:.12e}"]
            for w, p, r in zip(omega, psi, rel)]
    _write_rows(cfg["out"], ["omega", "psi", "omega_cubed", "R"], rows)
    return EXIT_OK


def _cmd_efficiency(cfg) -> int:
    if cfg["schemes"] == "all":
        # psi, and with it the efficiency, exists for odd derivative orders only
        ids = [sid for sid in spectral.analysis_scheme_ids()
               if spectral.scheme_symbol(sid).derivative_order % 2 == 1]
    else:
        ids = [s.strip() for s in cfg["schemes"].split(",") if s.strip()]
        if not ids:
            raise UsageError(f"--schemes names no scheme: {cfg['schemes']!r}")
    rows = []
    for sid in ids:
        res = spectral.resolving_efficiency(sid, cfg["eps"], cfg["mode"])
        rows.append([sid, f"{res.omega_f:.4f}", f"{res.e:.4f}"])
    _write_rows(cfg["out"], ["scheme", "omega_f", "e"], rows)
    return EXIT_OK


def _cmd_stability(cfg) -> int:
    spectral.scheme_symbol(cfg["scheme"]).require_odd()
    eigenvalues = spectral.circulant_eigenvalues(cfg["scheme"], cfg["n"])
    radius = float(np.max(np.abs(eigenvalues)))
    doc = {
        "scheme": cfg["scheme"],
        "n": cfg["n"],
        "integrator": "TVDRK3",
        "max_eigenvalue_modulus": radius,
        "imag_axis_limit": spectral.IMAG_AXIS_LIMIT_TVDRK3,
        "cfl_bound": spectral.IMAG_AXIS_LIMIT_TVDRK3 / radius,
    }
    _write_json(cfg["out"], doc)
    return EXIT_OK


def _cmd_filter_analyze(cfg) -> int:
    omega = np.linspace(0.0, np.pi, _samples(cfg))
    spec = filter_by_name(cfg["name"], cfg["alpha_f"])
    transfer = spec.transfer(omega)
    rows = [[f"{w:.10g}", f"{t:.12e}"] for w, t in zip(omega, transfer)]
    _write_rows(cfg["out"], ["omega", "T"], rows)
    return EXIT_OK


def _cmd_ls_optimize(cfg) -> int:
    coeffs = spectral.ls_optimize(cfg["family"], cfg["variant"], cfg["r"])
    _emit_coeffs(cfg, coeffs)
    return EXIT_OK


def parse_filter_flag(text: str) -> kdv.FilterConfig:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(
            f"bad --filter value {text!r}; expected NAME:ALPHA_F:EVERY"
        )
    name, alpha_f, every = parts
    try:
        return kdv.FilterConfig(name, float(alpha_f), int(every))
    except ValueError as err:
        raise UsageError(f"bad --filter value {text!r}: {err}") from None


def _problem_params(cfg) -> dict:
    return {k: cfg[k] for k in ("c", "eps", "x0") if cfg[k] is not None}


def _run_config(cfg) -> kdv.RunConfig:
    filt = parse_filter_flag(cfg["filter"]) if cfg["filter"] else None
    return kdv.RunConfig(dt_rule=cfg["dt_rule"], cfl=cfg["cfl"], dt=cfg["dt"],
                         filter=filt, t_final=cfg["t_final"])


def _snapshot_rows(result) -> list:
    """x, u and, with an exact solution, u_exact and |u - u_exact| at the
    nodes; the last two cells are empty without one."""
    x = result.disc.nodes()
    u = result.state.node_values if result.disc.dual else result.state.values
    if result.problem.exact is None:
        return [[f"{xi:.12g}", f"{ui:.12g}", "", ""] for xi, ui in zip(x, u)]
    ue = result.problem.exact(x, result.t_final)
    return [[f"{xi:.12g}", f"{ui:.12g}", f"{ei:.12g}", f"{abs(ui - ei):.12g}"]
            for xi, ui, ei in zip(x, u, ue)]


def _cmd_run(cfg) -> int:
    problem = kdv.make_problem(cfg["example"], **_problem_params(cfg))
    config = _run_config(cfg)
    disc = kdv.Discretization(cfg["scheme"], cfg["n"], problem.length,
                              problem.x_lo)
    result = kdv.integrate(problem, disc, config)
    if cfg["snapshot"]:
        _write_rows(cfg["snapshot"], ["x", "u_numeric", "u_exact", "abs_error"],
                    _snapshot_rows(result))
    summary = {
        "example": problem.name,
        "scheme": disc.third_scheme,
        "N": disc.n,
        "t_final": result.t_final,
        "dt": result.dt,
        "n_steps": result.n_steps,
        "mass_initial": result.mass_initial,
        "mass_final": result.mass_final,
        "mass_drift": result.mass_drift,
    }
    if result.norms is not None:
        summary["Linf"], summary["L1"], summary["L2"] = result.norms
    _write_json(cfg["out"], summary)
    return EXIT_OK


def _cmd_converge(cfg) -> int:
    try:
        ns = [int(s) for s in cfg["ns"].split(",") if s.strip()]
    except ValueError:
        raise UsageError(f"bad --Ns value {cfg['ns']!r}") from None
    report = kdv.convergence_study(
        cfg["example"], cfg["scheme"], ns, _run_config(cfg), _problem_params(cfg))
    rows = [["" if v is None else (v if isinstance(v, int) else f"{v:.6e}")
             for v in row] for row in report.rows()]
    _write_rows(cfg["out"], report.CSV_HEADER, rows)
    if cfg["json"]:
        _write_json(cfg["json"], report.to_json_dict())
    return EXIT_OK


def dispatch(argv=None) -> int:
    parser = build_parser()
    created = []  # output files this command made: removed unless it exits 0
    code = None
    try:
        args, cfg = effective_config(parser, argv)
        if args.command is None:
            parser.print_help()
            return EXIT_USAGE
        if args.dump_config:
            _write_json(args.dump_config, dict(sorted(cfg.items())))
            return EXIT_OK
        _claim_outputs(cfg, created)
        code = args.handler(cfg)
        return code
    except (DivergenceError, SingularOperatorError, exact.DerivationError) as err:
        # before ValueError: SingularOperatorError and DerivationError are ones
        print(f"numerical failure: {err}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (UsageError, ValueError, KeyError, OSError) as err:
        # OSError: a write that fails after the run, or --dump-config's
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if code != EXIT_OK:
            for path in created:
                with contextlib.suppress(OSError):
                    os.unlink(path)


def main() -> None:
    sys.exit(dispatch())


if __name__ == "__main__":
    main()
