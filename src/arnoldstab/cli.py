"""Batch command-line surface.

Subcommands assemble the library pieces into reproducible pipelines, and
each takes only the options its handler reads.  Every run echoes those
options, versions, seed (null where the subcommand takes none), and wall
time into a manifest.json in the output directory.  Every tabular result is
a CSV file written through `grid.write_csv` (or, for the rows `functional`
appends to functional.csv and the table `oracle` prints, through
`grid.csv_line`), so cells are formatted in one place and identical
configurations produce bit-identical files.
"""

from __future__ import annotations

import os

# honor the thread cap before numpy spins up its pools
_threads = os.environ.get("ARNOLD_STAB_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(_var, _threads)

import argparse
import json
import math
import re
import sys
import time

import numpy as np

from . import __version__
from . import dynamics, field, functionals, grid, harmonic, oracle, rearrange
from . import spectra, steady
from .errors import ConfigError, GridError, SolverError
from .svgplot import render_line_plot

_BOOLS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line like any other bad input: the usage,
    then one `config error:` line, and exit status 2.

    A token of a dash and a digit is a value, not an option, so negative
    numbers with an exponent (`--kappa -1e3`) or in a list (`--a -1,2`) are
    read like `--kappa -2`; no option of this parser starts with a digit.

    Flags are matched whole, like config-file keys: `--ri` is not `--rin`,
    and adding an option cannot make a working abbreviation ambiguous.  The
    subparsers are of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, "config error: %s\n" % message)


def _finite(text):
    """argparse type: a finite float (NaN and infinities are refused)."""
    try:
        value = float(text)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError("expected a finite number, got %r" % text)


def _positive(text):
    """argparse type: a finite float above 0."""
    value = _finite(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("expected a positive number, got %r" % text)
    return value


def _count(least):
    """argparse type: an int of at least `least`."""

    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(
                "expected an integer >= %d, got %r" % (least, text)
            )
        return value

    return parse


def _numbers(kind):
    """argparse type: comma-separated numbers of the given kind, as a tuple."""

    def parse(text):
        try:
            return tuple(kind(t) for t in text.split(",") if t.strip())
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                "expected comma-separated numbers, got %r" % text
            ) from None

    return parse


def _subcommands(parser):
    """The subcommand parsers of `build_parser()`, by name."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices


def _config_values(path, command, sp):
    """Option values for the subcommand parser sp from a key=value file;
    '#' starts a comment.  The keys are sp's option names (with dashes or
    underscores) and each value converts as the flag's would, so a file
    can set nothing that the command line could not."""
    actions = {a.dest: a for a in sp._actions if a.dest != "help"}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError("cannot read config file: %s" % exc)
    values = {}
    for lineno, line in enumerate(lines, 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        where = "%s:%d" % (path, lineno)
        if "=" not in line:
            raise ConfigError("%s: expected key=value" % where)
        key, text = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in actions:
            raise ConfigError("%s: unknown key %r for %s" % (where, key, command))
        try:
            values[key] = _convert(actions[key], text)
        except (ValueError, argparse.ArgumentTypeError) as exc:
            raise ConfigError("%s: bad value for %s: %s" % (where, key, exc))
    return values


def _convert(action, text):
    """A config-file value as the option's own parse would produce it."""
    if action.nargs == 0:  # a switch such as --quick
        if text.lower() not in _BOOLS:
            raise ValueError("expected 0 or 1, got %r" % text)
        return _BOOLS[text.lower()]
    value = action.type(text) if action.type else text
    if action.choices is not None and value not in action.choices:
        raise ValueError("%r is not one of %s" % (value, ", ".join(action.choices)))
    return value


def _read_input(reader, path, **kwargs):
    """Read an input file; a missing, unreadable or malformed file is a
    configuration error."""
    try:
        return reader(path, **kwargs)
    except (OSError, GridError) as exc:
        raise ConfigError("cannot read %s: %s" % (path, exc))


def _build_domain(args):
    if args.domain == "mask" and not args.mask_file:
        raise ConfigError("--domain mask requires --mask-file")
    try:
        if args.domain == "annulus":
            return grid.build_annulus(args.rin, args.rout, args.res)
        reader = grid.mask_from_pgm if args.mask_file.endswith(".pgm") else grid.mask_from_rle
        mask = _read_input(reader, args.mask_file)
        return grid.label_components(mask, h=1.0 / args.res)
    except GridError as exc:
        raise ConfigError("bad domain: %s" % exc)


def _circulations(args, dom):
    """--a as the circulation vector of dom."""
    try:
        return grid.as_circulation(args.a, dom)
    except GridError as exc:
        raise ConfigError("bad --a: %s" % exc)


def _parse_g(args):
    """The profile from --g, else g(s) = kappa s from --kappa; a malformed
    spec or an unreadable or invalid table is a configuration error."""
    spec = args.g
    if spec is None:
        if args.kappa is None:
            raise ConfigError("need --g or --kappa")
        return functionals.GFunc.linear(args.kappa)
    kind, _, rest = spec.partition(":")
    try:
        if kind == "linear":
            return functionals.GFunc.linear(_finite(rest))
        if kind == "affine":
            sl, off = rest.split(",")
            return functionals.GFunc.affine(_finite(sl), _finite(off))
        if kind == "table":
            data = np.loadtxt(rest, delimiter=",")
            return functionals.GFunc.tabulated(data[:, 0], data[:, 1])
    except (OSError, ValueError, IndexError, GridError, argparse.ArgumentTypeError) as exc:
        raise ConfigError("bad profile spec %r: %s" % (spec, exc))
    raise ConfigError("unknown profile spec %r" % spec)


def _outdir(args):
    os.makedirs(args.out, exist_ok=True)
    return args.out


def _write_manifest(out, args, t0, outputs):
    manifest = {
        "command": args.command,
        "argv": sys.argv[1:],
        "config": {k: v for k, v in sorted(vars(args).items()) if k != "func"},
        "package_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "seed": getattr(args, "seed", None),
        "thread_cap": _threads,
        "wall_time_s": round(time.time() - t0, 3),
        "outputs": outputs,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True, default=str)


def _basis(args):
    return harmonic.solve_basis(_build_domain(args))


# -- subcommand handlers -------------------------------------------------------


def _cmd_gen(args):
    out = _outdir(args)
    dom = _build_domain(args)
    grid.write_field(os.path.join(out, "domain.sfld"), dom.zeros())
    print(
        "domain: %dx%d nodes, %d interior, %d components, h=%g"
        % (dom.nx, dom.ny, dom.n_interior, dom.n_components, dom.h)
    )
    return ["domain.sfld"]


def _cmd_harmonic(args):
    out = _outdir(args)
    basis = _basis(args)
    outputs = []
    for i, z in enumerate(basis.zetas):
        name = "zeta_%d.sfld" % (i + 1)
        grid.write_field(os.path.join(out, name), z)
        outputs.append(name)
    grid.write_csv(
        os.path.join(out, "pq.csv"),
        ("i", "j", "p_ij", "q_ij"),
        [
            (i + 1, j + 1, basis.p[i, j], basis.q[i, j])
            for i in range(basis.n)
            for j in range(basis.n)
        ],
    )
    outputs.append("pq.csv")
    print("p =", basis.p)
    return outputs


def _load_omega(args, dom):
    if args.omega:
        return _read_input(grid.read_field, args.omega, domain=dom)
    if args.omega_const is not None:
        return dom.constant(args.omega_const)
    return dom.zeros()


def _cmd_stream(args):
    out = _outdir(args)
    basis = _basis(args)
    dom = basis.domain
    omega = _load_omega(args, dom)
    a = _circulations(args, dom)
    sol = field.stream_solve(basis, omega, a)
    vel = field.velocity(sol.psi)
    grid.write_field(os.path.join(out, "psi.sfld"), sol.psi)
    grid.write_field(os.path.join(out, "vx.sfld"), grid.ScalarField(dom, vel.vx))
    grid.write_field(os.path.join(out, "vy.sfld"), grid.ScalarField(dom, vel.vy))
    grid.write_csv(
        os.path.join(out, "diag.csv"),
        ("residual", *("flux_err_%d" % (k + 1) for k in range(len(a)))),
        [(sol.residual, *sol.flux_errors)],
    )
    print("residual %.3e, flux errors %s" % (sol.residual, sol.flux_errors))
    return ["psi.sfld", "vx.sfld", "vy.sfld", "diag.csv"]


def _cmd_functional(args):
    which = args.functional
    if which is None:
        raise ConfigError("need --functional (E, EC, D, Ds, Dhat or H)")
    out = _outdir(args)
    basis = _basis(args)
    dom = basis.domain
    omega = _load_omega(args, dom)
    a = _circulations(args, dom)
    gf = _parse_g(args)
    gext = _extended(gf, omega, basis, a)
    lp = functionals.legendre(gext)
    row = {"functional": which}
    if which == "E":
        row["value"] = functionals.energy(basis, omega, a)
    elif which == "EC":
        row["value"] = functionals.energy_casimir(basis, omega, a, lp)
    elif which == "D":
        row["value"] = functionals.supporting_d(basis, omega, a, gext)
    elif which == "Ds":
        m = args.m if args.m is not None else grid.integrate(omega)
        row["value"] = functionals.supporting_d_s(basis, omega, a, gext, args.s, m)
    elif which == "Dhat":
        m = args.m if args.m is not None else grid.integrate(omega)
        value, mu = functionals.supporting_d_hat(basis, omega, a, gext, m)
        row["value"] = value
        row["mu"] = mu
    else:  # H: the input field is the perturbed vorticity
        st = _make_steady(args, basis)
        phi = omega - st.omega_bar
        psi_pert = field.stream_solve(basis, phi, np.zeros(len(a))).psi
        row["value"] = functionals.stream_energy_casimir(psi_pert, lp, st)
    path = os.path.join(out, "functional.csv")
    new = not os.path.exists(path)
    with open(path, "a") as fh:
        if new:
            fh.write(grid.csv_line(("functional", "value", "mu")) + "\n")
        fh.write(grid.csv_line((which, row["value"], row.get("mu", float("nan")))) + "\n")
    print(which, "=", row["value"])
    return ["functional.csv"]


def _extended(gf, omega, basis, a):
    if gf.has_linear_tails:
        return gf
    sol = field.stream_solve(basis, omega, a)
    lo = float(sol.psi.values.min()) - 1.0
    hi = float(sol.psi.values.max()) + 1.0
    return functionals.extend_g(gf, lo, hi)


def _cmd_spectra(args):
    out = _outdir(args)
    basis = _basis(args)
    gf = _parse_g(args) if (args.g or args.kappa is not None) else functionals.GFunc.linear(0.0)
    st = _make_steady(args, basis, gf)
    report = spectra.check_stability(basis, st)
    lam = spectra.lambda_plain(basis)
    big = spectra.lambda_big(basis)
    report.write_csv(os.path.join(out, "criterion.csv"))
    grid.write_field(os.path.join(out, "lambda_minimizer.sfld"), lam.minimizer)
    grid.write_field(os.path.join(out, "p_maximizer.sfld"), big.minimizer)
    print(
        "lambda=%.6f Lambda=%.6f lambda*Lambda-1=%.2e criterion_ok=%s arnold_ok=%s"
        % (lam.value, big.value, lam.value * big.value - 1.0, report.criterion_ok, report.arnold_ok)
    )
    return ["criterion.csv", "lambda_minimizer.sfld", "p_maximizer.sfld"]


def _cmd_steady(args):
    out = _outdir(args)
    basis = _basis(args)
    st = _make_steady(args, basis)
    grid.write_field(os.path.join(out, "psi_bar.sfld"), st.psi_bar)
    grid.write_field(os.path.join(out, "omega_bar.sfld"), st.omega_bar)
    st.write_csv(os.path.join(out, "steady.csv"))
    print(
        "steady: residual %.3e, psi in [%g, %g], mass %g, certified %s"
        % (st.residual_pde, st.psi_min, st.psi_max, st.mass, st.certified)
    )
    return ["psi_bar.sfld", "omega_bar.sfld", "steady.csv"]


def _make_steady(args, basis, gf=None):
    """Steady state of the profile gf (default: --g or --kappa) with the
    circulations --a: linear profiles by `steady_linear`, the others by
    `steady_newton`."""
    gf = _parse_g(args) if gf is None else gf
    a = _circulations(args, basis.domain)
    if gf.kind == "linear":
        return steady.steady_linear(basis, gf.slope, a)
    return steady.steady_newton(basis, gf, a)


def _cmd_probe(args):
    out = _outdir(args)
    basis = _basis(args)
    st = _make_steady(args, basis)
    report = spectra.check_stability(basis, st)
    if not report.criterion_ok:
        print("warning: stability criterion not satisfied; probe is exploratory")
    gext = functionals.extend_g(st.g, st.psi_min, st.psi_max)
    lp = functionals.legendre(gext)
    radius = args.radius_frac * grid.lp_norm(st.omega_bar)
    local = rearrange.local_max_probe(basis, st, radius, args.samples, args.seed)
    sup = rearrange.supporting_probe(basis, st, gext, max(10, args.samples // 4), args.seed, lp)
    local.write_csv(os.path.join(out, "probe.csv"))
    sup.write_csv(os.path.join(out, "supporting.csv"))
    print(
        "local max probe: %d samples, %d violations, max excess %.3e, clean radius %.4f"
        % (local.n_samples, local.violations, local.max_excess, local.clean_radius)
    )
    print(
        "supporting probe: %d samples, %d chain violations"
        % (sup.n_samples, sup.violations)
    )
    return ["probe.csv", "supporting.csv"]


def _cmd_simulate(args):
    out = _outdir(args)
    basis = _basis(args)
    st = _make_steady(args, basis)
    mode, _, amp = args.perturb.partition(":")
    try:
        spec = dynamics.PerturbationSpec(
            mode=mode or "none", amplitude=float(amp or 0.0), seed=args.seed, b_offset=args.b_offset
        )
    except ValueError as exc:  # a GridError is one too
        raise ConfigError("bad perturbation %r: %s" % (args.perturb, exc))
    omega0, b = dynamics.perturb(st, spec)
    t_final = args.t_final
    if t_final is None:
        t_final = args.turnovers * dynamics.turnover_time(basis, st.omega_bar, st.a)
    gext = functionals.extend_g(st.g, st.psi_min, st.psi_max)
    try:
        cfg = dynamics.SimConfig(
            t_final=t_final,
            cfl=args.cfl,
            monitor_every=args.cadence,
            reference=st.omega_bar,
            legendre=functionals.legendre(gext),
        )
    except GridError as exc:
        raise ConfigError("bad time integration: %s" % exc)
    outputs = ["series.csv"]

    def snapshot(state):
        if args.snap_every and state.step_index % args.snap_every == 0:
            name = "omega_%06d.sfld" % state.step_index
            grid.write_field(os.path.join(out, name), state.omega)
            outputs.append(name)

    series = dynamics.run(basis, omega0, b, cfg, on_monitor=snapshot)
    series.write_csv(os.path.join(out, "series.csv"))
    grid.write_field(os.path.join(out, "omega_final.sfld"), series.final_omega)
    outputs.append("omega_final.sfld")
    print(
        "simulated to t=%g; sup distance to reference %.4e"
        % (t_final, series.sup_dist)
    )
    return outputs


def _cmd_oracle(args):
    try:
        rp = oracle.RadialProblem(args.rin, args.rout, args.n)
    except GridError as exc:
        raise ConfigError("bad radial problem: %s" % exc)
    zeta, p11, q11 = oracle.annulus_closed_forms(args.rin, args.rout)
    rows = [
        ("p11", p11),
        ("q11", q11),
        ("lambda_Y", oracle.radial_eigen(rp, "lambda_Y")),
        ("lambda_dirichlet", oracle.radial_eigen(rp, "dirichlet")),
    ]
    for cells in [("name", "value"), *rows]:
        print(grid.csv_line(cells))
    return []


def _cmd_report(args):
    if not args.csv:
        raise ConfigError("report needs --csv")
    if args.out is None:  # the plot and the manifest go beside the CSV
        args.out = os.path.dirname(args.csv) or "."
    target = os.path.join(_outdir(args), args.svg)
    render_line_plot(args.csv, target, x=args.x, ys=args.ys.split(",") if args.ys else None)
    print("wrote", target)
    return [os.path.basename(target)]


def _cmd_verify_all(args):
    from . import acceptance

    out = _outdir(args)
    ctx = acceptance.AcceptanceContext(out_dir=out, quick=args.quick, seed=args.seed)
    results = acceptance.run(ctx, ids=args.criteria)
    acceptance.write_summary(results, os.path.join(out, "acceptance.csv"))
    n_fail = sum(1 for r in results if not r.passed)
    print(acceptance.summary_table(results))
    return ["acceptance.csv"], (4 if n_fail else 0)


# every option once: its flag and its add_argument settings
_OPTIONS = {
    "domain": dict(default="annulus", choices=["annulus", "mask"]),
    "rin": dict(type=_finite, default=1.0),
    "rout": dict(type=_finite, default=2.0),
    "res": dict(type=_count(1), default=32),
    "mask-file": dict(default=None),
    "out": dict(default="out"),
    "g": dict(default=None, help="linear:K | affine:K,C | table:FILE"),
    "kappa": dict(type=_finite, default=None),
    "a": dict(type=_numbers(_finite), default="1.0", help="comma-separated circulations"),
    "omega": dict(default=None, help="vorticity field file"),
    "omega-const": dict(type=_finite, default=None),
    "functional": dict(default=None, choices=["E", "EC", "D", "Ds", "Dhat", "H"]),
    "s": dict(type=_finite, default=0.0),
    "m": dict(type=_finite, default=None, help="mass (default: that of omega)"),
    "seed": dict(type=int, default=20240801),
    "radius-frac": dict(type=_positive, default=0.1),
    "samples": dict(type=_count(1), default=200),
    "b-offset": dict(type=_finite, default=0.0),
    "turnovers": dict(type=_finite, default=1.0),
    "t-final": dict(type=_finite, default=None, help="overrides --turnovers"),
    "cfl": dict(type=_finite, default=0.5),
    "perturb": dict(default="none:0", help="swap:AMP | bump:AMP | none:0"),
    "cadence": dict(type=_count(1), default=8),
    "snap-every": dict(type=_count(0), default=0),
    "n": dict(type=int, default=4096),
    "csv": dict(default=None),
    "x": dict(default=None),
    "ys": dict(default=None),
    "svg": dict(default="plot.svg"),
    "quick": dict(action="store_true", default=False),
    "criteria": dict(type=_numbers(int), default=None, help="comma-separated criterion ids"),
}

_DOMAIN = ("domain", "rin", "rout", "res", "mask-file", "out")  # the grid, and where outputs go
_STEADY = (*_DOMAIN, "g", "kappa", "a")

# each subcommand takes the options its handler reads, and no others
_COMMANDS = {
    "gen": _DOMAIN,
    "harmonic": _DOMAIN,
    "stream": (*_DOMAIN, "a", "omega", "omega-const"),
    "functional": (*_STEADY, "functional", "omega", "omega-const", "s", "m"),
    "spectra": _STEADY,
    "steady": _STEADY,
    "probe": (*_STEADY, "seed", "radius-frac", "samples"),
    "simulate": (
        *_STEADY, "seed", "b-offset", "turnovers", "t-final", "cfl", "perturb", "cadence",
        "snap-every",
    ),
    "oracle": ("rin", "rout", "n"),
    "report": ("out", "csv", "x", "ys", "svg"),
    "verify-all": ("seed", "out", "quick", "criteria"),
}


def build_parser():
    """The command-line parser: the one declaration of every option's name,
    type and default, for flags and config files alike."""
    p = _Parser(
        prog="arnoldstab",
        description="Stability toolkit for steady 2D ideal flows in multiply-connected domains",
    )
    p.add_argument("--config", help="key=value file of option values (flags override)")
    sub = p.add_subparsers(dest="command", required=True)
    for name, options in _COMMANDS.items():
        sp = sub.add_parser(name)
        for option in options:
            sp.add_argument("--" + option, **_OPTIONS[option])
        # looked up here, not bound at import, so a replaced handler is the one run
        sp.set_defaults(func=globals()["_cmd_" + name.replace("-", "_")])
    sub.choices["report"].set_defaults(out=None)  # the directory of --csv
    return p


def main(argv=None) -> int:
    """Run one subcommand.  An option takes its value from the command line,
    else from the --config file, else from `build_parser`."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.config:
        sp = _subcommands(parser)[args.command]
        try:
            sp.set_defaults(**_config_values(args.config, args.command, sp))
        except ConfigError as exc:
            print("config error: %s" % exc, file=sys.stderr)
            return 2
        args = parser.parse_args(argv)

    t0 = time.time()
    try:
        result = args.func(args)
    except ConfigError as exc:
        print("config error: %s" % exc, file=sys.stderr)
        return 2
    except (SolverError, GridError) as exc:
        print("solver error: %s" % exc, file=sys.stderr)
        return 3

    code = 0
    if isinstance(result, tuple):
        outputs, code = result
    else:
        outputs = result or []
    if args.command != "oracle":
        try:
            _write_manifest(_outdir(args), args, t0, outputs)
        except OSError as exc:  # pragma: no cover
            print("warning: manifest not written: %s" % exc, file=sys.stderr)
    return code


def entry():  # console script
    sys.exit(main())


if __name__ == "__main__":
    entry()
