"""Command-line front end.

Grammar: ``locact <analyze|witness|fhn|rd-cell|genericity> [flags]``.
Every tolerance a command uses is exposed as ``--tol.<name>=<value>``, and
a command rejects the keys it does not use; output is machine-first JSON
(17-significant-digit floats, fixed key order) plus CSV where a command
emits trajectories or sweeps.

Exit codes: 0 = a verdict/report was produced, 2 = input error,
3 = no witness available (``witness`` on a non-Active system).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys as _sysmod
from dataclasses import fields

import numpy as np

from . import activity, complexity, genericity, linsys, nonlinear, signals
from .errors import LocactError, StageError
from .serialize import dumps_canonical, format_csv_row

_WITNESS_KEYS = tuple(f.name for f in fields(activity.WitnessSearchConfig))
_CLASSIFIER_KEYS = tuple(f.name for f in fields(complexity.ClassifierTolerances))
# the --tol.* keys that reach a call of each command
_COMMAND_KEYS = {
    "analyze": ("proj_tol", *_WITNESS_KEYS),
    "witness": ("proj_tol", *_WITNESS_KEYS),
    "fhn": (*_WITNESS_KEYS, *_CLASSIFIER_KEYS),
    "rd-cell": _WITNESS_KEYS,
    "genericity": ("genericity_tol",),
}
_TOL_KEYS = set().union(*_COMMAND_KEYS.values())


class InputError(Exception):
    pass


def _extract_tol_flags(argv):
    """Pull ``--tol.<name>=<value>`` tokens out of argv before argparse."""
    overrides = {}
    rest = []
    for token in argv:
        if token.startswith("--tol."):
            body = token[len("--tol."):]
            if "=" not in body:
                raise InputError(f"malformed tolerance flag: {token}")
            key, _, value = body.partition("=")
            if key not in _TOL_KEYS:
                raise InputError(
                    f"unknown tolerance key '{key}' "
                    f"(known: {', '.join(sorted(_TOL_KEYS))})"
                )
            try:
                overrides[key] = float(value)
            except ValueError as exc:
                raise InputError(f"bad tolerance value in {token}") from exc
            if not math.isfinite(overrides[key]):
                raise InputError(f"tolerance value in {token} must be finite")
        else:
            rest.append(token)
    return overrides, rest


def _config(cls, overrides):
    """The tolerance dataclass ``cls`` with the ``--tol.*`` overrides of its
    fields."""
    kwargs = {f.name: overrides[f.name] for f in fields(cls) if f.name in overrides}
    if "quad_steps_per_unit_time" in kwargs:
        steps = kwargs["quad_steps_per_unit_time"]
        if not steps.is_integer():
            raise InputError(f"quad_steps_per_unit_time must be an integer, got {steps}")
        kwargs["quad_steps_per_unit_time"] = int(steps)
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise InputError(f"bad tolerance value: {exc}") from exc


def _load_system(matrix_path, projection_path, overrides):
    try:
        A = linsys.load_matrix(matrix_path)
        P = linsys.load_matrix(projection_path)
    except (OSError, ValueError, LocactError) as exc:
        raise InputError(str(exc)) from exc
    try:
        return linsys.make_system(A, P, proj_tol=overrides.get("proj_tol",
                                                               linsys.PROJ_TOL))
    except (ValueError, LocactError) as exc:
        raise InputError(str(exc)) from exc


def _write(text, path):
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc.strerror or exc}") from exc


def _emit(report, output):
    text = dumps_canonical(report) + "\n"
    if output is not None:
        _write(text, output)
    else:
        _sysmod.stdout.write(text)


def cmd_analyze_linear(matrix_path, projection_path, overrides, output=None):
    sys = _load_system(matrix_path, projection_path, overrides)
    cfg = _config(activity.WitnessSearchConfig, overrides)
    try:
        generic = genericity.in_generic_M(sys)
        gen = generic.to_json()
    except LocactError as exc:
        generic, gen = None, {"error": str(exc)}
    verdict = activity.classify_activity(sys, cfg, generic)
    report = {"activity": verdict.to_json(), "genericity": gen}
    _emit(report, output)
    return 0


def cmd_witness(matrix_path, projection_path, overrides, output=None,
                csv_path=None):
    sys = _load_system(matrix_path, projection_path, overrides)
    cfg = _config(activity.WitnessSearchConfig, overrides)
    verdict = activity.classify_activity(sys, cfg)
    if verdict.status != activity.ACTIVE or verdict.witness is None:
        report = {"status": verdict.status, "witness": None,
                  "notes": verdict.notes}
        _emit(report, output)
        return 3
    wit = verdict.witness
    steps = activity.default_quad_steps(wit.T, cfg)
    traj = linsys.solve_forced(sys, wit.signal, wit.T, steps)
    u_vals = signals.eval_signal(wit.signal, traj.times)
    integrand = np.einsum("ij,ij->i", traj.states, u_vals @ sys.P.T)
    header = ["t"] + [f"x{i + 1}" for i in range(sys.n)] \
        + [f"u{i + 1}" for i in range(sys.n)] + ["integrand"]
    rows = np.column_stack((traj.times, traj.states, u_vals, integrand)).tolist()
    csv_text = "\n".join([",".join(header), *map(format_csv_row, rows)]) + "\n"
    if csv_path is not None:
        _write(csv_text, csv_path)
    report = {
        "status": verdict.status,
        "witness": wit.to_json(),
        "notes": verdict.notes,
        "trajectory_csv": csv_path,
    }
    _emit(report, output)
    if csv_path is None:
        _sysmod.stdout.write(csv_text)
    return 0


def cmd_fhn(mu, beta, gamma, xi, overrides, output=None, sweep=None,
            sweep_csv=None):
    for name, value in (("mu", mu), ("beta", beta), ("gamma", gamma), ("xi", xi)):
        if not np.isfinite(value):
            raise InputError(f"--{name} must be finite, got {value}")
    cfg = _config(activity.WitnessSearchConfig, overrides)
    tols = _config(complexity.ClassifierTolerances, overrides)
    report = {"params": {"mu": mu, "beta": beta, "gamma": gamma, "xi": xi}}
    try:
        report["pipeline"] = nonlinear.analyze_equilibrium_pipeline(
            nonlinear.fhn_system(mu, beta, gamma, xi),
            nonlinear.fhn_equilibrium_guesses(mu, beta, gamma, xi)[0], cfg, tols)
    except StageError as exc:
        report["pipeline"] = {"error": str(exc), "stage": exc.stage}

    if sweep is not None:
        lo, hi, count = sweep
        mus = np.linspace(lo, hi, count)
        rows = [None] * count
        # continuation: each Newton solve starts from the previous root
        points = []
        x_guess = None
        for i, m in enumerate(mus):
            try:
                sysm = nonlinear.fhn_system(m, beta, gamma, xi)
                guess = x_guess if x_guess is not None else \
                    nonlinear.fhn_equilibrium_guesses(m, beta, gamma, xi)[0]
                eq = nonlinear.find_equilibrium(sysm, guess)
                x_guess = eq.x_star
                points.append((i, eq))
            except LocactError as exc:
                rows[i] = (float(m), "error", str(exc), "", "")

        def classify(J):
            return complexity.edge_of_chaos_classify(complexity.one_port_rational(J), tols)

        # the converged points classified as one stack, each row bit for bit
        # the point alone; a stack raises if any point fails, and then each
        # point is classified alone, so that a failing one gets its error row
        try:
            edges = classify(np.array([eq.jacobian_kinetic for _, eq in points])
                             .reshape(-1, 2, 2))
        except LocactError:
            edges = []
            for i, eq in points:
                try:
                    edges.append(classify(eq.jacobian_kinetic))
                except LocactError as exc:
                    rows[i] = (float(mus[i]), "error", str(exc), "", "")
            points = [(i, eq) for i, eq in points if rows[i] is None]
        abscissas = []
        # per matrix, a stacked spectrum equals the spectrum of that matrix alone
        full = np.array([eq.jacobian_full for _, eq in points]).reshape(-1, 2, 2)
        max_res = np.linalg.eigvals(full).real.max(axis=1).tolist()
        for (i, eq), edge, max_re in zip(points, edges, max_res):
            m = float(mus[i])
            rows[i] = (m, float(eq.x_star[0]), float(eq.x_star[1]), max_re,
                       edge.edge_of_chaos)
            abscissas.append((m, max_re))
        csv_lines = ["mu,x_d,y_d,maxReEig_full,edge_of_chaos"]
        csv_lines += [format_csv_row(r) for r in rows]
        csv_text = "\n".join(csv_lines) + "\n"
        if sweep_csv is not None:
            _write(csv_text, sweep_csv)
        mu_star = None
        for (m0, p0), (m1, p1) in zip(abscissas[:-1], abscissas[1:]):
            if np.sign(p0) != np.sign(p1) and p0 != 0.0:
                try:
                    res = nonlinear.hopf_locate(
                        lambda m: nonlinear.fhn_system(m, beta, gamma, xi), m0, m1)
                    mu_star = {"mu": res.mu_star, "is_hopf": res.is_hopf,
                               "equilibrium": res.equilibrium.tolist()}
                except LocactError as exc:
                    mu_star = {"error": str(exc)}
                break
        report["sweep"] = {"points": len(rows), "csv": sweep_csv,
                           "hopf": mu_star}
        if sweep_csv is None:
            report["sweep"]["rows"] = [list(r) for r in rows]
    _emit(report, output)
    return 0


_RD_KEYS = ("N", "boundary", "m", "n", "D", "kinetics", "guesses")
_RD_KINETICS = {"fhn": ("type", *nonlinear.FHN_DEFAULTS), "linear": ("type", "A")}
_RD_MAX_N = 64  # the report embeds the N^2 x N^2 Laplacian: 2^24 entries at most


def _spec_keys(obj, known, where):
    """Reject a key the spec level does not know, so a misspelt key cannot
    leave its default in force without a word."""
    for key in obj:
        if key not in known:
            raise InputError(f"unknown key '{key}' in {where} (known: {', '.join(known)})")


def _spec_int(value, key):
    """An integer spec value: an int or an integral float, not a bool."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise InputError(f"'{key}' must be an integer, got {value!r}")
    return int(value)


def _spec_float(value, key):
    """A finite spec number: a JSON int or float, not a bool or a string."""
    if type(value) not in (int, float):
        raise InputError(f"'{key}' must be a number, got {value!r}")
    try:
        value = float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"'{key}' is out of range: {exc}") from exc
    if not math.isfinite(value):
        raise InputError(f"'{key}' must be finite, got {value}")
    return value


def _spec_floats(values, key):
    if not isinstance(values, list):
        raise InputError(f"'{key}' must be a list of numbers, got {values!r}")
    return [_spec_float(v, key) for v in values]


def cmd_rd_cell(spec_path, overrides, output=None):
    try:
        with open(spec_path, "r", encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read model spec: {exc}") from exc
    if not isinstance(spec, dict):
        raise InputError("the model spec must be a JSON object")
    _spec_keys(spec, _RD_KEYS, "the model spec")
    try:
        N = _spec_int(spec.get("N", 1), "N")
        boundary = spec.get("boundary", "dirichlet")
        m = _spec_int(spec["m"], "m")
        n = _spec_int(spec["n"], "n")
        D = _spec_floats(spec["D"], "D")
        kin = spec["kinetics"]
        kind = kin["type"]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"malformed model spec: {exc}") from exc
    if N > _RD_MAX_N:
        raise InputError(f"'N' must be at most {_RD_MAX_N}, got {N}")
    if not isinstance(boundary, str):
        raise InputError(f"'boundary' must be a string, got {boundary!r}")
    if not isinstance(kind, str) or kind not in _RD_KINETICS:
        raise InputError(f"unknown kinetics '{kind}' (choose from {tuple(_RD_KINETICS)})")
    _spec_keys(kin, _RD_KINETICS[kind], f"'{kind}' kinetics")
    if not (1 <= m <= n):
        raise InputError(f"need 1 <= m <= n, got m={m}, n={n}")
    if len(D) != m:
        raise InputError(f"expected {m} diffusion coefficients, got {len(D)}")

    if kind == "fhn":
        if (m, n) != (1, 2):
            raise InputError("fhn kinetics requires m=1, n=2")
        params = {k: _spec_float(kin.get(k, d), k) for k, d in
                  nonlinear.FHN_DEFAULTS.items()}
        f = nonlinear.fhn_system(**params).f
        default_guess = nonlinear.fhn_equilibrium_guesses(**params)[0]
    else:
        if not isinstance(kin.get("A"), list):
            raise InputError("linear kinetics needs a matrix 'A' (a list of rows)")
        rows = [_spec_floats(row, "A") for row in kin["A"]]
        if len(rows) != n or any(len(row) != n for row in rows):
            raise InputError(f"kinetics matrix must be {n}x{n}")
        A_kin = np.array(rows)
        # one product per row block: A_kin @ x rounds differently
        f = lambda x: np.concatenate((A_kin[:m] @ x, A_kin[m:] @ x))
        default_guess = np.zeros(n)

    try:
        cell = nonlinear.rd_single_cell(f, D, m, n)
        lap = nonlinear.discrete_laplacian(N, boundary)
    except (LocactError, ValueError) as exc:
        raise InputError(str(exc)) from exc
    cfg = _config(activity.WitnessSearchConfig, overrides)
    guesses = spec.get("guesses") or []
    if not isinstance(guesses, list):
        raise InputError(f"'guesses' must be a list of points, got {guesses!r}")
    guesses = [_spec_floats(g, "guesses") for g in guesses] or [default_guess.tolist()]
    reports = []
    for guess in guesses:
        try:
            reports.append(nonlinear.analyze_equilibrium_pipeline(
                cell, np.asarray(guess, dtype=float), cfg))
        except StageError as exc:
            reports.append({"error": str(exc), "stage": exc.stage})
    out = {
        "spec": {"N": N, "boundary": boundary, "m": m, "n": n, "D": D,
                 "kinetics": kind},
        "laplacian": lap.tolist(),
        "reports": reports,
    }
    _emit(out, output)
    return 0


# a draw of n x n Gaussian entries: 2^24 at most, as rd-cell's N bound
_GENERICITY_MAX_N = 4096


def cmd_genericity(n, samples, seed, overrides, output=None):
    if n < 1:
        raise InputError("n must be at least 1")
    if n > _GENERICITY_MAX_N:
        raise InputError(f"--n must be at most {_GENERICITY_MAX_N}, got {n}")
    if samples < 1:
        raise InputError("samples must be at least 1")
    tol = overrides.get("genericity_tol", genericity.GENERICITY_TOL)
    try:
        fraction = genericity.sample_density_M(n, samples, seed, tol=tol)
    except ValueError as exc:
        raise InputError(f"bad tolerance value: {exc}") from exc
    report = {"n": n, "samples": samples, "seed": seed,
              "fraction": fraction, "tol": tol}
    _emit(report, output)
    return 0


# 100,000 sweep points take about 8 s and 0.3 GB (2-core x86); a count far
# beyond that fails on its first allocation
_SWEEP_MAX_STEPS = 100_000


def _parse_sweep(text):
    parts = text.split(":")
    if len(parts) != 3:
        raise InputError("--sweep expects lo:hi:steps")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise InputError(f"bad --sweep value: {exc}") from exc
    if not (math.isfinite(lo) and math.isfinite(hi) and math.isfinite(hi - lo)):
        raise InputError("--sweep needs finite lo, hi and hi - lo")
    if count < 2 or not lo < hi:
        raise InputError("--sweep needs lo < hi and steps >= 2")
    if count > _SWEEP_MAX_STEPS:
        raise InputError(f"--sweep takes at most {_SWEEP_MAX_STEPS} steps, got {count}")
    return lo, hi, count


def build_parser():
    parser = argparse.ArgumentParser(
        prog="locact",
        description="Local activity / passivity analysis of linear and "
                    "linearized port systems",
        epilog="Tolerances --tol.<name>=<value>, by command: " + "; ".join(
            f"{cmd}: {', '.join(keys)}" for cmd, keys in _COMMAND_KEYS.items()),
    )
    parser.add_argument("--seed", type=int, default=None,
                        help="RNG seed of 'genericity' (fallback: env LOCACT_SEED, "
                             "then 0); other commands reject it")
    parser.add_argument("--output", type=str, default=None,
                        help="write the JSON report here instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a linear port system (A, P)")
    p.add_argument("matrix", help="path to the system matrix A (JSON or text)")
    p.add_argument("projection", help="path to the projection matrix P")

    p = sub.add_parser("witness", help="emit a verified activity witness + CSV")
    p.add_argument("matrix")
    p.add_argument("projection")
    p.add_argument("--csv", type=str, default=None,
                   help="write the sampled trajectory CSV here")

    p = sub.add_parser("fhn", help="FitzHugh-Nagumo pipeline / parameter sweep")
    for name, default in nonlinear.FHN_DEFAULTS.items():
        p.add_argument(f"--{name}", type=float, default=default)
    p.add_argument("--sweep", type=str, default=None, metavar="LO:HI:STEPS")
    p.add_argument("--sweep-csv", type=str, default=None)

    p = sub.add_parser("rd-cell", help="single reaction-diffusion cell pipeline")
    p.add_argument("spec", help="path to the model spec JSON")

    p = sub.add_parser("genericity", help="statistical density of the generic set")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=1000)

    return parser


def main(argv=None) -> int:
    try:
        code = _main(argv)
        _sysmod.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout: what is still buffered goes to devnull,
        # so the flush at interpreter exit does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), _sysmod.stdout.fileno())
        return 2
    return code


def _main(argv):
    argv = list(_sysmod.argv[1:] if argv is None else argv)
    try:
        overrides, rest = _extract_tol_flags(argv)
        parser = build_parser()
        try:
            args = parser.parse_args(rest)
        except SystemExit as exc:
            return 2 if exc.code not in (0, None) else 0
        taken = _COMMAND_KEYS[args.command]
        ignored = sorted(set(overrides) - set(taken))
        if ignored:
            raise InputError(
                f"tolerance key '{ignored[0]}' has no effect on "
                f"'{args.command}' (it takes: {', '.join(taken)})"
            )
        if args.seed is not None and args.command != "genericity":
            raise InputError(f"--seed has no effect on '{args.command}' "
                             "(only 'genericity' takes it)")
        for flag in ("output", "csv", "sweep_csv"):
            if getattr(args, flag, None) == "":
                raise InputError(f"--{flag.replace('_', '-')} needs a file path")
        if args.command == "analyze":
            return cmd_analyze_linear(args.matrix, args.projection, overrides,
                                      output=args.output)
        if args.command == "witness":
            return cmd_witness(args.matrix, args.projection, overrides,
                               output=args.output, csv_path=args.csv)
        if args.command == "fhn":
            sweep = _parse_sweep(args.sweep) if args.sweep is not None else None
            if sweep is None and args.sweep_csv is not None:
                raise InputError("--sweep-csv has no effect without --sweep")
            return cmd_fhn(args.mu, args.beta, args.gamma, args.xi, overrides,
                           output=args.output, sweep=sweep,
                           sweep_csv=args.sweep_csv)
        if args.command == "rd-cell":
            return cmd_rd_cell(args.spec, overrides, output=args.output)
        if args.command == "genericity":
            seed = args.seed
            if seed is None:
                try:
                    seed = int(os.environ.get("LOCACT_SEED", "0"))
                except ValueError as exc:
                    raise InputError(f"bad LOCACT_SEED value: {exc}") from exc
            return cmd_genericity(args.n, args.samples, seed, overrides,
                                  output=args.output)
    except InputError as exc:
        _sysmod.stdout.write(dumps_canonical({"error": str(exc)}) + "\n")
        return 2
    except LocactError as exc:
        _sysmod.stdout.write(dumps_canonical(
            {"error": f"{type(exc).__name__}: {exc}"}) + "\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
