"""Command-line driver: kernel tables, profile solves, diagnostics,
and oracle comparisons, all exporting plot-ready CSV/JSON with a manifest.

Exit codes: 0 success, 2 parameter/validation error, 3 numerical failure
(divergence or instability). Outputs are deterministic for a fixed
configuration: no timestamps, no unseeded randomness.
"""
import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__
from .errors import (NoConvergence, NumericalFailure, PicardDivergence,
                     ValidationError)
from .grid import GridFunction, _write_csv, symmetric_grid
from .kernel import _check_time, build_kernel_table, regularizing_constants
from .mild import (CornerData, _self_similarity_gap, reconstruct_U,
                   save_profile, solve_similarity_profile)
from . import diagnostics
from .oracle import MarchConfig, mild_gaps, time_march


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(out_dir, command, config, paths):
    manifest = {
        "command": command,
        "version": __version__,
        "config": {k: config[k] for k in sorted(config)},
        "artifacts": {os.path.relpath(p, out_dir): _sha256(p)
                      for p in sorted(paths)},
    }
    mpath = os.path.join(out_dir, "manifest.json")
    with open(mpath, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    return mpath


def _config_dict(args):
    skip = {"func", "config"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _apply_config_file(args, parser):
    """key = value lines; file entries override command-line flags.

    Each value is parsed by the `type` of its option in `parser`'s
    subcommand, as the flag's value would be; a switch takes one of
    1/true/yes/on or 0/false/no/off, in any case.
    """
    if not getattr(args, "config", None):
        return
    command = next(a for a in parser._actions if a.dest == "command")
    options = {a.dest: a for a in command.choices[args.command]._actions
               if a.dest != "config" and hasattr(args, a.dest)}
    try:
        fh = open(args.config)
    except OSError as exc:
        raise ValidationError(f"cannot read config {args.config!r}: "
                              f"{exc.strerror}") from exc
    with fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValidationError(
                    f"{args.config}:{lineno}: expected key = value")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.replace("-", "_")
            action = options.get(key)
            if action is None:
                raise ValidationError(
                    f"{args.config}:{lineno}: unknown option {key!r}")
            try:
                if action.nargs == 0:
                    # a switch such as --mollified
                    parsed = {"1": True, "true": True, "yes": True,
                              "on": True, "0": False, "false": False,
                              "no": False, "off": False}[val.lower()]
                else:
                    parsed = action.type(val) if action.type else val
            except (KeyError, ValueError) as exc:
                raise ValidationError(
                    f"{args.config}:{lineno}: bad value {val!r} for "
                    f"{key}") from exc
            setattr(args, key, parsed)


def _parse_times(spec):
    try:
        times = [float(tok) for tok in spec.split(",") if tok.strip()]
    except ValueError as exc:
        raise ValidationError(f"bad time list {spec!r}") from exc
    if not times or any(t <= 0 for t in times) or sorted(times) != times:
        raise ValidationError("times must be positive and increasing")
    return times


def _ensure_out(args):
    os.makedirs(args.out_dir, exist_ok=True)
    return args.out_dir


def cmd_kernel(args):
    _check_time(args.t_lo, "t_lo")
    _check_time(args.t_hi, "t_hi")
    table = build_kernel_table(args.eta_max, args.nodes)
    # the fits check the span of the times, so they run before any output
    t_range = np.geomspace(args.t_lo, args.t_hi, 13)
    fits = {ell: regularizing_constants(table, ell, t_range)
            for ell in (1, 2)}
    out = _ensure_out(args)
    csv_path = os.path.join(out, "kernel.csv")
    table.to_csv(csv_path)
    from scipy.special import gamma
    g0 = float(table.eval_g(0, np.array([0.0]))[0])
    ref = float(gamma(1.25) / np.pi)
    from scipy.integrate import simpson
    mass = float(2.0 * simpson(table.g_ell[0], dx=table.h))
    print(f"g(0)      = {g0:.12f}  (Gamma(5/4)/pi = {ref:.12f}, "
          f"diff {abs(g0 - ref):.2e})")
    print(f"kernel mass = {mass:.12f}  (diff from 1: {abs(mass - 1):.2e})")
    summary = {"g0": g0, "g0_reference": ref, "mass": mass, "exponents": {}}
    for ell, (c, expo) in fits.items():
        print(f"step decay ell={ell}: c = {c:.6f}, exponent = {expo:+.4f} "
              f"(expect {-ell / 4:+.4f})")
        summary["exponents"][str(ell)] = {"c": c, "exponent": expo,
                                          "expected": -ell / 4}
    spath = os.path.join(out, "kernel_summary.json")
    with open(spath, "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
    _write_manifest(out, "kernel", _config_dict(args), [csv_path, spath])
    return 0


def _solve_one(args, out, table):
    corner = CornerData(args.a, args.b, args.slope_cap)
    xs = symmetric_grid(args.half_width, args.intervals)
    try:
        profile = solve_similarity_profile(
            corner, tol=args.tol, max_iter=args.max_iter, table=table, xs=xs)
    except (PicardDivergence, NoConvergence) as exc:
        hpath = os.path.join(out, "history.json")
        with open(hpath, "w") as fh:
            json.dump({"residual_history": list(exc.history)}, fh, indent=2)
        print(f"Picard iteration failed; history in {hpath}",
              file=sys.stderr)
        raise
    paths = []
    ppath = os.path.join(out, "profile.csv")
    save_profile(profile, ppath)
    paths += [ppath, os.path.join(out, "profile.meta.json")]
    times = _parse_times(args.times)
    # U(., t) once per t: the written times and the self-similarity pairs
    # (1, 0.5) and (1, 2) share their reconstructions
    sols = {}

    def solution(t):
        if t not in sols:
            sols[t] = reconstruct_U(profile, t, table)
        return sols[t]

    phi0 = None
    for t in times:
        sol = solution(t)
        upath = os.path.join(out, f"U_t{t:g}.csv")
        _write_csv(upath, "x,U", sol.U.xs, sol.U.ys)
        paths.append(upath)
        if sol.phi is not None:
            i0 = int(np.argmin(np.abs(sol.phi.xs)))
            phi0 = float(sol.phi.ys[i0])
    meta = {
        "A": corner.A,
        "B": corner.B,
        "iterations": profile.iterations,
        "converged": profile.converged,
        "final_residual": profile.final_residual,
        "phi0": phi0,
        "linear_shortcut": bool(corner.A == -corner.B),
        "self_similarity": {
            str(s): _self_similarity_gap(solution(1.0), solution(s), s)
            for s in (0.5, 2.0)},
    }
    if meta["linear_shortcut"]:
        print(f"note: A == -B, the data is linear and psi is the constant "
              f"{corner.A:g}")
    mpath = os.path.join(out, "solve_summary.json")
    with open(mpath, "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
    paths.append(mpath)
    print(f"converged={profile.converged} iterations={profile.iterations} "
          f"final_residual={profile.final_residual:.3e} phi0={phi0}")
    _write_manifest(out, "solve", _config_dict(args), paths)
    return 0


def _parse_sweep(spec):
    try:
        name, rng = spec.split("=", 1)
        start, step, stop = (float(tok) for tok in rng.split(":"))
    except ValueError as exc:
        raise ValidationError(
            f"bad sweep {spec!r}; expected name=start:step:stop") from exc
    name = name.strip().lower()
    if name not in ("a", "b"):
        raise ValidationError("sweep parameter must be a or b")
    if step <= 0 or stop < start:
        raise ValidationError("sweep needs step > 0 and stop >= start")
    values = []
    v = start
    while v <= stop + 1e-12 * max(abs(stop), 1.0):
        values.append(round(v, 12))
        v += step
    return name, values


def _sweep_worker(payloads):
    """Exit codes of the solves of `payloads`, all on one kernel table.

    The sweep values share the grid, so every solve after the first reuses
    the Picard plan that the table holds (`mild._picard_plan`).
    """
    table = build_kernel_table()
    codes = []
    for payload in payloads:
        ns = argparse.Namespace(**payload)
        codes.append(_exit_code(lambda: _solve_one(ns, _ensure_out(ns),
                                                   table)))
    return codes


def cmd_solve(args):
    out = _ensure_out(args)
    if args.sweep:
        name, values = _parse_sweep(args.sweep)
        if args.workers < 1:
            raise ValidationError("--workers must be >= 1")
        jobs = []
        for v in values:
            payload = dict(vars(args))
            payload.pop("func", None)
            payload.pop("config", None)
            payload[name] = v
            payload["sweep"] = None
            payload["out_dir"] = os.path.join(out, f"{name}_{v:g}")
            jobs.append(payload)
        from concurrent.futures import ProcessPoolExecutor
        # worker i solves every n-th value, so the costlier corners at one
        # end of a sweep spread over the workers
        n = min(len(jobs), args.workers)
        codes = [None] * len(jobs)
        with ProcessPoolExecutor(max_workers=n) as pool:
            chunks = pool.map(_sweep_worker, [jobs[i::n] for i in range(n)])
            for i, chunk in enumerate(chunks):
                codes[i::n] = chunk
        for job, code in zip(jobs, codes):
            print(f"{job['out_dir']}: exit {code}")
        return max(codes)
    return _solve_one(args, out, build_kernel_table())


def cmd_diagnose(args):
    out = _ensure_out(args)
    if args.counterexample:
        phi, d, fit = diagnostics.counterexample_phi_eps(
            args.a, args.eps, mollified=args.mollified)
        paths = []
        dpath = os.path.join(out, "counterexample_D.csv")
        _write_csv(dpath, "x,D", d.xs, d.ys)
        paths.append(dpath)
        fpath = os.path.join(out, "counterexample_phi.csv")
        _write_csv(fpath, "x,phi", phi.xs, phi.ys)
        paths.append(fpath)
        rpath = os.path.join(out, "counterexample.json")
        with open(rpath, "w") as fh:
            json.dump(fit, fh, indent=2, sort_keys=True)
        paths.append(rpath)
        print(f"far gap |x|-s = {fit['gap_far']:.12f} "
              f"(expected {fit['gap_expected']:.12f})")
        print(f"fitted D slope = {fit['d_slope']:.12f} "
              f"(expected {fit['d_slope_expected']:.12f})")
        _write_manifest(out, "diagnose", _config_dict(args), paths)
        return 0

    if args.from_solve:
        corner = CornerData(args.a, args.b, args.slope_cap)
        table = build_kernel_table()
        phis = []
        for n in (args.intervals, 2 * args.intervals):
            xs = symmetric_grid(args.half_width, n)
            profile = solve_similarity_profile(corner, tol=args.tol,
                                               table=table, xs=xs)
            phis.append(reconstruct_U(profile, 1.0, table).phi)
        # solver output carries node-level quadrature noise, so residual
        # stencils are evaluated on a stride-8 subsample (see diagnostics)
        report = diagnostics.run_diagnostics(phis[0], phi_fine=phis[1],
                                             eval_stride=8)
    elif args.input:
        try:
            phi = GridFunction.from_csv(args.input)
        except (OSError, ValueError, KeyError) as exc:
            raise ValidationError(f"cannot read profile {args.input!r}: "
                                  f"{exc}") from exc
        report = diagnostics.run_diagnostics(phi)
    else:
        raise ValidationError(
            "diagnose needs --input, --from-solve, or --counterexample")

    print(f"{'check':<24}{'sup residual':>14}{'threshold':>14}  verdict")
    for row in report.summary:
        print(f"{row['name']:<24}{row['sup_residual']:>14.3e}"
              f"{row['threshold']:>14.3e}  "
              f"{'pass' if row['pass'] else 'FAIL'}")
    for key, val in report.flags.items():
        print(f"flag {key} = {val}")
    paths = report.to_csv(out)
    paths.append(report.to_json(os.path.join(out, "report.json")))
    _write_manifest(out, "diagnose", _config_dict(args), paths)
    return 0


def cmd_oracle_compare(args):
    out = _ensure_out(args)
    corner = CornerData(args.a, args.b, args.slope_cap)
    # march settings and times are checked before the costly profile solve
    cfg = MarchConfig(corner.A, corner.B, half_width=args.half_width,
                      intervals=args.intervals, dt_max=args.dt_max)
    times = _parse_times(args.times)
    table = build_kernel_table()
    profile = solve_similarity_profile(corner, table=table)
    snapshots = time_march(cfg.mollified_corner(), cfg, times)
    rows = []
    paths = []
    for t, snap in zip(times, snapshots):
        gaps = mild_gaps(snap, profile, table, cfg, t)
        row = {"t": t, "sup_diff": gaps["sup_diff"],
               "sup_diff_linear": gaps["sup_diff_linear"],
               "duhamel_sup": gaps["duhamel_sup"]}
        rows.append(row)
        print(f"t = {t:<8g} sup|march - mild| = {row['sup_diff']:.4e}  "
              f"linear-corrected = {row['sup_diff_linear']:.4e}  "
              f"sup|duhamel| = {row['duhamel_sup']:.4e}")
        mpath = os.path.join(out, f"march_t{t:g}.csv")
        _write_csv(mpath, "x,U", snap.xs, snap.ys)
        paths.append(mpath)
    rpath = os.path.join(out, "oracle_compare.json")
    with open(rpath, "w") as fh:
        json.dump({"rows": rows, "moll_width": cfg.moll_width}, fh,
                  indent=2, sort_keys=True)
    paths.append(rpath)
    _write_manifest(out, "oracle-compare", _config_dict(args), paths)
    return 0


def _add_common(sp):
    sp.add_argument("--out-dir", default="./out",
                    help="output directory (default ./out)")
    sp.add_argument("--config", default=None,
                    help="key = value file; entries override flags")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cornerflow",
        description="Self-similar corner evolution under fourth-order "
                    "curve diffusion")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("kernel", help="build and export the kernel table")
    p.add_argument("--eta-max", type=float, default=40.0)
    p.add_argument("--nodes", type=int, default=16384)
    p.add_argument("--t-lo", type=float, default=0.01)
    p.add_argument("--t-hi", type=float, default=100.0)
    _add_common(p)
    p.set_defaults(func=cmd_kernel)

    p = sub.add_parser("solve", help="compute a similarity profile")
    p.add_argument("--a", type=float, required=True)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--max-iter", type=int, default=50)
    p.add_argument("--slope-cap", type=float, default=0.3)
    p.add_argument("--half-width", type=float, default=40.0)
    p.add_argument("--intervals", type=int, default=8192)
    p.add_argument("--times", default="0.1,1,10",
                   help="comma-separated reconstruction times")
    p.add_argument("--sweep", default=None,
                   help="e.g. a=0.02:0.02:0.2; runs solves in a worker pool")
    p.add_argument("--workers", type=int, default=os.cpu_count() or 1)
    _add_common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("diagnose", help="run the identity/inequality checks")
    p.add_argument("--input", default=None,
                   help="profile CSV (x,y with JSON sidecar)")
    p.add_argument("--from-solve", action="store_true",
                   help="solve first, then diagnose at two resolutions")
    p.add_argument("--counterexample", action="store_true",
                   help="flattened-corner non-existence report")
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--b", type=float, default=0.1)
    p.add_argument("--eps", type=float, default=0.1)
    p.add_argument("--mollified", action="store_true")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--slope-cap", type=float, default=0.3)
    p.add_argument("--half-width", type=float, default=40.0)
    p.add_argument("--intervals", type=int, default=8192)
    _add_common(p)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("oracle-compare",
                       help="cross-validate against the time marcher")
    p.add_argument("--a", type=float, default=0.1)
    p.add_argument("--b", type=float, default=0.1)
    p.add_argument("--slope-cap", type=float, default=0.3)
    p.add_argument("--half-width", type=float, default=20.0)
    p.add_argument("--intervals", type=int, default=4096)
    p.add_argument("--dt-max", type=float, default=2e-5)
    p.add_argument("--times", default="1",
                   help="comma-separated snapshot times")
    _add_common(p)
    p.set_defaults(func=cmd_oracle_compare)
    return parser


def _exit_code(run):
    """run()'s exit code, or that of the typed error it raises.

    A ValidationError exits 2 and a NumericalFailure 3, each after one
    line on stderr.
    """
    try:
        return run()
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalFailure as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    def run():
        _apply_config_file(args, parser)
        return args.func(args)

    return _exit_code(run)


if __name__ == "__main__":
    sys.exit(main())
