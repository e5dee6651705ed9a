"""Command-line front end.

Exit codes: 0 success, 2 usage/configuration problem (bad flags, malformed
scenario or CSV), 3 model or extraction failure (unresolved peaks,
non-convergent fit, coarse grid, ...).
"""

from __future__ import annotations

import argparse
import json
import os
import sys as _sys
from collections import Counter

import numpy as np

from . import __version__
from .cmt import coupled_eigenmodes, on_resonance_modes
from .errors import CavpuckError, NotResonantError, PeaksNotResolvedError, ScenarioError
from .extract import Method, fit_lorentzian, q_phase_slope, q_three_db
from .network import find_peaks_and_notch, read_spectrum_csv, synthesize_s21, write_spectrum_csv
from .resonator import aspect_ratio_ok, fit_derivative_at
from .scenario import Scenario, bundled_scenario, load_scenario, parse_frequency
from .sensitivity import dfsto_dt, responsivity_report
from .sweep import SweepPlan, SweepVariable, run_sweep, write_sweep_csv, write_sweep_json

_EXIT_CONFIG = 2
_EXIT_MODEL = 3


def _emit(obj):
    print(json.dumps(obj, indent=2, default=float))


def _load_scenario_arg(ref: str) -> Scenario:
    if os.path.exists(ref):
        return load_scenario(ref)
    return bundled_scenario(ref)


def _pair_dict(pair, path: str) -> dict:
    return {
        "path": path,
        "f1_hz": pair.f1_hz,
        "q1": pair.q1,
        "label1": pair.label1.value,
        "f2_hz": pair.f2_hz,
        "q2": pair.q2,
        "label2": pair.label2.value,
    }


def _cmd_modes(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    sys = scenario.system_at(eps_r=args.eps_r, t_k=args.temp, kappa=args.kappa)
    try:
        pair, path = on_resonance_modes(sys), "closed_form"
    except NotResonantError:
        pair, path = coupled_eigenmodes(sys), "eigen"
    _emit(_pair_dict(pair, path))
    return 0


def _cmd_spectrum(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    model = scenario.two_port(eps_r=args.eps_r, kappa=args.kappa)
    spec = synthesize_s21(model)
    write_spectrum_csv(spec, args.out)
    out = {"out": args.out, "points": int(spec.f_hz.size)}
    try:
        summary = find_peaks_and_notch(spec)
        out.update(
            f_peak1_hz=summary.f_peak1_hz,
            f_peak2_hz=summary.f_peak2_hz,
            f_notch_hz=summary.f_notch_hz,
            depth_db=summary.depth_db,
        )
    except PeaksNotResolvedError as exc:
        # unsplit spectrum (e.g. kappa=0) is a valid answer, not a failure
        out.update(f_peak_hz=exc.single_peak_hz, f_notch_hz=None)
    _emit(out)
    return 0


def _cmd_fit(args) -> int:
    spec = read_spectrum_csv(args.infile)
    near = parse_frequency(args.near)
    window = parse_frequency(args.window) if args.window else None
    fn = {
        Method.THREE_DB.value: q_three_db,
        Method.LORENTZ_FIT.value: fit_lorentzian,
        Method.PHASE_SLOPE.value: q_phase_slope,
    }[args.method]
    est = fn(spec, near, window)
    _emit(est.as_dict())
    return 0


def _cmd_sweep(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    grid = tuple(np.linspace(args.start, args.stop, args.steps))
    plan = SweepPlan(
        variable=SweepVariable(args.var),
        grid=grid,
        scenario=scenario,
        kappa_override=args.kappa,
        fixed_eps_r=args.eps_r,
    )
    result = run_sweep(plan, workers=args.workers)
    if args.json:
        write_sweep_json(result, args.out)
    else:
        write_sweep_csv(result, args.out)
    # an error cell reads "<exception type>: <message>"
    by_type = Counter(row[-1].partition(":")[0] for row in result.rows if row[-1])
    _emit({"out": args.out, "rows": len(result.rows), "rows_with_errors": sum(by_type.values()),
           "errors_by_type": dict(sorted(by_type.items()))})
    return 0


def _cmd_sensitivity(args) -> int:
    scenario = _load_scenario_arg(args.scenario)
    sys = scenario.system_at(t_k=args.temp, kappa=args.kappa)
    if scenario.sto_fit is not None:  # the f_sto(T) that system_at used
        dfsto, source = fit_derivative_at(scenario.sto_fit, args.temp), "fit"
    else:
        dfsto, source = dfsto_dt(scenario.puck, scenario.permittivity, args.temp), "permittivity"
    report = responsivity_report(
        sys, dfsto, t_k=args.temp, formula_caveat=not aspect_ratio_ok(scenario.puck),
        f_sto_source=source,
    )
    _emit(report.as_dict())
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="cavpuck",
        description="Coupled cavity/dielectric-puck mode maps, spectra, fits, and sweeps.",
    )
    p.add_argument("--version", action="version", version=f"cavpuck {__version__}")
    sub = p.add_subparsers(dest="command", required=True)

    modes = sub.add_parser("modes", help="hybridized mode pair for one operating point")
    modes.add_argument("--scenario", required=True, help="scenario file or bundled name")
    pick = modes.add_mutually_exclusive_group(required=True)
    pick.add_argument("--eps-r", type=float, default=None, help="puck permittivity")
    pick.add_argument("--temp", type=float, default=None, help="temperature in K")
    modes.add_argument("--kappa", type=float, default=None, help="override coupling")
    modes.set_defaults(fn=_cmd_modes)

    spect = sub.add_parser("spectrum", help="synthesize S21 and summarize its features")
    spect.add_argument("--scenario", required=True)
    spect.add_argument("--eps-r", type=float, required=True)
    spect.add_argument("--kappa", type=float, default=None)
    spect.add_argument("--out", required=True, help="output CSV path")
    spect.set_defaults(fn=_cmd_spectrum)

    fit = sub.add_parser("fit", help="extract f0/Q from a spectrum CSV")
    fit.add_argument("--in", dest="infile", required=True)
    fit.add_argument("--near", required=True, help="frequency to search near (Hz or 'X MHz')")
    fit.add_argument(
        "--method", choices=[m.value for m in Method], default=Method.LORENTZ_FIT.value
    )
    fit.add_argument(
        "--window",
        default=None,
        help="half-width of the analysis window about --near (default: lorentz fits "
        "+-10 linewidths of the 3 dB estimate, stopping halfway to a neighbouring "
        "peak; 3db and phase search the whole band)",
    )
    fit.set_defaults(fn=_cmd_fit)

    swp = sub.add_parser("sweep", help="sweep eps_r, kappa, or temperature")
    swp.add_argument("--scenario", required=True)
    swp.add_argument("--var", choices=[v.value for v in SweepVariable], required=True)
    swp.add_argument("--from", dest="start", type=float, required=True)
    swp.add_argument("--to", dest="stop", type=float, required=True)
    swp.add_argument("--steps", type=int, required=True)
    swp.add_argument("--out", required=True)
    swp.add_argument("--json", action="store_true", help="write JSON instead of CSV")
    swp.add_argument("--kappa", type=float, default=None)
    swp.add_argument("--eps-r", type=float, default=None, help="fixed eps_r for kappa sweeps")
    swp.add_argument("--workers", type=int, default=None,
                     help="validated (>= 1) but unused: rows run in grid order")
    swp.set_defaults(fn=_cmd_sweep)

    sens = sub.add_parser("sensitivity", help="thermal responsivity report at a temperature")
    sens.add_argument("--scenario", required=True)
    sens.add_argument("--temp", type=float, required=True)
    sens.add_argument("--kappa", type=float, default=None)
    sens.set_defaults(fn=_cmd_sensitivity)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "sweep" and args.steps < 2:
        parser.error("--steps must be at least 2")  # exits 2
    try:
        return args.fn(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_CONFIG
    except CavpuckError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return _EXIT_MODEL
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return _EXIT_CONFIG


if __name__ == "__main__":
    raise SystemExit(main())
