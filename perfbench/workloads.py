"""The three cavpuck workloads: seeded inputs, operations and output checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned.  The seed picks the operating points and
the noise; the program only ever sees the generated inputs.  A cycle is a
fixed list of operations and a run measures a fixed number of whole
cycles, so every run measures the same mix and the same seed always gives
the same attempted and failed counts.  ``CYCLE_S`` and ``TRACED_CYCLE_S``
are a cycle's reference pace, untraced and traced, on a 2-vCPU x86 VM; a
run of S seconds measures ceil(S / CYCLE_S) cycles.  Why each workload exists is in BENCHMARK.json.

Failures are counted, never raised: a nonzero exit, a raised exception, an
error row or an estimate outside tolerance fails its operation (its row, on
``sweep_map``).  An output that disagrees with the same computation done
in-process is also a failure and, besides, marks the run incorrect: that is
the program's plumbing giving a wrong answer, not a known model limit.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Estimate tolerance against the model reference: loaded Q of the eigenmode,
# and the driven peak of the noise-free spectrum.  The eigen and driven
# models differ by up to ~3% in Q at these couplings (see cavpuck.cmt), and
# an estimate must not land on the wrong side of a linewidth.
Q_TOL = 0.05
F_TOL_LINEWIDTHS = 0.25
# Reproduction checks: the same computation done in-process.
REPRO_RTOL = 1e-12

ESTIMATORS = ("q_three_db", "fit_lorentzian", "q_phase_slope")
CLI_METHODS = {"3db": "q_three_db", "lorentz": "fit_lorentzian", "phase": "q_phase_slope"}


@dataclass
class Outcome:
    """Result of checking one operation's output."""

    ok: bool
    cause: str = ""                 # "" when ok
    rows: int = 1                   # sweep rows on sweep_map, else 1
    ok_rows: int = 1
    mismatch: bool = False          # disagreed with the in-process computation
    estimator: str | None = None
    q_err: float | None = None
    row_errors: Counter = field(default_factory=Counter)


@dataclass
class Op:
    """One operation of a cycle.

    ``run()`` returns the raw output and never raises for a program failure;
    ``run_traced(recorder)`` does the same with spans recorded;
    ``check(raw)`` turns the raw output into an Outcome.
    """

    kind: str
    run: object
    run_traced: object
    check: object


def inputs_hash(inputs) -> str:
    blob = json.dumps(inputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _uniform(rng, lo, hi, digits):
    return round(float(rng.uniform(lo, hi)), digits)


def _call_in_process(fn, *args, **kwargs):
    """("ok", result) or ("raised", "ExceptionType: message")."""
    try:
        return ("ok", fn(*args, **kwargs))
    except Exception as exc:  # every failure of an operation is counted, by type
        return ("raised", f"{type(exc).__name__}: {exc}")


def _traced_in_process(run):
    def run_traced(recorder):
        with recorder.installed():
            return run()
    return run_traced


def _rel_close(a, b, rtol=REPRO_RTOL):
    if a is None or b is None:
        return a is b
    if isinstance(a, str) or isinstance(b, str) or isinstance(a, bool):
        return a == b
    return math.isclose(float(a), float(b), rel_tol=rtol, abs_tol=0.0)


def _estimate_outcome(estimator, f0, q, ref):
    q_err = q / ref["q"] - 1.0
    ok = abs(q_err) <= Q_TOL and abs(f0 - ref["f"]) <= F_TOL_LINEWIDTHS * ref["f"] / ref["q"]
    return Outcome(ok, "" if ok else "out_of_tol", ok_rows=int(ok),
                   estimator=estimator, q_err=q_err)


def _mismatch(detail, rows=1):
    return Outcome(False, f"mismatch: {detail}", rows=rows, ok_rows=0, mismatch=True)


def _peak_refs(model, spec):
    """Reference f and loaded Q of both driven peaks of a model spectrum."""
    from cavpuck.cmt import coupled_eigenmodes
    from cavpuck.network import find_peaks_and_notch

    pair = coupled_eigenmodes(model.sys)
    ext = 1.0 / model.q_ext1 + 1.0 / model.q_ext2
    summary = find_peaks_and_notch(spec)
    return summary, [
        {"f": summary.f_peak1_hz, "q": 1.0 / (1.0 / pair.q1 + ext)},
        {"f": summary.f_peak2_hz, "q": 1.0 / (1.0 / pair.q2 + ext)},
    ]


# ---------------------------------------------------------------------------
# Sweep plans, shared by sweep_map and the CLI sweeps.

def _plan_grid(p):
    if p.get("spacing") == "log":
        return tuple(float(v) for v in np.geomspace(p["start"], p["stop"], p["steps"]))
    return tuple(float(v) for v in np.linspace(p["start"], p["stop"], p["steps"]))


def _row_system(scenario, p, value):
    """The CoupledSystem a sweep row at `value` must describe (bundled
    scenarios carry no sto_frequency_fit, so temperature goes through eps_r)."""
    if p["variable"] == "eps_r":
        return scenario.system_at(eps_r=value, kappa=p.get("kappa"))
    if p["variable"] == "kappa":
        return scenario.system_at(eps_r=p["fixed_eps_r"], kappa=value)
    return scenario.system_at(t_k=value, kappa=p.get("kappa"))


_VAR_COLUMN = {"eps_r": "eps_r", "kappa": "kappa", "temp": "t_k"}


def check_sweep_rows(scenario, p, columns, rows):
    """Outcome of a sweep: error rows by cause, and every row's eigenmode
    columns against a per-row coupled_eigenmodes call."""
    from cavpuck.cmt import coupled_eigenmodes

    grid = _plan_grid(p)
    if len(rows) != len(grid):
        return _mismatch(f"{len(rows)} rows for a {len(grid)}-point grid", len(grid))
    col = {c: i for i, c in enumerate(columns)}
    errors = Counter()
    for value, row in zip(grid, rows):
        if not _rel_close(row[col[_VAR_COLUMN[p["variable"]]]], value):
            return _mismatch(f"row for {value} out of grid order", len(grid))
        if row[col["error"]]:
            errors[str(row[col["error"]]).split(":", 1)[0]] += 1
        if row[col["f1_hz"]] is None:
            continue  # the eigenproblem itself failed; counted as an error row
        pair = coupled_eigenmodes(_row_system(scenario, p, value))
        want = (pair.f1_hz, pair.q1, pair.label1.value, pair.f2_hz, pair.q2, pair.label2.value)
        got = tuple(row[col[c]] for c in ("f1_hz", "q1", "label1", "f2_hz", "q2", "label2"))
        if not all(_rel_close(g, w) for g, w in zip(got, want)):
            return _mismatch(f"row at {value}: {got} != {want}", len(grid))
    n_err = sum(errors.values())
    return Outcome(True, "", rows=len(rows), ok_rows=len(rows) - n_err, row_errors=errors)


# ---------------------------------------------------------------------------
# cli_session

def _sweep_call(key, plan):
    argv = ["sweep", "--scenario", plan["scenario"], "--var", plan["variable"],
            "--from", str(plan["start"]), "--to", str(plan["stop"]),
            "--steps", str(plan["steps"]), "--out", f"{key}.csv"]
    if "fixed_eps_r" in plan:
        argv += ["--eps-r", str(plan["fixed_eps_r"])]
    return {"key": key, "plan": plan, "argv": argv}


def _cli_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


class CliSession:
    """All five subcommands over both bundled scenarios, each a fresh
    ``python -m cavpuck.cli`` process.  The fits read the CSVs the
    ``spectrum`` calls of the same cycle wrote, near the peak it reported."""

    name = "cli_session"
    CYCLE_S, TRACED_CYCLE_S = 17.0, 36.0

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self._spectrum_refs = {}  # spectrum call key -> peak references

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 1])
        room_eps, room_kappa = _uniform(rng, 226, 234, 3), _uniform(rng, 0.025, 0.035, 5)
        pec_eps = _uniform(rng, 210, 222, 3)
        calls = [
            {"key": "modes.pec", "argv": ["modes", "--scenario", "paper-pec",
                                          "--temp", str(_uniform(rng, 20, 80, 3))]},
            {"key": "modes.room", "argv": ["modes", "--scenario", "paper-room",
                                           "--eps-r", str(room_eps), "--kappa", str(room_kappa)]},
        ]
        for tag, scen, eps, kappa in (("room", "paper-room", room_eps, room_kappa),
                                      ("pec", "paper-pec", pec_eps, None)):
            argv = ["spectrum", "--scenario", scen, "--eps-r", str(eps), "--out", f"{tag}.csv"]
            if kappa is not None:
                argv += ["--kappa", str(kappa)]
            calls.append({"key": f"spectrum.{tag}", "argv": argv})
            for method in CLI_METHODS:
                # --near is the lower peak the spectrum call reported
                calls.append({"key": f"fit.{tag}.{method}", "near_from": f"spectrum.{tag}",
                              "argv": ["fit", "--in", f"{tag}.csv", "--method", method]})
        start = _uniform(rng, 204, 208, 3)
        calls.append(_sweep_call("sweep.pec", {
            "scenario": "paper-pec", "variable": "eps_r",
            "start": start, "stop": round(start + 20.0, 3), "steps": 61}))
        calls.append(_sweep_call("sweep.room", {
            "scenario": "paper-room", "variable": "kappa", "fixed_eps_r": room_eps,
            "start": _uniform(rng, 0.008, 0.012, 5), "stop": _uniform(rng, 0.045, 0.05, 5),
            "steps": 31}))
        calls.append({"key": "sensitivity.pec", "argv": [
            "sensitivity", "--scenario", "paper-pec", "--temp", str(_uniform(rng, 20, 80, 3))]})
        calls.append({"key": "sensitivity.room", "argv": [
            "sensitivity", "--scenario", "paper-room", "--temp", str(_uniform(rng, 20, 80, 3)),
            "--kappa", str(room_kappa)]})
        return {"calls": calls}

    def prepare(self, inputs, trace=False):
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.cycle = len(inputs["calls"])
        outputs = {}  # key -> parsed stdout of the latest call, for the fits' --near
        return [self._op(call, outputs) for call in inputs["calls"]]

    def warm_up(self, ops):
        ops[0].run()

    def _argv(self, call, outputs):
        argv = list(call["argv"])
        if "near_from" in call:
            near = (outputs.get(call["near_from"]) or {}).get("f_peak1_hz")
            if near is None:
                return None
            argv += ["--near", repr(float(near))]
        return argv

    def _op(self, call, outputs):
        check = self._checker(call)

        def finish(argv, proc):
            parsed = None
            if proc.returncode == 0:
                try:
                    parsed = json.loads(proc.stdout)
                except ValueError:
                    parsed = None
            outputs[call["key"]] = parsed
            return {"argv": argv, "rc": proc.returncode, "out": parsed,
                    "stderr": proc.stderr[-500:]}

        def invoke(program):
            argv = self._argv(call, outputs)
            if argv is None:  # the spectrum call this fit reads failed
                outputs[call["key"]] = None
                return {"argv": None, "rc": None, "out": None, "stderr": "no input"}
            proc = subprocess.run([sys.executable, *program, *argv], cwd=self.workdir,
                                  env=_cli_env(), capture_output=True, text=True)
            return finish(argv, proc)

        def run():
            return invoke(["-m", "cavpuck.cli"])

        def run_traced(recorder):
            spans_out = self.workdir / f"spans-{recorder.op_id}.json"
            raw = invoke([str(HERE / "child.py"), str(spans_out), str(recorder.op_id), "--"])
            if spans_out.exists():
                recorder.adopt(json.loads(spans_out.read_text()))
                spans_out.unlink()
            return raw

        return Op(call["key"], run, run_traced, check)

    def _checker(self, call):
        from cavpuck.cmt import coupled_eigenmodes, on_resonance_modes
        from cavpuck.errors import NotResonantError
        from cavpuck.network import synthesize_s21
        from cavpuck.scenario import bundled_scenario
        from cavpuck.sensitivity import make_operating_point, responsivity

        key, argv = call["key"], call["argv"]
        opts = {argv[i]: argv[i + 1] for i in range(1, len(argv) - 1) if argv[i].startswith("--")}
        cmd = argv[0]
        scenario = bundled_scenario(opts["--scenario"]) if "--scenario" in opts else None
        fnum = lambda k: float(opts[k]) if k in opts else None  # noqa: E731

        def base(raw):
            if raw["rc"] is None:
                return Outcome(False, "no_input", ok_rows=0)
            if raw["rc"] != 0:
                return Outcome(False, f"exit{raw['rc']}", ok_rows=0)
            if raw["out"] is None:
                return _mismatch("stdout is not JSON")
            return None

        def same_as(want):
            def check(raw):
                bad = base(raw)
                if bad:
                    return bad
                diff = [k for k in want if not _rel_close(raw["out"].get(k), want[k])]
                return _mismatch(f"{key} {diff}") if diff else Outcome(True)
            return check

        if cmd == "modes":
            sys_ = scenario.system_at(eps_r=fnum("--eps-r"), t_k=fnum("--temp"),
                                      kappa=fnum("--kappa"))
            try:
                pair, path = on_resonance_modes(sys_), "closed_form"
            except NotResonantError:
                pair, path = coupled_eigenmodes(sys_), "eigen"
            want = {"path": path, "f1_hz": pair.f1_hz, "q1": pair.q1,
                    "label1": pair.label1.value, "f2_hz": pair.f2_hz, "q2": pair.q2,
                    "label2": pair.label2.value}
            return same_as(want)

        if cmd == "sensitivity":
            t_k = fnum("--temp")
            sys_ = scenario.system_at(t_k=t_k, kappa=fnum("--kappa"))
            op = make_operating_point(scenario.puck, scenario.permittivity, t_k,
                                      sys_.f_cav_hz, sys_.q_cav, sys_.kappa, sys_.q_sto)
            return same_as(responsivity(op).as_dict())

        if cmd == "spectrum":
            model = scenario.two_port(eps_r=fnum("--eps-r"), kappa=fnum("--kappa"))
            spec = synthesize_s21(model)
            summary, refs = _peak_refs(model, spec)
            self._spectrum_refs[key] = refs
            want = {"points": int(spec.f_hz.size), "f_peak1_hz": summary.f_peak1_hz,
                    "f_peak2_hz": summary.f_peak2_hz, "f_notch_hz": summary.f_notch_hz,
                    "depth_db": summary.depth_db}
            return same_as(want)

        if cmd == "fit":
            ref = self._spectrum_refs[call["near_from"]][0]
            estimator = CLI_METHODS[opts["--method"]]

            def check(raw):
                bad = base(raw)
                if bad:
                    bad.estimator = estimator
                    return bad
                return _estimate_outcome(estimator, raw["out"]["f0_hz"],
                                         raw["out"]["q_loaded"], ref)
            return check

        if cmd == "sweep":
            p = call["plan"]
            out_csv = self.workdir / opts["--out"]

            def check(raw):
                bad = base(raw)
                if bad:
                    return bad
                columns, rows = read_sweep_csv(out_csv)
                outcome = check_sweep_rows(scenario, p, columns, rows)
                if outcome.ok and outcome.row_errors:
                    # one CLI call is one operation: an error row fails it
                    outcome = Outcome(False, "error_rows", ok_rows=0,
                                      row_errors=outcome.row_errors)
                else:
                    outcome.rows, outcome.ok_rows = 1, int(outcome.ok)
                return outcome
            return check

        raise ValueError(f"no check for {cmd}")

    def coverage_ops(self, seed):
        """One call per subcommand: what a traced run of another workload
        adds so that every CLI layer metric is measured."""
        keep = ("modes.room", "spectrum.room", "fit.room.3db", "sweep.room", "sensitivity.pec")
        calls = [c for c in self.make_inputs(seed)["calls"] if c["key"] in keep]
        return self.prepare({"calls": calls})


def read_sweep_csv(path):
    """(columns, rows) of a sweep CSV, cells typed as run_sweep returns them."""
    text_cols = {"label1", "label2", "error"}
    with open(path, newline="") as fh:
        reader = csv.reader(line for line in fh if not line.startswith("#"))
        columns = next(reader)
        rows = []
        for cells in reader:
            row = []
            for c, v in zip(columns, cells):
                row.append(v if c in text_cols else (float(v) if v != "" else None))
            rows.append(row)
    return columns, rows


# ---------------------------------------------------------------------------
# sweep_map

class SweepMap:
    """In-process run_sweep on seeded plans at the default worker count."""

    name = "sweep_map"
    CYCLE_S, TRACED_CYCLE_S = 0.7, 4.5
    # distinct plan sets, one per cycle; a 20 s run visits 29, so a run's
    # figures average over many operating points rather than a few
    PLAN_SETS = 32

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def make_inputs(self, seed):
        rng = np.random.default_rng([seed, 2])
        plans = []
        for _ in range(self.PLAN_SETS):
            # across the anticrossing (eps ~ 215) and on to eps >= 260, where
            # the default grid reaches its 1,000,001-point cap
            plans.append({"scenario": "paper-pec", "variable": "eps_r",
                          "start": _uniform(rng, 204, 208, 3),
                          "stop": _uniform(rng, 296, 300, 3), "steps": 31})
            plans.append({"scenario": "paper-pec", "variable": "temp",
                          "start": _uniform(rng, 20, 23, 3),
                          "stop": _uniform(rng, 77, 80, 3), "steps": 61})
            # log-spaced down to kappa ~1e-5, where the peaks are unsplit
            plans.append({"scenario": "paper-room", "variable": "kappa", "spacing": "log",
                          "fixed_eps_r": _uniform(rng, 226, 234, 3),
                          "start": _uniform(rng, 0.8e-5, 1.25e-5, 8),
                          "stop": _uniform(rng, 0.04, 0.05, 5), "steps": 31})
        return {"plans": plans}

    def prepare(self, inputs, trace=False):
        """One op per plan.  A traced run also runs each plan at workers=1,
        right after the same plan at the default worker count."""
        workers = (None, 1) if trace else (None,)
        self.cycle = 3 * len(workers)
        return [self._op(p, w) for p in inputs["plans"] for w in workers]

    def warm_up(self, ops):
        for op in ops[:self.cycle]:
            op.run()

    def _op(self, p, workers):
        from cavpuck import sweep as sweep_mod
        from cavpuck.scenario import bundled_scenario

        scenario = bundled_scenario(p["scenario"])
        plan = sweep_mod.SweepPlan(
            variable=sweep_mod.SweepVariable(p["variable"]), grid=_plan_grid(p),
            scenario=scenario, fixed_eps_r=p.get("fixed_eps_r"))

        def run():
            # looked up at call time, so installed span wrappers apply
            return _call_in_process(sweep_mod.run_sweep, plan, workers)

        def check(raw):
            status, result = raw
            if status != "ok":
                return Outcome(False, f"raised:{result.split(':', 1)[0]}",
                               rows=len(plan.grid), ok_rows=0)
            return check_sweep_rows(scenario, p, result.columns, result.rows)

        kind = f"sweep.{p['variable']}" + ("" if workers is None else f".workers{workers}")
        return Op(kind, run, _traced_in_process(run), check)

    def coverage_ops(self, seed):
        """One plan of each type, at the default worker count and at one."""
        return self.prepare({"plans": self.make_inputs(seed)["plans"][:3]}, trace=True)


# ---------------------------------------------------------------------------
# fit_batch

class FitBatch:
    """In-process q_three_db, fit_lorentzian and q_phase_slope on both peaks
    of seeded noisy paper-room spectra, each with no window (the CLI
    default) and with a narrow and a wide window, in reference linewidths."""

    name = "fit_batch"
    CYCLE_S, TRACED_CYCLE_S = 0.38, 1.0
    # Distinct spectra, SPECTRA_PER_CYCLE per cycle: a 20 s run visits all
    # of them, so its figures average over many operating points.  The
    # fit cost on the full band varies fourfold between operating points.
    SPECTRA = 80
    SPECTRA_PER_CYCLE = 2
    GRID_POINTS = 100_001       # >= 8 points per linewidth over the whole range
    NOISE_REL = 1e-3            # complex noise rms / peak |S21|
    WINDOWS_LINEWIDTHS = (5.0, 20.0)

    def __init__(self, workdir: Path):
        self.workdir = workdir

    def make_inputs(self, seed, count=None):
        rng = np.random.default_rng([seed, 3])
        spectra = [
            {"eps_r": _uniform(rng, 226, 234, 3), "kappa": _uniform(rng, 0.025, 0.035, 5),
             "noise_seed": int(rng.integers(2**31))}
            for _ in range(count or self.SPECTRA)
        ]
        return {"spectra": spectra, "grid_points": self.GRID_POINTS,
                "noise_rel": self.NOISE_REL, "windows_linewidths": list(self.WINDOWS_LINEWIDTHS)}

    def _spectrum(self, s, inputs):
        """Noisy spectrum on an explicit grid of fixed size spanning five
        mode splittings either side of the pair, plus its peak references."""
        from cavpuck.cmt import coupled_eigenmodes
        from cavpuck.network import Spectrum, synthesize_s21
        from cavpuck.scenario import bundled_scenario

        model = bundled_scenario("paper-room").two_port(eps_r=s["eps_r"], kappa=s["kappa"])
        pair = coupled_eigenmodes(model.sys)
        center = 0.5 * (pair.f1_hz + pair.f2_hz)
        delta = pair.f2_hz - pair.f1_hz
        f = np.linspace(center - 5.0 * delta, center + 5.0 * delta, inputs["grid_points"])
        clean = synthesize_s21(model, f)
        _, refs = _peak_refs(model, clean)
        rng = np.random.default_rng(s["noise_seed"])
        sigma = inputs["noise_rel"] * float(np.max(np.abs(clean.s21))) / math.sqrt(2.0)
        s21 = rng.standard_normal(2 * f.size).view(np.complex128)  # re, im interleaved
        s21 *= sigma
        s21 += clean.s21
        return Spectrum(f, s21, clean.meta), refs

    def prepare(self, inputs, trace=False):
        windows = [None] + list(inputs["windows_linewidths"])
        self.cycle = self.SPECTRA_PER_CYCLE * 2 * len(ESTIMATORS) * len(windows)
        ops = []
        for s in inputs["spectra"]:
            spec, refs = self._spectrum(s, inputs)
            for ref in refs:
                for est in ESTIMATORS:
                    for w in windows:
                        ops.append(self._op(spec, ref, est, w))
        return ops

    def warm_up(self, ops):
        for op in ops[:self.cycle]:
            op.run()

    def _op(self, spec, ref, est, window_lw):
        from cavpuck import extract as extract_mod

        window = window_lw and window_lw * ref["f"] / ref["q"]

        def run():
            return _call_in_process(getattr(extract_mod, est), spec, ref["f"], window)

        def check(raw):
            status, result = raw
            if status != "ok":
                return Outcome(False, f"raised:{result.split(':', 1)[0]}", ok_rows=0,
                               estimator=est)
            return _estimate_outcome(est, result.f0_hz, result.q_loaded, ref)

        return Op(f"fit.{est}" + (f".window{window_lw:g}lw" if window_lw else ""),
                  run, _traced_in_process(run), check)

    def coverage_ops(self, seed):
        """Every estimate on one spectrum."""
        return self.prepare(self.make_inputs(seed, count=1))


WORKLOADS = {"cli_session": CliSession, "sweep_map": SweepMap, "fit_batch": FitBatch}
