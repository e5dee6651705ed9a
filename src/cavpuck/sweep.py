"""Deterministic parameter sweeps over permittivity, coupling, or
temperature.

Each grid point is evaluated independently (optionally by a thread pool)
and rows are assembled strictly in grid order, so output files are
byte-identical from run to run and for any worker count.  A failing row
never aborts the sweep: the failure lands in that row's `error` column and
the sweep carries on.
"""

from __future__ import annotations

import csv
import json
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from ._csvfile import meta_block
from .cmt import beta_coefficients, coupled_eigenmodes
from .errors import CavpuckError
from .materials import ConstantPermittivity
from .network import TwoPortModel, find_peaks_and_notch, synthesize_s21
from .scenario import Scenario, scenario_meta

WORKERS_ENV = "CAVPUCK_WORKERS"

COLUMNS = (
    "eps_r", "t_k", "kappa",
    "f_sto_hz", "q_sto", "f_cav_hz", "q_cav",
    "f1_hz", "q1", "label1", "f2_hz", "q2", "label2",
    "beta1", "beta2",
    "f_peak1_hz", "f_peak2_hz", "f_notch_hz", "notch_depth_db",
    "error",
)


class SweepVariable(str, Enum):
    EPS_R = "eps_r"
    KAPPA = "kappa"
    TEMPERATURE = "temp"


@dataclass(frozen=True)
class SweepPlan:
    variable: SweepVariable
    grid: tuple[float, ...]
    scenario: Scenario
    kappa_override: float | None = None         # for scenarios with kappa: null
    fixed_eps_r: float | None = None            # kappa sweeps: the eps to hold

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=float)
        if g.size < 2:
            raise ValueError(f"sweep grid needs at least 2 points, got {g.size}")
        if not np.all(np.diff(g) > 0):
            raise ValueError("sweep grid must be strictly increasing")


@dataclass
class SweepResult:
    columns: tuple[str, ...]
    rows: list[list]
    meta: dict = field(default_factory=dict)


def _resolve_workers(workers: int | None) -> int:
    if workers is None:
        env = os.environ.get(WORKERS_ENV)
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise ValueError(f"{WORKERS_ENV}={env!r} is not an integer") from None
        else:
            workers = os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"worker count must be >= 1, got {workers}")
    return workers


def _eval_row(plan: SweepPlan, value: float) -> dict:
    s = plan.scenario
    row = {c: None for c in COLUMNS}
    row["error"] = ""
    try:
        if plan.variable is SweepVariable.EPS_R:
            row["eps_r"] = value
            sys = s.system_at(eps_r=value, kappa=plan.kappa_override)
        elif plan.variable is SweepVariable.KAPPA:
            row["kappa"] = value
            if s.sto_fit is not None and plan.fixed_eps_r is None:
                raise CavpuckError("kappa sweep over a fit-driven scenario needs fixed_eps_r")
            eps = plan.fixed_eps_r
            if eps is None:
                if not isinstance(s.permittivity, ConstantPermittivity):
                    raise CavpuckError(
                        "kappa sweep needs fixed_eps_r (scenario permittivity is not constant)"
                    )
                eps = s.permittivity.eps_r
            sys = s.system_at(eps_r=eps, kappa=value)
        else:  # temperature
            row["t_k"] = value
            if s.sto_fit is None:
                row["eps_r"] = s.permittivity.eval(value)
            sys = s.system_at(t_k=value, kappa=plan.kappa_override)
        row["f_sto_hz"] = sys.f_sto_hz
        row["q_sto"] = sys.q_sto
        row["f_cav_hz"] = sys.f_cav_hz
        row["q_cav"] = sys.q_cav
        row["kappa"] = sys.kappa
        pair = coupled_eigenmodes(sys)
        row["f1_hz"], row["q1"], row["label1"] = pair.f1_hz, pair.q1, pair.label1.value
        row["f2_hz"], row["q2"], row["label2"] = pair.f2_hz, pair.q2, pair.label2.value
        beta = beta_coefficients(sys)
        row["beta1"], row["beta2"] = beta.beta1, beta.beta2
    except (CavpuckError, ValueError, ZeroDivisionError) as exc:
        row["error"] = f"{type(exc).__name__}: {exc}"
        return row
    if s.q_ext1 is not None and s.q_ext2 is not None:
        try:
            spec = synthesize_s21(TwoPortModel(sys, s.q_ext1, s.q_ext2))
            summary = find_peaks_and_notch(spec)
            row["f_peak1_hz"] = summary.f_peak1_hz
            row["f_peak2_hz"] = summary.f_peak2_hz
            row["f_notch_hz"] = summary.f_notch_hz
            row["notch_depth_db"] = summary.depth_db
        except (CavpuckError, ValueError) as exc:
            row["error"] = f"{type(exc).__name__}: {exc}"
    return row


def run_sweep(plan: SweepPlan, workers: int | None = None) -> SweepResult:
    """Evaluate the plan; row order follows the grid regardless of workers."""
    workers = _resolve_workers(workers)
    grid = [float(v) for v in plan.grid]
    if workers == 1:
        dicts = [_eval_row(plan, v) for v in grid]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            dicts = list(pool.map(lambda v: _eval_row(plan, v), grid))
    rows = [[d[c] for c in COLUMNS] for d in dicts]
    meta = dict(scenario_meta(plan.scenario))
    meta["sweep.variable"] = plan.variable.value
    meta["sweep.points"] = len(grid)
    meta["sweep.start"] = grid[0]
    meta["sweep.stop"] = grid[-1]
    if plan.kappa_override is not None:
        meta["sweep.kappa_override"] = plan.kappa_override
    if plan.fixed_eps_r is not None:
        meta["sweep.fixed_eps_r"] = plan.fixed_eps_r
    return SweepResult(columns=COLUMNS, rows=rows, meta=meta)


def _format_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_sweep_csv(result: SweepResult, path):
    with open(path, "w", newline="") as fh:
        fh.write(meta_block(result.meta))
        # csv.writer quotes error messages that carry commas themselves
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(result.columns)
        writer.writerows([_format_cell(v) for v in row] for row in result.rows)


def write_sweep_json(result: SweepResult, path):
    doc = {
        "meta": {k: result.meta[k] for k in sorted(result.meta)},
        "columns": list(result.columns),
        "rows": result.rows,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=False)
        fh.write("\n")
