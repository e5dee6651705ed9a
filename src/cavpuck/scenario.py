"""Scenario files: one JSON document describing puck, materials, cavity,
coupling, and ports, used by the CLI and the sweep engine.

Schema (version 1):

    {
      "schema_version": 1,
      "name": "...",                      # optional
      "puck": {"radius_mm": .., "height_mm": .., "hole_radius_mm": ..},
      "permittivity": {"type": "constant"|"inverse_t"|"table", ...},
      "loss": {"type": "constant"|"table", ...},
      "cavity": {"frequency": "1.3 GHz", "q": 2.89e4},
      "kappa": 0.0278 | {"calibration": "50mm"} | null,
      "ports": {"q_ext1": .., "q_ext2": ..},          # optional
      "sto_frequency_fit": {"k0_mhz": .., "k1_mhz_per_k": .., "k2_mhz_per_k2": ..}  # optional
    }

Frequencies are plain numbers in Hz or strings with an Hz/kHz/MHz/GHz
suffix.  ``kappa: null`` means the scenario does not pin the coupling and
the caller must supply it (``--kappa`` on the CLI).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from importlib import resources

from .cmt import KAPPA_BY_PUCK_OFFSET, CoupledSystem
from .errors import ScenarioError
from .materials import (
    ConstantLoss,
    ConstantPermittivity,
    InverseTPermittivity,
    TableLoss,
    TablePermittivity,
    eval_loss_q,
)
from .network import TwoPortModel
from .resonator import CavityMode, DielectricPuck, TemperatureFrequencyFit, puck_frequency_hz

SCHEMA_VERSION = 1

_UNIT_SCALE = {"hz": 1.0, "khz": 1e3, "mhz": 1e6, "ghz": 1e9}
_FREQ_RE = re.compile(r"^\s*([+-]?\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)\s*(Hz|kHz|MHz|GHz)?\s*$")


def parse_frequency(value) -> float:
    """Normalize a number (Hz) or a 'number + unit suffix' string to Hz."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if isinstance(value, str):
        m = _FREQ_RE.match(value)
        if m:
            scale = _UNIT_SCALE[m.group(2).lower()] if m.group(2) else 1.0
            return float(m.group(1)) * scale
    raise ScenarioError(f"cannot parse frequency {value!r} (use Hz or 'X MHz' etc.)")


@dataclass(frozen=True)
class Scenario:
    name: str
    puck: DielectricPuck
    permittivity: object
    loss: object
    cavity: CavityMode
    kappa: float | None
    q_ext1: float | None
    q_ext2: float | None
    sto_fit: TemperatureFrequencyFit | None = None

    def resolved_kappa(self, override: float | None = None) -> float:
        k = override if override is not None else self.kappa
        if k is None:
            raise ScenarioError(
                f"scenario {self.name!r} does not pin kappa; pass one explicitly"
            )
        return k

    def system_at(self, eps_r: float | None = None, t_k: float | None = None,
                  kappa: float | None = None) -> CoupledSystem:
        """CoupledSystem with f_sto from eps_r directly or from T (exactly one
        of the two).  At a temperature f_sto comes from the measured
        sto_frequency_fit where the scenario has one, and through the
        permittivity model otherwise."""
        if (eps_r is None) == (t_k is None):
            raise ScenarioError("supply exactly one of eps_r or t_k")
        if eps_r is not None:
            f_sto = puck_frequency_hz(self.puck, eps_r)
        elif self.sto_fit is not None:
            f_sto = self.sto_fit.eval_hz(t_k)
        else:
            f_sto = puck_frequency_hz(self.puck, self.permittivity.eval(t_k))
        q_sto = eval_loss_q(self.loss, t_k if t_k is not None else 293.0)
        return CoupledSystem(
            f_sto, q_sto, self.cavity.f_hz, self.cavity.q, self.resolved_kappa(kappa)
        )

    def two_port(self, **kwargs) -> TwoPortModel:
        if self.q_ext1 is None or self.q_ext2 is None:
            raise ScenarioError(f"scenario {self.name!r} defines no ports")
        return TwoPortModel(self.system_at(**kwargs), self.q_ext1, self.q_ext2)


def _require(d: dict, key: str, where: str):
    if key not in d:
        raise ScenarioError(f"{where}: missing required key {key!r}")
    return d[key]


def _build_permittivity(d: dict):
    kind = _require(d, "type", "permittivity")
    try:
        if kind == "constant":
            return ConstantPermittivity(float(_require(d, "eps_r", "permittivity")))
        if kind == "inverse_t":
            return InverseTPermittivity(
                float(_require(d, "coeff", "permittivity")),
                float(_require(d, "t_min", "permittivity")),
                float(_require(d, "t_max", "permittivity")),
            )
        if kind == "table":
            return TablePermittivity(
                tuple(float(x) for x in _require(d, "t_k", "permittivity")),
                tuple(float(x) for x in _require(d, "eps_r", "permittivity")),
            )
    except ValueError as exc:
        raise ScenarioError(f"permittivity: {exc}") from None
    raise ScenarioError(f"permittivity: unknown type {kind!r}")


def _build_loss(d: dict):
    kind = _require(d, "type", "loss")
    try:
        if kind == "constant":
            return ConstantLoss(float(_require(d, "tan_delta", "loss")))
        if kind == "table":
            return TableLoss(
                tuple(float(x) for x in _require(d, "t_k", "loss")),
                tuple(float(x) for x in _require(d, "tan_delta", "loss")),
            )
    except ValueError as exc:
        raise ScenarioError(f"loss: {exc}") from None
    raise ScenarioError(f"loss: unknown type {kind!r}")


def _build_kappa(v):
    if v is None:
        return None
    if isinstance(v, dict):
        key = _require(v, "calibration", "kappa")
        if key not in KAPPA_BY_PUCK_OFFSET:
            raise ScenarioError(
                f"kappa calibration {key!r} not in table "
                f"(known: {sorted(KAPPA_BY_PUCK_OFFSET)}); no interpolation is offered"
            )
        return KAPPA_BY_PUCK_OFFSET[key]
    k = float(v)
    if not abs(k) < 1:
        raise ScenarioError(f"|kappa| must be < 1, got {k}")
    return k


def scenario_from_dict(doc: dict, name: str = "<dict>") -> Scenario:
    version = _require(doc, "schema_version", name)
    if version != SCHEMA_VERSION:
        raise ScenarioError(f"{name}: unsupported schema_version {version!r} (want {SCHEMA_VERSION})")
    puck_d = _require(doc, "puck", name)
    try:
        puck = DielectricPuck(
            float(_require(puck_d, "radius_mm", "puck")),
            float(_require(puck_d, "height_mm", "puck")),
            float(puck_d.get("hole_radius_mm", 0.0)),
        )
        cav_d = _require(doc, "cavity", name)
        cavity = CavityMode(
            parse_frequency(_require(cav_d, "frequency", "cavity")),
            float(_require(cav_d, "q", "cavity")),
        )
    except ValueError as exc:
        raise ScenarioError(f"{name}: {exc}") from None
    ports = doc.get("ports")
    q1 = q2 = None
    if ports is not None:
        q1 = float(_require(ports, "q_ext1", "ports"))
        q2 = float(_require(ports, "q_ext2", "ports"))
        if q1 <= 0 or q2 <= 0:
            raise ScenarioError("ports: external Qs must be positive")
    fit = None
    if doc.get("sto_frequency_fit") is not None:
        fd = doc["sto_frequency_fit"]
        fit = TemperatureFrequencyFit(
            float(_require(fd, "k0_mhz", "sto_frequency_fit")),
            float(_require(fd, "k1_mhz_per_k", "sto_frequency_fit")),
            float(_require(fd, "k2_mhz_per_k2", "sto_frequency_fit")),
        )
    return Scenario(
        name=str(doc.get("name", name)),
        puck=puck,
        permittivity=_build_permittivity(_require(doc, "permittivity", name)),
        loss=_build_loss(_require(doc, "loss", name)),
        cavity=cavity,
        kappa=_build_kappa(doc.get("kappa")),
        q_ext1=q1,
        q_ext2=q2,
        sto_fit=fit,
    )


def load_scenario(path) -> Scenario:
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ScenarioError(f"cannot read scenario {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise ScenarioError(f"{path}: top level must be a JSON object")
    return scenario_from_dict(doc, name=str(path))


def bundled_scenario(name: str) -> Scenario:
    """Load one of the scenarios shipped with the package (e.g. 'paper-pec')."""
    fname = name.replace("-", "_") + ".json"
    ref = resources.files("cavpuck.scenarios").joinpath(fname)
    try:
        doc = json.loads(ref.read_text())
    except FileNotFoundError:
        raise ScenarioError(f"no bundled scenario named {name!r}") from None
    return scenario_from_dict(doc, name=name)


def scenario_meta(s: Scenario) -> dict:
    """Flat key=value provenance snapshot for output files."""
    meta = {
        "scenario": s.name,
        "puck.radius_mm": s.puck.radius_mm,
        "puck.height_mm": s.puck.height_mm,
        "puck.hole_radius_mm": s.puck.hole_radius_mm,
        "permittivity": repr(s.permittivity),
        "loss": repr(s.loss),
        "cavity.f_hz": s.cavity.f_hz,
        "cavity.q": s.cavity.q,
        "kappa": s.kappa,
    }
    if s.q_ext1 is not None:
        meta["ports.q_ext1"] = s.q_ext1
        meta["ports.q_ext2"] = s.q_ext2
    if s.sto_fit is not None:
        meta["sto_fit.k0_mhz"] = s.sto_fit.k0_mhz
        meta["sto_fit.k1_mhz_per_k"] = s.sto_fit.k1_mhz_per_k
        meta["sto_fit.k2_mhz_per_k2"] = s.sto_fit.k2_mhz_per_k2
    return meta
