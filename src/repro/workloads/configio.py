"""JSON (de)serialization of :class:`ScenarioConfig`.

Lets experiment configurations live in version-controlled files::

    cfg = config_from_json(open("scenario.json").read())
    summary = build_scenario(cfg).run(duration=300.0)

Only fields present in the JSON are overridden; everything else keeps
its dataclass default, so configs stay forward-compatible as knobs are
added.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Type, TypeVar

from repro.core.estimate import CompletionTimeEstimator
from repro.core.manager import RMConfig
from repro.gossip.agent import GossipConfig
from repro.overlay.churn import ChurnConfig
from repro.overlay.failover import FailoverConfig
from repro.overlay.qualification import QualificationPolicy
from repro.workloads.arrivals import WorkloadConfig
from repro.workloads.population import PopulationConfig
from repro.workloads.scenario import ScenarioConfig

T = TypeVar("T")

#: Nested config sections and their dataclass types.
_SECTIONS: Dict[str, type] = {
    "population": PopulationConfig,
    "workload": WorkloadConfig,
    "rm": RMConfig,
    "estimator": CompletionTimeEstimator,
    "gossip": GossipConfig,
    "failover": FailoverConfig,
    "qualification": QualificationPolicy,
    "churn": ChurnConfig,
}


def _dataclass_to_dict(obj: Any) -> Any:
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: _dataclass_to_dict(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, tuple):
        return list(obj)
    return obj


def _build_section(cls: Type[T], data: Dict[str, Any]) -> T:
    field_info = {f.name: f for f in dataclasses.fields(cls)}
    unknown = set(data) - set(field_info)
    if unknown:
        raise ValueError(
            f"{cls.__name__}: unknown config keys {sorted(unknown)}"
        )
    kwargs = {}
    for key, value in data.items():
        field = field_info[key]
        # Tuples arrive as JSON lists.
        if isinstance(value, list) and field.default is not None and \
                isinstance(field.default, tuple):
            value = tuple(value)
        kwargs[key] = value
    return cls(**kwargs)


def config_to_json(cfg: ScenarioConfig, indent: int = 2) -> str:
    """Serialize a full ScenarioConfig to JSON text."""
    doc = _dataclass_to_dict(cfg)
    return json.dumps(doc, indent=indent, default=str)


def config_from_dict(doc: Dict[str, Any]) -> ScenarioConfig:
    """Build a ScenarioConfig from a plain dict (partial configs
    allowed) — the shared core of JSON loading and the scenario DSL's
    embedded ``base`` section."""
    if not isinstance(doc, dict):
        raise ValueError("scenario config must be an object")
    kwargs: Dict[str, Any] = {}
    scenario_fields = {
        f.name: f for f in dataclasses.fields(ScenarioConfig)
    }
    unknown = set(doc) - set(scenario_fields)
    if unknown:
        raise ValueError(f"unknown top-level config keys {sorted(unknown)}")
    for key, value in doc.items():
        if key in _SECTIONS:
            if value is None:
                kwargs[key] = None
            elif isinstance(value, dict):
                kwargs[key] = _build_section(_SECTIONS[key], value)
            else:
                raise ValueError(f"section {key!r} must be an object")
        else:
            kwargs[key] = value
    return ScenarioConfig(**kwargs)


def config_from_json(text: str) -> ScenarioConfig:
    """Build a ScenarioConfig from JSON text (partial configs allowed)."""
    return config_from_dict(json.loads(text))


def load_config(path: str) -> ScenarioConfig:
    """Read a ScenarioConfig from a JSON file."""
    with open(path, "r", encoding="utf-8") as fp:
        return config_from_json(fp.read())
