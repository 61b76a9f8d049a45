"""Declarative scenario specifications.

A :class:`ScenarioSpec` captures everything the generic runner needs to
execute an experiment — the machine, the workload mix, the estimators or
policies (as registry names), the sweep axes and the instruction/interval
budgets — as a frozen value that round-trips losslessly through
``to_dict``/``from_dict`` (and therefore JSON files).  Validation raises
:class:`~repro.errors.ConfigurationError` with the offending field named, so
a typo in a JSON scenario fails before any simulation starts.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace

from repro.errors import ConfigurationError
from repro.faults import FaultPlan
from repro import registry

__all__ = [
    "AXIS_NAMES",
    "SCENARIO_KINDS",
    "MachineSpec",
    "WorkloadMixSpec",
    "SweepAxis",
    "ScenarioSpec",
    "load_spec",
]

# ``accuracy`` runs private-mode estimation error evaluation (Figures 3-5 and
# 7); ``throughput`` runs the partitioning case study (Figure 6);
# ``interference_attribution`` decomposes each application's slowdown into
# cache/ring/DRAM interference; ``policy_switching`` records a time series of
# estimated IPC and partition decisions while the policy rotates mid-run.
SCENARIO_KINDS = (
    "accuracy",
    "throughput",
    "interference_attribution",
    "policy_switching",
)

# Sweep axes understood by the runner; each varies one machine knob of
# Section VII-D across the listed values.
AXIS_NAMES = (
    "llc_size_kb",
    "llc_associativity",
    "dram_channels",
    "dram_interface",
    "prb_entries",
)

DRAM_INTERFACE_NAMES = ("DDR2", "DDR4")

def _as_tuple(value, coerce=None) -> tuple:
    if isinstance(value, (list, tuple)):
        items = tuple(value)
    else:
        items = (value,)
    if coerce is not None:
        items = tuple(coerce(item) for item in items)
    return items


def _require_object(data, context: str) -> dict:
    if not isinstance(data, dict):
        raise ConfigurationError(
            f"the {context} section must be a JSON object, got {type(data).__name__}"
        )
    return data


def _reject_unknown_keys(data: dict, known: tuple[str, ...], context: str) -> None:
    unknown = sorted(str(key) for key in set(data) - set(known))
    if unknown:
        raise ConfigurationError(
            f"unknown {context} field(s): {', '.join(unknown)} "
            f"(expected a subset of: {', '.join(known)})"
        )


def _is_positive_int(value) -> bool:
    # bool is a subclass of int: JSON true/false must not pass as 1/0.
    return isinstance(value, int) and not isinstance(value, bool) and value > 0


@dataclass(frozen=True)
class MachineSpec:
    """The CMP(s) a scenario runs on.

    ``llc_kilobytes`` of ``None`` selects the per-core-count experiment
    default (the scaled Table I sizes of
    :data:`repro.experiments.common.EXPERIMENT_LLC_KILOBYTES`).
    """

    core_counts: tuple[int, ...] = (2, 4, 8)
    llc_kilobytes: int | None = None

    def validate(self) -> None:
        if not self.core_counts:
            raise ConfigurationError("machine.core_counts must name at least one CMP")
        for n_cores in self.core_counts:
            if not _is_positive_int(n_cores):
                raise ConfigurationError(
                    f"machine.core_counts entries must be positive integers, got {n_cores!r}"
                )
        if len(set(self.core_counts)) != len(self.core_counts):
            raise ConfigurationError(
                "machine.core_counts lists a core count twice — duplicate cells "
                "would silently double the simulation work"
            )
        if self.llc_kilobytes is not None and not _is_positive_int(self.llc_kilobytes):
            raise ConfigurationError("machine.llc_kilobytes must be a positive integer when set")

    @staticmethod
    def from_dict(data: dict) -> "MachineSpec":
        _require_object(data, "machine")
        _reject_unknown_keys(data, ("core_counts", "llc_kilobytes"), "machine")
        spec = MachineSpec(
            core_counts=_as_tuple(data.get("core_counts", (2, 4, 8))),
            llc_kilobytes=data.get("llc_kilobytes"),
        )
        return spec


@dataclass(frozen=True)
class WorkloadMixSpec:
    """Which multi-programmed workloads to generate.

    ``generator`` names an entry of
    :data:`repro.registry.workload_generators`; ``groups`` are its group
    arguments — H/M/L categories for ``"category"``, per-core mix strings
    such as ``"HMLL"`` for ``"mixed"``, and either for ``"auto"``.
    """

    generator: str = "auto"
    groups: tuple[str, ...] = ("H", "M", "L")
    per_group: int = 2
    seed: int = 0

    def validate(self) -> None:
        # Registry.get raises the uniform unknown-name ConfigurationError
        # (registered list + did-you-mean suggestion).
        registry.workload_generators.get(self.generator)
        if not self.groups:
            raise ConfigurationError("workloads.groups must name at least one group")
        if len(set(self.groups)) != len(self.groups):
            raise ConfigurationError(
                "workloads.groups lists a group twice — duplicate cells would "
                "silently double the simulation work"
            )
        if not _is_positive_int(self.per_group):
            raise ConfigurationError("workloads.per_group must be a positive integer")
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ConfigurationError("workloads.seed must be an integer")

    @staticmethod
    def from_dict(data: dict) -> "WorkloadMixSpec":
        _require_object(data, "workloads")
        _reject_unknown_keys(data, ("generator", "groups", "per_group", "seed"), "workloads")
        return WorkloadMixSpec(
            generator=data.get("generator", "auto"),
            groups=_as_tuple(data.get("groups", ("H", "M", "L")), coerce=str),
            per_group=data.get("per_group", 2),
            seed=data.get("seed", 0),
        )


@dataclass(frozen=True)
class SweepAxis:
    """One machine knob swept across several values (Figure 7 style)."""

    name: str
    values: tuple

    def validate(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ConfigurationError(
                f"unknown sweep axis '{self.name}' (expected one of: {', '.join(AXIS_NAMES)})"
            )
        if not self.values:
            raise ConfigurationError(f"sweep axis '{self.name}' needs at least one value")
        if self.name == "dram_interface":
            for value in self.values:
                if value not in DRAM_INTERFACE_NAMES:
                    raise ConfigurationError(
                        f"axis 'dram_interface' values must be one of "
                        f"{'/'.join(DRAM_INTERFACE_NAMES)}, got {value!r}"
                    )
        else:
            for value in self.values:
                if not _is_positive_int(value):
                    raise ConfigurationError(
                        f"axis '{self.name}' values must be positive integers, got {value!r}"
                    )
        # Values are all hashable by now (type checks above ran first).
        if len(set(self.values)) != len(self.values):
            raise ConfigurationError(
                f"sweep axis '{self.name}' lists a value twice — duplicate cells "
                f"would silently double the simulation work"
            )

    @staticmethod
    def from_dict(data: dict) -> "SweepAxis":
        _require_object(data, "axis")
        _reject_unknown_keys(data, ("name", "values"), "axis")
        if "name" not in data or "values" not in data:
            raise ConfigurationError("each sweep axis needs 'name' and 'values'")
        return SweepAxis(name=data["name"], values=_as_tuple(data["values"]))


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete, declarative description of one experiment scenario."""

    name: str
    kind: str
    machine: MachineSpec = field(default_factory=MachineSpec)
    workloads: WorkloadMixSpec = field(default_factory=WorkloadMixSpec)
    # Defaults are everything registered *at spec-construction time*, in
    # registration order (= the paper's Figure 3/6 column order).
    techniques: tuple[str, ...] = field(
        default_factory=registry.accounting_techniques.names)
    policies: tuple[str, ...] = field(
        default_factory=registry.partitioning_policies.names)
    axes: tuple[SweepAxis, ...] = ()
    instructions_per_core: int = 24_000
    interval_instructions: int = 6_000
    repartition_interval_cycles: float = 40_000.0
    # Cycle period at which a policy_switching scenario advances to the next
    # policy of the sequence; None derives it from the repartition interval.
    policy_switch_cycles: float | None = None
    collect_components: bool = False
    description: str = ""
    # Deterministic fault injection for chaos testing (:mod:`repro.faults`).
    # Deliberately excluded from :func:`~repro.scenarios.runner.scenario_digest`:
    # faults change the execution path, never the result, so a faulted run
    # must share cache entries and artifacts with its fault-free twin.
    fault_plan: FaultPlan | None = None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` on the first invalid field."""
        if not self.name:
            raise ConfigurationError("a scenario needs a non-empty name")
        if self.kind not in SCENARIO_KINDS:
            raise ConfigurationError(
                f"unknown scenario kind '{self.kind}' "
                f"(expected one of: {', '.join(SCENARIO_KINDS)})"
                f"{registry.suggest_name(self.kind, SCENARIO_KINDS)}"
            )
        self.machine.validate()
        self.workloads.validate()
        self._validate_groups()
        # Both name lists are checked regardless of kind: a typo'd entry in
        # the list the kind ignores would otherwise pass silently.
        # Registry.get raises the uniform unknown-name ConfigurationError
        # (registered list + did-you-mean suggestion).
        for technique in self.techniques:
            registry.accounting_techniques.get(technique)
        for policy in self.policies:
            registry.partitioning_policies.get(policy)
        for label, noun, names in (("techniques", "technique", self.techniques),
                                   ("policies", "policy", self.policies)):
            if len(set(names)) != len(names):
                raise ConfigurationError(
                    f"{label} lists a {noun} twice — the duplicate would silently "
                    "repeat its simulation work for a single table column"
                )
        if self.kind == "accuracy" and not self.techniques:
            raise ConfigurationError("an accuracy scenario needs at least one technique")
        if self.kind == "throughput" and not self.policies:
            raise ConfigurationError("a throughput scenario needs at least one policy")
        if self.kind == "policy_switching":
            if not self.policies:
                raise ConfigurationError(
                    "a policy_switching scenario needs at least one policy to rotate"
                )
            if not self.techniques:
                raise ConfigurationError(
                    "a policy_switching scenario needs at least one technique "
                    "to produce the estimated-IPC time series"
                )
        seen_axes = set()
        for axis in self.axes:
            axis.validate()
            if axis.name in seen_axes:
                raise ConfigurationError(f"sweep axis '{axis.name}' appears twice")
            seen_axes.add(axis.name)
        if not _is_positive_int(self.instructions_per_core):
            raise ConfigurationError("instructions_per_core must be a positive integer")
        if not _is_positive_int(self.interval_instructions):
            raise ConfigurationError("interval_instructions must be a positive integer")
        if (not isinstance(self.repartition_interval_cycles, (int, float))
                or isinstance(self.repartition_interval_cycles, bool)
                or self.repartition_interval_cycles <= 0):
            raise ConfigurationError("repartition_interval_cycles must be a positive number")
        if self.policy_switch_cycles is not None and (
                not isinstance(self.policy_switch_cycles, (int, float))
                or isinstance(self.policy_switch_cycles, bool)
                or self.policy_switch_cycles <= 0):
            raise ConfigurationError(
                "policy_switch_cycles must be a positive number when set"
            )
        if not isinstance(self.collect_components, bool):
            raise ConfigurationError(
                "collect_components must be a JSON boolean (true/false)"
            )
        if not isinstance(self.description, str):
            raise ConfigurationError("description must be a string")
        if self.fault_plan is not None:
            if not isinstance(self.fault_plan, FaultPlan):
                raise ConfigurationError(
                    "fault_plan must be a FaultPlan (build one with "
                    "FaultPlan.from_dict)"
                )
            self.fault_plan.validate()

    def _validate_groups(self) -> None:
        """Check group names against the *built-in* workload generators.

        The built-in generators only understand H/M/L categories and per-core
        mix strings, so a typo'd group must fail here with a configuration
        error rather than deep inside workload generation.  User-registered
        generators define their own group vocabulary and are not constrained.
        """
        generator = self.workloads.generator
        if generator not in ("category", "mixed", "auto"):
            return
        categories = {"H", "M", "L"}
        for group in self.workloads.groups:
            is_category = generator == "category" or (generator == "auto" and len(group) == 1)
            if is_category:
                if group not in categories:
                    raise ConfigurationError(
                        f"unknown workload category '{group}' (expected H, M or L)"
                    )
                continue
            if not set(group) <= categories:
                raise ConfigurationError(
                    f"workload mix '{group}' may only contain the letters H, M and L"
                )
            for n_cores in self.machine.core_counts:
                if len(group) != n_cores:
                    raise ConfigurationError(
                        f"workload mix '{group}' names {len(group)} cores per "
                        f"workload but machine.core_counts includes {n_cores}"
                    )

    # ------------------------------------------------------------- dict round-trip

    def to_dict(self) -> dict:
        """A JSON-serialisable dict that :meth:`from_dict` restores exactly."""
        payload = {
            "name": self.name,
            "kind": self.kind,
            "machine": {
                "core_counts": list(self.machine.core_counts),
                "llc_kilobytes": self.machine.llc_kilobytes,
            },
            "workloads": {
                "generator": self.workloads.generator,
                "groups": list(self.workloads.groups),
                "per_group": self.workloads.per_group,
                "seed": self.workloads.seed,
            },
            "techniques": list(self.techniques),
            "policies": list(self.policies),
            "axes": [
                {"name": axis.name, "values": list(axis.values)} for axis in self.axes
            ],
            "instructions_per_core": self.instructions_per_core,
            "interval_instructions": self.interval_instructions,
            "repartition_interval_cycles": self.repartition_interval_cycles,
            "policy_switch_cycles": self.policy_switch_cycles,
            "collect_components": self.collect_components,
            "description": self.description,
        }
        # Omitted when unset so pre-existing specs round-trip byte-identically.
        if self.fault_plan is not None:
            payload["fault_plan"] = self.fault_plan.to_dict()
        return payload

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @staticmethod
    def from_dict(data: dict) -> "ScenarioSpec":
        """Build and validate a spec from a plain dict (e.g. a parsed JSON file)."""
        if not isinstance(data, dict):
            raise ConfigurationError(
                f"a scenario spec must be a JSON object, got {type(data).__name__}"
            )
        known = tuple(spec_field.name for spec_field in fields(ScenarioSpec))
        _reject_unknown_keys(data, known, "scenario")
        if "name" not in data or "kind" not in data:
            raise ConfigurationError("a scenario spec needs 'name' and 'kind'")
        spec = ScenarioSpec(name=data["name"], kind=data["kind"])
        overrides: dict = {}
        if "machine" in data:
            overrides["machine"] = MachineSpec.from_dict(data["machine"])
        if "workloads" in data:
            overrides["workloads"] = WorkloadMixSpec.from_dict(data["workloads"])
        if "techniques" in data:
            overrides["techniques"] = _as_tuple(data["techniques"], coerce=str)
        if "policies" in data:
            overrides["policies"] = _as_tuple(data["policies"], coerce=str)
        if "axes" in data:
            overrides["axes"] = tuple(SweepAxis.from_dict(axis) for axis in data["axes"])
        if data.get("fault_plan") is not None:
            overrides["fault_plan"] = FaultPlan.from_dict(data["fault_plan"])
        for scalar in ("instructions_per_core", "interval_instructions",
                       "repartition_interval_cycles", "policy_switch_cycles",
                       "collect_components", "description"):
            if scalar in data:
                overrides[scalar] = data[scalar]
        if overrides:
            spec = replace(spec, **overrides)
        spec.validate()
        return spec

    @staticmethod
    def from_json(text: str) -> "ScenarioSpec":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as error:
            raise ConfigurationError(f"scenario spec is not valid JSON: {error}") from None
        return ScenarioSpec.from_dict(data)


def load_spec(path: str) -> ScenarioSpec:
    """Load and validate a scenario spec from a JSON file."""
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as error:
        raise ConfigurationError(f"cannot read scenario file {path}: {error}") from None
    return ScenarioSpec.from_json(text)
