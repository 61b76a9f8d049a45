"""Tests for the declarative scenario engine (spec, runner, builtins).

The equivalence classes replicate the pre-engine figure harness loops inline
(direct serial calls to the evaluators in the original nesting order) and pin
the engine-backed figure adapters to bit-identical outputs.
"""

import json

import pytest

from repro.errors import ConfigurationError
from repro.experiments.accuracy import evaluate_workload_accuracy, summarize_rms
from repro.experiments.case_study import evaluate_workload_throughput
from repro.experiments.common import default_experiment_config
from repro.experiments.figure3 import run_figure3
from repro.experiments.figure6 import Figure6Settings, figure6_spec, run_figure6
from repro.experiments.figure7 import (
    PANEL_AXES,
    PANELS,
    Figure7Settings,
    figure7_panel_spec,
    run_figure7_panel,
)
from repro.experiments.summary import run_headline_summary
from repro.experiments.sweep import (
    AccuracySweep,
    SweepSettings,
    accuracy_sweep_spec,
    run_accuracy_sweep,
)
from repro.config import DDR2_800, DDR4_2666
from repro.scenarios import (
    MachineSpec,
    ScenarioSpec,
    SweepAxis,
    WorkloadMixSpec,
    builtin_scenarios,
    expand_cells,
    get_builtin,
    load_spec,
    resolve_scale,
    run_scenario,
)
from repro.workloads.mixes import generate_category_workloads

TINY = SweepSettings(
    core_counts=(2,),
    categories=("H",),
    workloads_per_category=1,
    instructions_per_core=6_000,
    interval_instructions=3_000,
    collect_components=True,
)


def tiny_spec(**overrides) -> ScenarioSpec:
    values = dict(
        name="tiny",
        kind="accuracy",
        machine=MachineSpec(core_counts=(2,)),
        workloads=WorkloadMixSpec(groups=("H",), per_group=1),
        techniques=("GDP", "GDP-O"),
        instructions_per_core=6_000,
        interval_instructions=3_000,
    )
    values.update(overrides)
    return ScenarioSpec(**values)


class TestSpecRoundTrip:
    def test_dict_round_trip_is_lossless(self):
        spec = tiny_spec(
            axes=(SweepAxis("llc_size_kb", (64, 128)),),
            description="round trip",
        )
        assert ScenarioSpec.from_dict(spec.to_dict()) == spec

    def test_json_round_trip_is_lossless(self):
        spec = figure6_spec(Figure6Settings(core_counts=(2,), categories=("H",)))
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_to_dict_is_json_serialisable(self):
        spec = figure7_panel_spec("prb_entries")
        json.dumps(spec.to_dict())

    def test_from_dict_accepts_lists(self):
        spec = ScenarioSpec.from_dict({
            "name": "listy", "kind": "accuracy",
            "machine": {"core_counts": [2, 4]},
            "workloads": {"groups": ["H", "L"]},
            "techniques": ["GDP"],
        })
        assert spec.machine.core_counts == (2, 4)
        assert spec.workloads.groups == ("H", "L")

    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(tiny_spec().to_json())
        assert load_spec(str(path)) == tiny_spec()

    def test_load_spec_missing_file(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot read"):
            load_spec(str(tmp_path / "absent.json"))

    def test_from_json_rejects_malformed_json(self):
        with pytest.raises(ConfigurationError, match="not valid JSON"):
            ScenarioSpec.from_json("{not json")


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown scenario kind"):
            tiny_spec(kind="latency").validate()

    def test_unknown_technique(self):
        with pytest.raises(ConfigurationError, match="unknown accounting technique"):
            tiny_spec(techniques=("GDP", "QoSFlex")).validate()

    def test_unknown_names_rejected_regardless_of_kind(self):
        # A typo'd entry in the list the kind does not use must still fail.
        with pytest.raises(ConfigurationError, match="unknown partitioning policy"):
            tiny_spec(policies=("Clairvoyant",)).validate()
        with pytest.raises(ConfigurationError, match="unknown accounting technique"):
            tiny_spec(kind="throughput", techniques=("GPD",)).validate()

    def test_non_bool_collect_components_rejected(self):
        with pytest.raises(ConfigurationError, match="collect_components"):
            tiny_spec(collect_components="false").validate()

    def test_unknown_policy(self):
        with pytest.raises(ConfigurationError, match="unknown partitioning policy"):
            tiny_spec(kind="throughput", policies=("LRU", "Clairvoyant")).validate()

    def test_unknown_generator(self):
        with pytest.raises(ConfigurationError, match="unknown workload generator"):
            tiny_spec(workloads=WorkloadMixSpec(generator="spec2017")).validate()

    def test_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            tiny_spec(axes=(SweepAxis("rob_entries", (64,)),)).validate()

    def test_duplicate_axis(self):
        axis = SweepAxis("dram_channels", (1, 2))
        with pytest.raises(ConfigurationError, match="appears twice"):
            tiny_spec(axes=(axis, axis)).validate()

    def test_unknown_group_names_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown workload category 'X'"):
            tiny_spec(workloads=WorkloadMixSpec(groups=("X",))).validate()
        with pytest.raises(ConfigurationError, match="letters H, M and L"):
            tiny_spec(workloads=WorkloadMixSpec(groups=("HQ",))).validate()
        # A mix string must name exactly one category per core.
        with pytest.raises(ConfigurationError, match="core_counts includes 2"):
            tiny_spec(workloads=WorkloadMixSpec(groups=("HMLL",))).validate()
        # ...and is fine when it does.
        tiny_spec(machine=MachineSpec(core_counts=(4,)),
                  workloads=WorkloadMixSpec(groups=("HMLL",))).validate()

    def test_duplicate_axis_values_rejected(self):
        with pytest.raises(ConfigurationError, match="lists a value twice"):
            tiny_spec(axes=(SweepAxis("llc_associativity", (16, 16)),)).validate()

    def test_duplicate_groups_and_core_counts_rejected(self):
        with pytest.raises(ConfigurationError, match="lists a group twice"):
            tiny_spec(workloads=WorkloadMixSpec(groups=("H", "H"))).validate()
        with pytest.raises(ConfigurationError, match="lists a core count twice"):
            tiny_spec(machine=MachineSpec(core_counts=(4, 4))).validate()

    def test_duplicate_policies_and_techniques_rejected(self):
        with pytest.raises(ConfigurationError, match="policies lists a policy twice"):
            tiny_spec(kind="throughput", policies=("LRU", "MCP", "LRU")).validate()
        with pytest.raises(ConfigurationError, match="techniques lists a technique twice"):
            tiny_spec(techniques=("GDP", "GDP")).validate()
        # Checked whatever the kind, like the names themselves.
        with pytest.raises(ConfigurationError, match="policies lists a policy twice"):
            tiny_spec(policies=("UCP", "UCP")).validate()
        with pytest.raises(ConfigurationError, match="policies lists a policy twice"):
            ScenarioSpec.from_dict({**tiny_spec().to_dict(), "kind": "throughput",
                                    "policies": ["LRU", "LRU"]})

    def test_single_arg_config_factory_with_llc_override_fails_cleanly(self):
        spec = tiny_spec(machine=MachineSpec(core_counts=(2,), llc_kilobytes=64))
        with pytest.raises(ConfigurationError, match="llc_kilobytes requires"):
            expand_cells(spec, config_factory=lambda n_cores: default_experiment_config(n_cores))

    def test_bad_axis_values(self):
        with pytest.raises(ConfigurationError, match="positive integers"):
            tiny_spec(axes=(SweepAxis("llc_size_kb", (64, -1)),)).validate()
        with pytest.raises(ConfigurationError, match="dram_interface"):
            tiny_spec(axes=(SweepAxis("dram_interface", ("DDR3",)),)).validate()

    def test_bad_budgets(self):
        with pytest.raises(ConfigurationError, match="instructions_per_core"):
            tiny_spec(instructions_per_core=0).validate()
        with pytest.raises(ConfigurationError, match="interval_instructions"):
            tiny_spec(interval_instructions=-5).validate()

    def test_non_integer_numeric_fields_rejected(self):
        """JSON specs with stringly or fractional numbers fail validation, not
        deep inside the engine with a TypeError."""
        with pytest.raises(ConfigurationError, match="instructions_per_core"):
            tiny_spec(instructions_per_core="4000").validate()
        with pytest.raises(ConfigurationError, match="per_group"):
            tiny_spec(workloads=WorkloadMixSpec(groups=("H",), per_group=1.5)).validate()
        with pytest.raises(ConfigurationError, match="seed"):
            tiny_spec(workloads=WorkloadMixSpec(groups=("H",), seed="zero")).validate()
        with pytest.raises(ConfigurationError, match="llc_kilobytes"):
            tiny_spec(machine=MachineSpec(llc_kilobytes=64.5)).validate()
        with pytest.raises(ConfigurationError, match="repartition_interval_cycles"):
            tiny_spec(kind="throughput",
                      repartition_interval_cycles="fast").validate()

    def test_bad_machine(self):
        with pytest.raises(ConfigurationError, match="core_counts"):
            tiny_spec(machine=MachineSpec(core_counts=())).validate()
        with pytest.raises(ConfigurationError, match="llc_kilobytes"):
            tiny_spec(machine=MachineSpec(llc_kilobytes=0)).validate()

    def test_unknown_spec_keys_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown scenario field"):
            ScenarioSpec.from_dict({"name": "x", "kind": "accuracy", "cores": 4})
        with pytest.raises(ConfigurationError, match="unknown machine field"):
            ScenarioSpec.from_dict(
                {"name": "x", "kind": "accuracy", "machine": {"cpus": 4}}
            )

    def test_missing_required_keys(self):
        with pytest.raises(ConfigurationError, match="'name' and 'kind'"):
            ScenarioSpec.from_dict({"kind": "accuracy"})


class TestExpansion:
    def test_accuracy_cells_match_hardwired_construction(self):
        """The engine builds the exact task tuples the seed sweep built."""
        settings = SweepSettings(core_counts=(2, 4), categories=("H", "L"),
                                 workloads_per_category=2)
        cells = expand_cells(accuracy_sweep_spec(settings))
        expected = []
        for n_cores in settings.core_counts:
            config = default_experiment_config(n_cores)
            for category in settings.categories:
                for workload in generate_category_workloads(
                        n_cores, category, settings.workloads_per_category,
                        seed=settings.seed):
                    expected.append((
                        workload, config, settings.instructions_per_core,
                        settings.interval_instructions, settings.seed,
                        settings.techniques, settings.collect_components,
                    ))
        assert [cell.task for cell in cells] == expected

    @pytest.mark.parametrize("panel", [p for p in PANELS if p != "mixed_workloads"])
    def test_figure7_panel_cells_match_hardwired_construction(self, panel):
        """Every panel's cells carry the configs the seed harness built."""
        settings = Figure7Settings(categories=("H",), workloads_per_category=1)
        cells = expand_cells(figure7_panel_spec(panel, settings))
        base = default_experiment_config(4)
        axis_name, values = PANEL_AXES[panel]
        workloads = generate_category_workloads(4, "H", 1, seed=settings.seed)
        expected = []
        for value in values:
            config, prb = base, None
            if axis_name == "llc_size_kb":
                config = base.with_llc(size_bytes=value * 1024)
            elif axis_name == "llc_associativity":
                config = base.with_llc(associativity=value)
            elif axis_name == "dram_channels":
                config = base.with_dram(channels=value)
            elif axis_name == "dram_interface":
                config = base.with_dram(timing=DDR2_800 if value == "DDR2" else DDR4_2666)
            else:
                prb = value
            for workload in workloads:
                task = (workload, config, settings.instructions_per_core,
                        settings.interval_instructions, settings.seed,
                        (settings.technique,), False)
                expected.append(task if prb is None else (*task, prb))
        assert [cell.task for cell in cells] == expected

    def test_throughput_prb_axis_changes_config(self):
        """A prb_entries axis on a throughput scenario must reach the config
        (the policies read it from there), not be silently dropped."""
        spec = tiny_spec(kind="throughput", policies=("LRU", "MCP"),
                         axes=(SweepAxis("prb_entries", (8, 1024)),))
        cells = expand_cells(spec)
        prb_by_label = {cell.key[2]: cell.task[1].accounting.prb_entries
                        for cell in cells}
        assert prb_by_label == {"8": 8, "1024": 1024}

    def test_unhashable_axis_values_rejected_cleanly(self):
        with pytest.raises(ConfigurationError, match="positive integers"):
            tiny_spec(axes=(SweepAxis("prb_entries", ([8, 16],)),)).validate()

    def test_unknown_builtin_scenario(self):
        with pytest.raises(ConfigurationError, match="unknown scenario"):
            get_builtin("figure99")

    def test_builtin_specs_validate(self):
        for scenario in builtin_scenarios():
            for spec in scenario.build_specs("small"):
                spec.validate()

    def test_resolve_scale_rejects_unknown(self):
        with pytest.raises(ConfigurationError, match="unknown scale"):
            resolve_scale("galactic")


@pytest.fixture(scope="module")
def engine_sweep():
    return run_accuracy_sweep(TINY, jobs=1)


@pytest.fixture(scope="module")
def seed_sweep():
    """Replica of the pre-engine run_accuracy_sweep (serial, original order)."""
    sweep = AccuracySweep(settings=TINY)
    for n_cores in TINY.core_counts:
        config = default_experiment_config(n_cores)
        for category in TINY.categories:
            for workload in generate_category_workloads(
                    n_cores, category, TINY.workloads_per_category, seed=TINY.seed):
                result = evaluate_workload_accuracy(
                    workload, config, TINY.instructions_per_core,
                    TINY.interval_instructions, TINY.seed, TINY.techniques,
                    TINY.collect_components,
                )
                sweep.cells.setdefault((n_cores, category), []).append(result)
    return sweep


class TestSeedEquivalence:
    """The engine path reproduces the hardwired harnesses bit-identically."""

    def test_accuracy_sweep_bit_identical(self, engine_sweep, seed_sweep):
        assert engine_sweep.cells == seed_sweep.cells

    def test_figure3_bit_identical(self, engine_sweep, seed_sweep):
        engine_figure = run_figure3(sweep=engine_sweep)
        seed_figure = run_figure3(sweep=seed_sweep)
        assert engine_figure.ipc_rms == seed_figure.ipc_rms
        assert engine_figure.stall_rms == seed_figure.stall_rms

    def test_headline_bit_identical(self, engine_sweep, seed_sweep):
        settings = Figure6Settings(
            core_counts=(2,), categories=("H",), workloads_per_category=1,
            instructions_per_core=8_000, interval_instructions=4_000,
            repartition_interval_cycles=8_000.0, policies=("LRU", "MCP"),
        )
        figure6 = run_figure6(settings, jobs=1)
        engine_headline = run_headline_summary(accuracy_sweep=engine_sweep, figure6=figure6)
        seed_headline = run_headline_summary(accuracy_sweep=seed_sweep, figure6=figure6)
        assert engine_headline == seed_headline

    def test_figure6_bit_identical(self):
        settings = Figure6Settings(
            core_counts=(2,), categories=("H",), workloads_per_category=1,
            instructions_per_core=8_000, interval_instructions=4_000,
            repartition_interval_cycles=8_000.0, policies=("LRU", "UCP", "MCP"),
        )
        engine_figure = run_figure6(settings, jobs=1)
        # Replica of the pre-engine run_figure6 (serial, original order).
        expected_per_workload = {}
        for n_cores in settings.core_counts:
            config = default_experiment_config(n_cores)
            for category in settings.categories:
                for workload in generate_category_workloads(
                        n_cores, category, settings.workloads_per_category,
                        seed=settings.seed):
                    outcome = evaluate_workload_throughput(
                        workload, config, settings.policies,
                        settings.instructions_per_core,
                        settings.interval_instructions,
                        settings.repartition_interval_cycles, settings.seed,
                    )
                    expected_per_workload.setdefault((n_cores, category), []).append(outcome)
        assert engine_figure.per_workload == expected_per_workload

    def test_figure7_panel_bit_identical(self):
        settings = Figure7Settings(categories=("H",), workloads_per_category=1,
                                   instructions_per_core=5_000,
                                   interval_instructions=2_500)
        engine_panel = run_figure7_panel("dram_interface", settings, jobs=1)
        # Replica of the pre-engine panel loop (serial, original order).
        base = default_experiment_config(4)
        workloads = generate_category_workloads(4, "H", 1, seed=settings.seed)
        expected = {"4c-H": {}}
        for interface in ("DDR2", "DDR4"):
            timing = DDR2_800 if interface == "DDR2" else DDR4_2666
            config = base.with_dram(timing=timing)
            results = [
                evaluate_workload_accuracy(
                    workload, config, settings.instructions_per_core,
                    settings.interval_instructions, settings.seed,
                    (settings.technique,), False, None,
                )
                for workload in workloads
            ]
            expected["4c-H"][interface] = summarize_rms(
                results, settings.technique, metric="ipc")
        assert engine_panel == expected


class TestGenericRunner:
    def test_accuracy_tables_and_report(self, engine_sweep):
        scenario = run_scenario(accuracy_sweep_spec(TINY), jobs=1)
        tables = scenario.tables()
        assert set(tables) == {"ipc_rms", "stall_rms"}
        assert set(tables["ipc_rms"]) == {"2c-H"}
        assert set(tables["ipc_rms"]["2c-H"]) == set(TINY.techniques)
        # Consistent with the sweep adapter built from the same spec.
        assert tables["ipc_rms"]["2c-H"]["GDP"] == pytest.approx(
            summarize_rms(engine_sweep.all_results(2), "GDP", metric="ipc"))
        report = scenario.report()
        assert "ipc_rms" in report and "2c-H" in report

    def test_throughput_scenario_from_json_spec(self, tmp_path):
        spec_data = {
            "name": "tiny-throughput",
            "kind": "throughput",
            "machine": {"core_counts": [2], "llc_kilobytes": 64},
            "workloads": {"groups": ["H"], "per_group": 1},
            "policies": ["LRU", "MCP"],
            "instructions_per_core": 6000,
            "interval_instructions": 3000,
            "repartition_interval_cycles": 8000.0,
        }
        path = tmp_path / "throughput.json"
        path.write_text(json.dumps(spec_data))
        scenario = run_scenario(load_spec(str(path)), jobs=1)
        table = scenario.tables()["average_stp"]
        assert set(table) == {"2c-H"}
        assert set(table["2c-H"]) == {"LRU", "MCP"}
        assert all(value > 0 for value in table["2c-H"].values())
        json.dumps(scenario.to_dict())

    def test_axis_scenario_groups_by_axis_label(self):
        spec = tiny_spec(axes=(SweepAxis("dram_channels", (1, 2)),),
                         techniques=("GDP",), instructions_per_core=4_000,
                         interval_instructions=2_000)
        scenario = run_scenario(spec, jobs=1)
        assert set(scenario.cells) == {(2, "H", "1"), (2, "H", "2")}
        table = scenario.tables()["ipc_rms"]
        assert set(table) == {"2c-H"}
        assert set(table["2c-H"]) == {"1", "2"}

    def test_invalid_spec_rejected_before_running(self):
        with pytest.raises(ConfigurationError):
            run_scenario(tiny_spec(techniques=("Nope",)))

    def test_warm_rerun_hits_result_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.sim.result_cache import get_result_cache

        spec = tiny_spec(techniques=("GDP",), collect_components=False,
                         instructions_per_core=4_000, interval_instructions=2_000)
        cold = run_scenario(spec, jobs=1)
        cache = get_result_cache()
        assert cache.stats.stores == 1
        warm = run_scenario(spec, jobs=1)
        assert cache.stats.hits == 1
        assert warm.tables() == cold.tables()
