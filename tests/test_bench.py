import json
import tracemalloc
from dataclasses import replace
from fractions import Fraction

import pytest

from svsched import (
    BenchReport,
    Circuit,
    DEFAULT_POWER_MODELS,
    PowerModel,
    Strategy,
    emit_report,
    energy,
    gen_qft,
    gen_streaming,
    parse_power_config,
    parse_report,
    run_bench,
)


class TestEnergy:
    def test_reference_fpga_row(self):
        # published 29-qubit squaring run: 909.23 s at 25 W, listed as 22730.74 J
        assert energy(909.23, DEFAULT_POWER_MODELS["fpga"]) == pytest.approx(
            22730.75, abs=0.01
        )
        assert abs(energy(909.23, DEFAULT_POWER_MODELS["fpga"]) - 22730.74) < 0.02

    def test_zero_time(self):
        assert energy(0.0, DEFAULT_POWER_MODELS["gpu"]) == 0.0

    def test_reference_cpu_row_within_source_rounding(self):
        # 10.36 s at 160 W; the published 1656.83 J derives from an unrounded
        # time, so recomputing from 2-decimal seconds lands within 1 J
        assert energy(10.36, DEFAULT_POWER_MODELS["cpu"]) == pytest.approx(1657.6, abs=1e-9)
        assert abs(energy(10.36, DEFAULT_POWER_MODELS["cpu"]) - 1656.83) < 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            energy(-1.0, DEFAULT_POWER_MODELS["cpu"])

    def test_bad_power_rejected(self):
        with pytest.raises(ValueError):
            PowerModel("dud", 0.0)
        with pytest.raises(ValueError):
            PowerModel("dud", float("nan"))
        with pytest.raises(ValueError):
            PowerModel("dud", float("inf"))


class TestPowerConfig:
    def test_parse_and_override(self):
        models = parse_power_config("fpga.power_watts = 20\nrig.power_watts=700 # big\n")
        assert models["fpga"].power_watts == 20.0
        assert models["rig"].power_watts == 700.0

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_power_config("fpga = 25\n")
        with pytest.raises(ValueError):
            parse_power_config("fpga.power_watts = soon\n")
        with pytest.raises(ValueError):
            parse_power_config(".power_watts = 1\n")

    @pytest.mark.parametrize(
        "value, watts",
        [("25", 25.0), ("+2.5", 2.5), ("7.", 7.0), (".5", 0.5), ("2e1", 20.0), ("1.5E-1", 0.15)],
    )
    def test_values_are_ascii_decimal(self, value, watts):
        assert parse_power_config(f"lab.power_watts = {value}\n")["lab"].power_watts == watts

    @pytest.mark.parametrize(
        "value", ["2_5", "\u0662\u0665", "2 5", "inf", "nan", "0x19", "1e", ".", "", "25W"]
    )
    def test_other_values_are_malformed(self, value):
        # float() read 2_5 as 25 and the Arabic-Indic digits as 25 too
        with pytest.raises(ValueError) as info:
            parse_power_config(f"# lab\nlab.power_watts = {value}\n")
        assert str(info.value) == f"line 2: malformed power value {value!r}"


class TestRunBench:
    def test_report_fields_and_energy_identity(self):
        power = DEFAULT_POWER_MODELS["fpga"]
        report = run_bench(gen_qft(6), Strategy.OPTIMIZED, 3, power, circuit_name="qft6")
        assert report.circuit_name == "qft6"
        assert report.num_qubits == 6
        assert report.scheduler == "optimized"
        assert report.repetitions == 3
        assert report.total_time_seconds > 0
        # exact by construction
        assert report.energy_joules == report.total_time_seconds * power.power_watts

    def test_zero_gate_circuit(self):
        report = run_bench(
            Circuit(2), Strategy.BASELINE, 1, DEFAULT_POWER_MODELS["cpu"]
        )
        assert report.iterations_executed == 0

    def test_streaming_iteration_totals(self):
        n = 10
        power = DEFAULT_POWER_MODELS["fpga"]
        opt = run_bench(gen_streaming(n), Strategy.OPTIMIZED, 1, power)
        base = run_bench(gen_streaming(n), Strategy.BASELINE, 1, power)
        assert opt.iterations_executed == (1 << n) - 1
        assert base.iterations_executed == n * (1 << (n - 1))

    def test_iteration_ratio_is_mean_of_halvings(self):
        # optimized/baseline iterations == mean over gates of 2**(-n_c), exactly
        circuit = gen_qft(7)
        power = DEFAULT_POWER_MODELS["fpga"]
        opt = run_bench(circuit, Strategy.OPTIMIZED, 1, power)
        base = run_bench(circuit, Strategy.BASELINE, 1, power)
        ratio = Fraction(opt.iterations_executed, base.iterations_executed)
        expected = sum(
            Fraction(1, 1 << g.num_controls) for g in circuit.gates
        ) / len(circuit.gates)
        assert ratio == expected

    def test_power_scaling_touches_only_energy(self):
        report = run_bench(
            gen_qft(5), Strategy.OPTIMIZED, 2, PowerModel("unit", 1.0)
        )
        scaled = BenchReport(
            **{**report.__dict__, "power_watts": 3.0, "device_name": "x3"}
        )
        assert report.energy_joules == report.total_time_seconds
        # energy is a pure product: scaling power by 3 scales energy by 3
        assert energy(report.total_time_seconds, PowerModel("x3", 3.0)) == pytest.approx(
            3.0 * report.energy_joules, rel=1e-15
        )
        assert scaled.total_time_seconds == report.total_time_seconds

    def test_per_gate_timing(self):
        report = run_bench(
            gen_qft(5),
            Strategy.OPTIMIZED,
            2,
            DEFAULT_POWER_MODELS["fpga"],
            per_gate_timing=True,
        )
        assert report.per_gate_times is not None
        assert len(report.per_gate_times) == 15
        assert all(t >= 0 for t in report.per_gate_times)

    def test_repetitions_hold_one_state_at_a_time(self):
        # a 16 MiB state: two alive at once would peak near 2x the state
        circuit = gen_streaming(20)
        state_bytes = 16 << 20
        tracemalloc.start()
        try:
            run_bench(circuit, Strategy.OPTIMIZED, 3, DEFAULT_POWER_MODELS["cpu"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * state_bytes

    def test_off_plan_count_raises(self, monkeypatch):
        import svsched.bench

        real = svsched.bench.apply_circuit
        monkeypatch.setattr(
            svsched.bench, "apply_circuit", lambda *a, **kw: real(*a, **kw) - 1
        )
        with pytest.raises(RuntimeError, match="off its plan"):
            run_bench(gen_qft(3), Strategy.OPTIMIZED, 1, DEFAULT_POWER_MODELS["cpu"])

    @pytest.mark.parametrize("per_gate_timing", [False, True])
    def test_each_repetition_is_one_apply_circuit_call(self, monkeypatch, per_gate_timing):
        import svsched.bench

        calls = {"apply_circuit": 0, "apply_gate": 0}
        for name in calls:
            real = getattr(svsched.bench, name)

            def counted(*a, _real=real, _name=name, **kw):
                calls[_name] += 1
                return _real(*a, **kw)

            monkeypatch.setattr(svsched.bench, name, counted)
        circuit = gen_streaming(6)
        report = run_bench(
            circuit, Strategy.OPTIMIZED, 3, DEFAULT_POWER_MODELS["cpu"],
            per_gate_timing=per_gate_timing,
        )
        assert calls["apply_circuit"] == 3
        # gates are applied alone only to time them one by one
        assert calls["apply_gate"] == (3 * len(circuit.gates) if per_gate_timing else 0)
        assert report.iterations_executed == (1 << 6) - 1

    def test_reps_validation(self):
        with pytest.raises(ValueError):
            run_bench(gen_qft(3), Strategy.OPTIMIZED, 0, DEFAULT_POWER_MODELS["cpu"])

    @pytest.mark.parametrize("strategy", list(Strategy))
    def test_value_string_reports_as_its_member(self, strategy):
        power = DEFAULT_POWER_MODELS["fpga"]
        by_value, by_member = (
            run_bench(gen_qft(3), s, 2, power, per_gate_timing=True)
            for s in (strategy.value, strategy)
        )
        untimed = {"total_time_seconds": 0.0, "energy_joules": 0.0, "per_gate_times": None}
        assert replace(by_value, **untimed) == replace(by_member, **untimed)
        assert by_value.scheduler == strategy.value
        assert len(by_value.per_gate_times) == len(gen_qft(3).gates)

    def test_unknown_strategy_name_raises_before_any_run(self, monkeypatch):
        import svsched.bench

        def never(*a, **kw):
            raise AssertionError("apply_circuit called")

        monkeypatch.setattr(svsched.bench, "apply_circuit", never)
        with pytest.raises(ValueError, match="fastest"):
            run_bench(gen_qft(3), "fastest", 1, DEFAULT_POWER_MODELS["fpga"])


# Schema v1 as emitted for _pinned_reports, byte for byte.
_PINNED_CSV = """\
schema_version,circuit_name,num_qubits,scheduler,repetitions,total_time_seconds,iterations_executed,device_name,power_watts,energy_joules
1,qft4,4,baseline,1,1.5,48,"odd,device",7.77778,11.6667
1,stream5,5,baseline,2,2,80,cpu,160,320
1,stream5,5,optimized,3,0.000123457,31,fpga,25,0.00308642
"""

_PINNED_JSON = """\
{
  "schema_version": "1",
  "reports": [
    {
      "schema_version": "1",
      "circuit_name": "qft4",
      "num_qubits": 4,
      "scheduler": "baseline",
      "repetitions": 1,
      "total_time_seconds": "1.5",
      "iterations_executed": 48,
      "device_name": "odd,device",
      "power_watts": "7.77778",
      "energy_joules": "11.6667"
    },
    {
      "schema_version": "1",
      "circuit_name": "stream5",
      "num_qubits": 5,
      "scheduler": "baseline",
      "repetitions": 2,
      "total_time_seconds": "2",
      "iterations_executed": 80,
      "device_name": "cpu",
      "power_watts": "160",
      "energy_joules": "320",
      "per_gate_times": []
    },
    {
      "schema_version": "1",
      "circuit_name": "stream5",
      "num_qubits": 5,
      "scheduler": "optimized",
      "repetitions": 3,
      "total_time_seconds": "0.000123457",
      "iterations_executed": 31,
      "device_name": "fpga",
      "power_watts": "25",
      "energy_joules": "0.00308642",
      "per_gate_times": [
        "1.23457e-05",
        "2e-06",
        "0.5"
      ]
    }
  ]
}
"""


def _pinned_reports():
    """Fixed reports: an int power rating, a device name the CSV must quote,
    and per_gate_times absent, empty and present."""
    return [
        BenchReport(
            "stream5", 5, "optimized", 3, 0.000123456789, 31, "fpga", 25, 0.003086419725,
            per_gate_times=[1.23456789e-05, 2e-06, 0.5],
        ),
        BenchReport("qft4", 4, "baseline", 1, 1.5, 48, "odd,device", 7.777777, 11.6666655),
        BenchReport("stream5", 5, "baseline", 2, 2.0, 80, "cpu", 160.0, 320.0, per_gate_times=[]),
    ]


class TestEmitReport:
    def _reports(self):
        power = DEFAULT_POWER_MODELS["fpga"]
        return [
            run_bench(gen_streaming(5), s, 1, power, circuit_name="stream5")
            for s in (Strategy.OPTIMIZED, Strategy.BASELINE)
        ] + [run_bench(gen_qft(4), Strategy.BASELINE, 1, power, circuit_name="qft4")]

    def test_csv_header_and_sorting(self):
        text = emit_report(self._reports(), "csv")
        lines = text.strip().split("\n")
        assert lines[0].startswith("schema_version,circuit_name,")
        names = [line.split(",")[1:4:2] for line in lines[1:]]
        assert names == [["qft4", "baseline"], ["stream5", "baseline"], ["stream5", "optimized"]]

    def test_single_report_roundtrip(self):
        reports = self._reports()[:1]
        text = emit_report(reports, "csv")
        assert len(text.strip().split("\n")) == 2

    def test_csv_json_round_trip_preserves_values(self):
        reports = self._reports()
        csv_back = parse_report(emit_report(reports, "csv"), "csv")
        json_back = parse_report(emit_report(reports, "json"), "json")
        assert csv_back == json_back
        for rep in csv_back:
            assert rep.energy_joules == pytest.approx(
                rep.total_time_seconds * rep.power_watts, rel=1e-5
            )

    def test_six_significant_digits(self):
        report = run_bench(
            gen_qft(4), Strategy.OPTIMIZED, 1, PowerModel("odd", 7.777777)
        )
        text = emit_report([report], "csv")
        row = text.strip().split("\n")[1].split(",")
        assert row[8] == "7.77778"

    def test_schema_v1_header_and_key_order(self):
        header = _PINNED_CSV.split("\n")[0]
        assert emit_report(self._reports(), "csv").split("\n")[0] == header
        report = run_bench(
            gen_qft(3), Strategy.OPTIMIZED, 1, DEFAULT_POWER_MODELS["fpga"], per_gate_timing=True
        )
        (row,) = json.loads(emit_report([report], "json"))["reports"]
        assert list(row) == header.split(",") + ["per_gate_times"]

    def test_schema_v1_bytes(self):
        assert emit_report(_pinned_reports(), "csv") == _PINNED_CSV
        assert emit_report(_pinned_reports(), "json") == _PINNED_JSON
        back = parse_report(_PINNED_JSON, "json")
        assert [r.power_watts for r in back] == [7.77778, 160.0, 25.0]
        assert [r.per_gate_times for r in back] == [None, None, [1.23457e-05, 2e-06, 0.5]]
        assert parse_report(_PINNED_CSV, "csv") == [
            replace(r, per_gate_times=None) for r in back
        ]

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            emit_report([], "csv")

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            emit_report(self._reports()[:1], "xml")
