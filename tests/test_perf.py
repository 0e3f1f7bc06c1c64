"""Tests for the performance-trajectory layer (:mod:`repro.perf`).

The BENCH pipeline must round-trip (run -> write -> load -> format ->
compare) and the regression gate must (a) fire on a genuine slowdown and
(b) stay quiet when every kernel — including the calibration kernel —
scales together, which is the signature of slower *hardware* rather than
slower *code*.
"""

from __future__ import annotations

import copy
import json

import pytest

from repro.perf import (
    CALIBRATION_KERNEL,
    SCHEMA_VERSION,
    bench_schema_version,
    compare_benches,
    default_kernels,
    format_trend,
    load_bench_files,
    run_kernels,
    write_bench_file,
)

TINY_JOBS = 200


@pytest.fixture(scope="module")
def payload() -> dict:
    # One real (tiny) measurement shared by the whole module; timing
    # noise is irrelevant because assertions are structural.
    return run_kernels(TINY_JOBS, repeats=1)


class TestRunKernels:
    def test_payload_structure(self, payload):
        assert payload["schema"] == SCHEMA_VERSION == bench_schema_version()
        assert payload["knobs"]["jobs"] == TINY_JOBS
        assert set(payload["knobs"]) >= {"num_servers", "offered_load", "period"}
        for name, entry in payload["kernels"].items():
            assert entry["median_s"] > 0, name

    def test_standard_lineup_present(self, payload):
        names = set(payload["kernels"])
        assert CALIBRATION_KERNEL in names
        assert {"dispatch-event", "dispatch-fast"} <= names

    def test_dispatch_kernels_report_throughput(self, payload):
        for name in ("dispatch-event", "dispatch-fast"):
            entry = payload["kernels"][name]
            assert entry["jobs"] == TINY_JOBS
            assert entry["jobs_per_sec"] == pytest.approx(
                TINY_JOBS / entry["median_s"]
            )

    def test_default_kernel_names_are_unique(self):
        names = [kernel.name for kernel in default_kernels(100)]
        assert len(names) == len(set(names))

    def test_batch_engine_kernels_present(self, payload):
        assert {"dispatch-vector-n10k", "fluid-fixedpoint"} <= set(
            payload["kernels"]
        )

    def test_phase_batch_kernels_follow_the_jobs_knob(self, payload):
        for name in ("dispatch-batch-n10-T0.1", "dispatch-batch-n1000"):
            assert payload["kernels"][name]["jobs"] == TINY_JOBS

    def test_vector_kernel_ignores_the_jobs_knob(self, payload):
        from repro.perf import VECTOR_BENCH_JOBS

        # The n=10k kernel times *sustained* throughput at a pinned job
        # count — a smoke-sized count would time per-call overhead and
        # make BENCH points incomparable across scales.
        entry = payload["kernels"]["dispatch-vector-n10k"]
        assert entry["jobs"] == VECTOR_BENCH_JOBS != TINY_JOBS
        assert entry["jobs_per_sec"] == pytest.approx(
            VECTOR_BENCH_JOBS / entry["median_s"]
        )

    def test_fluid_kernel_reports_no_throughput(self, payload):
        # The fluid solve processes no jobs; a jobs/s figure would be
        # meaningless, so the entry must leave it null.
        entry = payload["kernels"]["fluid-fixedpoint"]
        assert entry["jobs"] is None
        assert entry["jobs_per_sec"] is None


class TestRoundTrip:
    def test_write_load_format(self, payload, tmp_path):
        path = write_bench_file(payload, tmp_path, date="20260101")
        assert path.name == "BENCH_20260101.json"
        benches = load_bench_files(tmp_path)
        assert [p for p, _ in benches] == [path]
        table = format_trend(benches)
        assert "dispatch-fast" in table
        assert payload["commit"] in table

    def test_files_sorted_oldest_first(self, payload, tmp_path):
        write_bench_file(payload, tmp_path, date="20260301")
        write_bench_file(payload, tmp_path, date="20260101")
        benches = load_bench_files(tmp_path)
        assert [p.name for p, _ in benches] == [
            "BENCH_20260101.json",
            "BENCH_20260301.json",
        ]

    def test_newer_schema_rejected(self, payload, tmp_path):
        alien = dict(payload, schema=SCHEMA_VERSION + 1)
        (tmp_path / "BENCH_20260101.json").write_text(json.dumps(alien))
        with pytest.raises(ValueError, match="schema"):
            load_bench_files(tmp_path)

    def test_corrupt_file_rejected_by_name(self, payload, tmp_path):
        bad = tmp_path / "BENCH_20260101.json"
        bad.write_text("{not json")
        with pytest.raises(ValueError, match="BENCH_20260101"):
            load_bench_files(tmp_path)

    def test_empty_directory_formats_gracefully(self, tmp_path):
        assert "no BENCH" in format_trend(load_bench_files(tmp_path))


class TestRegressionGate:
    def _slowed(self, payload: dict, kernel: str, factor: float) -> dict:
        slowed = copy.deepcopy(payload)
        entry = slowed["kernels"][kernel]
        entry["median_s"] *= factor
        if entry.get("jobs_per_sec"):
            entry["jobs_per_sec"] /= factor
        return slowed

    def test_identical_payloads_show_no_regression(self, payload):
        assert compare_benches(payload, payload) == []

    def test_genuine_slowdown_is_flagged(self, payload):
        current = self._slowed(payload, "dispatch-fast", 2.0)
        regressions = compare_benches(current, payload)
        assert [r.kernel for r in regressions] == ["dispatch-fast"]
        assert regressions[0].normalized_ratio == pytest.approx(2.0)
        assert "dispatch-fast" in regressions[0].describe()

    def test_uniform_slowdown_reads_as_hardware_not_code(self, payload):
        # Everything (calibration included) 2x slower: a slower machine,
        # not a regression — the normalized ratios all stay at 1.0.
        current = copy.deepcopy(payload)
        for entry in current["kernels"].values():
            entry["median_s"] *= 2.0
            if entry.get("jobs_per_sec"):
                entry["jobs_per_sec"] /= 2.0
        assert compare_benches(current, payload) == []

    def test_tolerance_is_respected(self, payload):
        current = self._slowed(payload, "dispatch-event", 1.10)
        assert compare_benches(current, payload, tolerance=0.15) == []
        assert compare_benches(current, payload, tolerance=0.05) != []

    def test_kernels_missing_from_either_side_are_skipped(self, payload):
        current = self._slowed(payload, "dispatch-fast", 5.0)
        del current["kernels"]["dispatch-fast"]
        assert compare_benches(current, payload) == []

    def test_mismatched_job_scales_are_not_compared(self, payload):
        # A 5x slowdown must NOT be excused — or flagged — when the two
        # payloads timed dispatch at different job counts.
        current = self._slowed(payload, "dispatch-fast", 5.0)
        current["kernels"]["dispatch-fast"]["jobs"] = TINY_JOBS * 2
        assert compare_benches(current, payload) == []
