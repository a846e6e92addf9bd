"""Fuzz harness: generator determinism, corpus runs, failure metadata."""

import dataclasses
import json
import os

import pytest

from repro.errors import ScenarioInvariantError, ScenarioSpecError
from repro.scenario import codec
from repro.scenario.check import INV_BOUND, CheckOptions
from repro.scenario.fuzz import (
    FuzzCase,
    check_reproducers,
    generate_spec,
    load_manifest,
    run_corpus,
    seeds_to_cases,
    write_manifest,
)

#: The committed corpus manifest.
CORPUS_MANIFEST = os.path.join(
    os.path.dirname(__file__), "..", "..", "corpus", "scenarios.json"
)
#: A handful of cheap, known-clean seeds for smoke-level corpus runs.
SMOKE_SEEDS = (1, 2, 3)
#: Planted-violation options (see CheckOptions.bound_scale); differential,
#: coarsening and replay are off so only the packet/bound invariant runs.
PLANTED = CheckOptions(
    differential=False, coarsening=False, replay=False, bound_scale=1e-4
)


class TestGenerator:
    def test_deterministic(self):
        assert generate_spec(42) == generate_spec(42)
        assert codec.spec_hash(generate_spec(42)) == codec.spec_hash(
            generate_spec(42)
        )

    def test_seeds_diverge(self):
        hashes = {codec.spec_hash(generate_spec(s)) for s in range(20)}
        assert len(hashes) == 20

    def test_specs_are_valid_and_serializable(self):
        for seed in range(30):
            spec = generate_spec(seed)
            assert codec.loads(codec.dumps(spec)) == spec

    def test_name_embeds_seed(self):
        assert "17" in generate_spec(17).name


class TestCorpus:
    def test_clean_corpus_passes(self, tmp_path):
        summary = run_corpus(
            seeds_to_cases(SMOKE_SEEDS), out_dir=str(tmp_path)
        )
        assert summary.ok
        assert summary.n_cases == len(SMOKE_SEEDS)
        assert not summary.failures
        summary.raise_first()  # no-op on a clean run

    def test_planted_violation_shrinks_to_reproducer(self, tmp_path):
        summary = run_corpus(
            seeds_to_cases([1]), options=PLANTED, out_dir=str(tmp_path)
        )
        assert not summary.ok
        assert len(summary.failures) == 1
        failure = summary.failures[0]
        assert failure.seed == 1
        assert INV_BOUND in failure.invariants
        # Acceptance bar: the shrunk reproducer has at most 3 connections.
        assert len(failure.shrink.spec.connections) <= 3
        assert os.path.isfile(failure.reproducer_path)

        # The reproducer on disk replays the violation under the same
        # options and passes under production options (the violation was
        # planted by the checker, not by the CAC).
        reports = check_reproducers(str(tmp_path), options=PLANTED)
        assert list(reports) == [failure.reproducer_path]
        assert not next(iter(reports.values())).ok
        clean = check_reproducers(
            str(tmp_path),
            options=CheckOptions(differential=False, replay=False),
        )
        assert all(report.ok for report in clean.values())

    def test_failure_error_carries_metadata(self, tmp_path):
        summary = run_corpus(
            seeds_to_cases([1]), options=PLANTED, out_dir=str(tmp_path)
        )
        with pytest.raises(ScenarioInvariantError) as excinfo:
            summary.raise_first()
        err = excinfo.value
        assert err.seed == 1
        assert err.spec_hash == codec.spec_hash(generate_spec(1))
        assert INV_BOUND in err.invariants
        assert err.reproducer_path is not None
        assert os.path.isfile(err.reproducer_path)
        # Everything needed to replay is in the message.
        assert err.reproducer_path in str(err)


class TestManifest:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "scenarios.json")
        written = write_manifest(path, [5, 6, 7])
        loaded = load_manifest(path)
        assert loaded == written
        assert [c.seed for c in loaded] == [5, 6, 7]
        assert all(c.expected_hash for c in loaded)

    def test_hash_drift_is_detected(self, tmp_path):
        path = str(tmp_path / "scenarios.json")
        write_manifest(path, [5])
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        payload["cases"][0]["hash"] = "0" * 64
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)
        summary = run_corpus(load_manifest(path), out_dir=str(tmp_path))
        assert not summary.ok
        with pytest.raises(ScenarioInvariantError, match="drift"):
            summary.raise_first()

    def test_committed_hashes_match_the_generator(self):
        # The CI corpus check runs only a prefix of the seeds; this covers
        # every committed case.
        cases = load_manifest(CORPUS_MANIFEST)
        assert len(cases) == 500
        drifted = [
            case.seed
            for case in cases
            if codec.spec_hash(generate_spec(case.seed)) != case.expected_hash
        ]
        assert drifted == []

    def test_bad_manifest_rejected(self, tmp_path):
        path = str(tmp_path / "bad.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"format": 2}, fh)
        with pytest.raises(ScenarioSpecError, match="manifest"):
            load_manifest(path)


class TestParallelDriving:
    def test_jobs_gt_one_matches_serial(self, tmp_path):
        cases = seeds_to_cases(SMOKE_SEEDS)
        serial = run_corpus(cases, out_dir=str(tmp_path))
        fanned = run_corpus(cases, jobs=2, out_dir=str(tmp_path))
        assert [o.spec_hash for o in serial.outcomes] == [
            o.spec_hash for o in fanned.outcomes
        ]
        assert [o.report.ok for o in serial.outcomes] == [
            o.report.ok for o in fanned.outcomes
        ]


class TestCaseShape:
    def test_seeds_to_cases(self):
        cases = seeds_to_cases([3, 1])
        assert cases == [FuzzCase(seed=3), FuzzCase(seed=1)]
        assert all(c.expected_hash is None for c in cases)

    def test_cases_are_frozen(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            FuzzCase(seed=1).seed = 2  # type: ignore[misc]
