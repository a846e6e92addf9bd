"""Scenario codec: strict parsing, repr-exact floats, stable hashing."""

import dataclasses
import glob
import json
import math
import os

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ScenarioSpecError
from repro.faults.injector import FaultConfig, ScriptedFault
from repro.faults.retry import RetryPolicy
from repro.network.connection import ConnectionSpec
from repro.scenario import codec
from repro.scenario.fuzz import generate_spec
from repro.scenario.spec import (
    AnalysisKnobs,
    ArrivalsSpec,
    FaultPlan,
    ScenarioSpec,
)
from repro.traffic.dual_periodic import DualPeriodicTraffic
from repro.traffic.leaky_bucket import LeakyBucketTraffic

#: Floats whose shortest repr exercises every tricky shape (subnormals and
#: NaN excluded: specs validate ranges, and NaN never appears in a spec).
_awkward = st.floats(
    min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False
)


#: The committed hand-written and shrunk spec files (the fuzz manifest
#: covers only generated seeds).
CORPUS = os.path.join(os.path.dirname(__file__), "..", "..", "corpus")
SPEC_FILES = sorted(
    glob.glob(os.path.join(CORPUS, "families", "*.json"))
    + glob.glob(os.path.join(CORPUS, "reproducers", "*.json"))
)


def _simple_spec(**overrides) -> ScenarioSpec:
    base = dict(
        name="t",
        arrivals=ArrivalsSpec(utilization=0.3, n_requests=5, warmup_requests=0),
    )
    base.update(overrides)
    return ScenarioSpec(**base)


def _connection(conn_id: str = "c1") -> ConnectionSpec:
    return ConnectionSpec(
        conn_id=conn_id,
        source_host="host1-1",
        dest_host="host2-1",
        traffic=DualPeriodicTraffic(c1=1e3, p1=0.01, c2=5e2, p2=0.005),
        deadline=0.05,
    )


class TestRoundTrip:
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(st.integers(min_value=0, max_value=10**9))
    def test_generated_specs_round_trip(self, seed):
        spec = generate_spec(seed)
        back = codec.loads(codec.dumps(spec))
        assert back == spec
        assert codec.spec_hash(back) == codec.spec_hash(spec)

    @settings(
        max_examples=60,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(u=_awkward, lifetime=_awkward, scale=_awkward)
    def test_repr_exact_floats(self, u, lifetime, scale):
        spec = _simple_spec(
            arrivals=ArrivalsSpec(
                utilization=u,
                n_requests=5,
                warmup_requests=0,
                mean_lifetime=lifetime,
                load_scale=scale,
            )
        )
        back = codec.loads(codec.dumps(spec))
        # Bit-exact equality, not approximate: JSON floats round-trip via
        # repr (shortest round-trip representation).
        assert back.arrivals.utilization == u
        assert back.arrivals.mean_lifetime == lifetime
        assert back.arrivals.load_scale == scale

    def test_infinity_round_trips(self):
        spec = _simple_spec(
            connections=(
                ConnectionSpec(
                    conn_id="c1",
                    source_host="host1-1",
                    dest_host="host2-1",
                    traffic=LeakyBucketTraffic(
                        sigma=1e4, rho=1e6, peak=math.inf
                    ),
                    deadline=0.05,
                ),
            ),
        )
        back = codec.loads(codec.dumps(spec))
        assert back.connections[0].traffic.peak == math.inf

    def test_fault_plan_round_trips(self):
        spec = _simple_spec(
            faults=FaultPlan(
                config=FaultConfig(link_mtbf=100.0, link_mttr=5.0),
                script=(
                    ScriptedFault(time=1.0, action="fail", target=("s1", "s2")),
                    ScriptedFault(time=2.0, action="repair", target=("s1", "s2")),
                    ScriptedFault(time=3.0, action="fail", target="id1"),
                ),
                retry=RetryPolicy(base_delay=1.0, max_attempts=3),
            ),
        )
        back = codec.loads(codec.dumps(spec))
        assert back == spec
        # Link targets come back as tuples, node targets as strings.
        assert back.faults.script[0].target == ("s1", "s2")
        assert back.faults.script[2].target == "id1"

    def test_file_round_trip(self, tmp_path):
        spec = generate_spec(7)
        path = codec.save_file(spec, str(tmp_path / "spec.json"))
        assert codec.load_file(path) == spec

    @pytest.mark.parametrize("path", SPEC_FILES, ids=os.path.basename)
    def test_committed_spec_files_are_canonical(self, path):
        """Each committed file is byte for byte what the codec writes for
        the spec it holds, so any drift in the encoding shows here."""
        assert len(SPEC_FILES) == 5
        with open(path, encoding="utf-8") as fh:
            assert fh.read() == codec.dumps(codec.load_file(path)) + "\n"


class TestStrictness:
    def test_unknown_top_level_field_rejected(self):
        payload = codec.spec_to_dict(_simple_spec())
        payload["surprise"] = 1
        with pytest.raises(ScenarioSpecError, match="surprise"):
            codec.dict_to_spec(payload)

    def test_unknown_nested_field_rejected(self):
        payload = codec.spec_to_dict(_simple_spec())
        payload["arrivals"]["surprise"] = 1
        with pytest.raises(ScenarioSpecError, match="surprise"):
            codec.dict_to_spec(payload)

    def test_unknown_topology_field_rejected(self):
        payload = codec.spec_to_dict(_simple_spec())
        payload["topology"]["n_ringz"] = 4
        with pytest.raises(ScenarioSpecError, match="n_ringz"):
            codec.dict_to_spec(payload)

    def test_wrong_type_rejected(self):
        payload = codec.spec_to_dict(_simple_spec())
        payload["arrivals"]["n_requests"] = "many"
        with pytest.raises(ScenarioSpecError):
            codec.dict_to_spec(payload)

    def test_bool_not_accepted_as_number(self):
        payload = codec.spec_to_dict(_simple_spec())
        payload["arrivals"]["utilization"] = True
        with pytest.raises(ScenarioSpecError):
            codec.dict_to_spec(payload)

    def test_unknown_format_version_rejected(self):
        payload = codec.spec_to_dict(_simple_spec())
        payload["format"] = 99
        with pytest.raises(ScenarioSpecError, match="format"):
            codec.dict_to_spec(payload)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("deadline", "soon"),
            ("deadline", math.inf),
            ("deadline", math.nan),
            ("deadline", 0.0),
            ("deadline", 10**400),
            ("conn_id", ""),
            ("source_host", 5),
        ],
        ids=[
            "deadline-string",
            "deadline-inf",
            "deadline-nan",
            "deadline-zero",
            "deadline-huge-int",
            "conn-id-empty",
            "source-host-int",
        ],
    )
    def test_connection_errors_name_the_entry(self, field, value):
        """A connection the CAC would refuse is refused at load, and the
        error names the entry and the field."""
        payload = codec.spec_to_dict(_simple_spec(connections=(_connection(),)))
        payload["connections"][0][field] = value
        with pytest.raises(
            ScenarioSpecError, match=rf"scenario\.connections\[0\].*{field}"
        ):
            codec.dict_to_spec(payload)

    def test_null_workload_rejected(self):
        payload = codec.spec_to_dict(_simple_spec())
        payload["arrivals"]["workload"] = None
        with pytest.raises(ScenarioSpecError, match=r"arrivals\.workload"):
            codec.dict_to_spec(payload)

    def test_topo_sections_are_required(self):
        with open(os.path.join(CORPUS, "families", "line-10.json")) as fh:
            payload = json.load(fh)
        del payload["topo"]["devices"]
        with pytest.raises(ScenarioSpecError, match="devices"):
            codec.dict_to_spec(payload)

    @pytest.mark.parametrize(
        "target",
        [["s1", 2], ["s1"], 7, None],
        ids=["int-endpoint", "one-endpoint", "int", "null"],
    )
    def test_fault_target_is_a_node_id_or_a_link_pair(self, target):
        payload = codec.spec_to_dict(
            _simple_spec(
                faults=FaultPlan(
                    script=(ScriptedFault(time=1.0, action="fail", target="id1"),)
                )
            )
        )
        payload["faults"]["script"][0]["target"] = target
        with pytest.raises(ScenarioSpecError, match=r"script\[0\]\.target"):
            codec.dict_to_spec(payload)

    def test_unknown_traffic_type_rejected(self):
        spec = _simple_spec(
            connections=(
                ConnectionSpec(
                    conn_id="c1",
                    source_host="host1-1",
                    dest_host="host2-1",
                    traffic=DualPeriodicTraffic(
                        c1=1e3, p1=0.01, c2=5e2, p2=0.005
                    ),
                    deadline=0.05,
                ),
            ),
        )
        payload = codec.spec_to_dict(spec)
        payload["connections"][0]["traffic"]["type"] = "MysteryTraffic"
        with pytest.raises(ScenarioSpecError):
            codec.dict_to_spec(payload)


class TestHashing:
    def test_hash_is_content_addressed(self):
        a = generate_spec(3)
        b = generate_spec(3)
        assert codec.spec_hash(a) == codec.spec_hash(b)
        assert codec.spec_hash(a) != codec.spec_hash(generate_spec(4))

    def test_hash_stable_under_hand_edited_ints(self):
        """``600`` and ``600.0`` in a float field parse to the same spec
        and therefore the same hash."""
        text = codec.dumps(_simple_spec())
        edited = text.replace('"mean_lifetime": 600.0', '"mean_lifetime": 600')
        assert edited != text
        assert json.loads(edited)["arrivals"]["mean_lifetime"] == 600
        spec_a = codec.loads(text)
        spec_b = codec.loads(edited)
        assert spec_a == spec_b
        assert codec.spec_hash(spec_a) == codec.spec_hash(spec_b)

    def test_hash_ignores_formatting(self):
        spec = generate_spec(5)
        compact = codec.dumps(spec, indent=None)
        pretty = codec.dumps(spec, indent=2)
        assert compact != pretty
        assert codec.spec_hash(codec.loads(compact)) == codec.spec_hash(
            codec.loads(pretty)
        )


class TestValidation:
    def test_spec_needs_some_load(self):
        with pytest.raises(ScenarioSpecError, match="arrivals"):
            ScenarioSpec(name="empty")

    def test_duplicate_conn_ids_rejected(self):
        entry = ConnectionSpec(
            conn_id="dup",
            source_host="host1-1",
            dest_host="host2-1",
            traffic=DualPeriodicTraffic(c1=1e3, p1=0.01, c2=5e2, p2=0.005),
            deadline=0.05,
        )
        with pytest.raises(ScenarioSpecError, match="duplicate"):
            _simple_spec(
                connections=(entry, dataclasses.replace(entry))
            )

    def test_faults_require_arrivals(self):
        plan = FaultPlan(config=FaultConfig(link_mtbf=10.0))
        with pytest.raises(ScenarioSpecError, match="stochastic workload"):
            ScenarioSpec(
                name="t",
                arrivals=None,
                connections=(
                    ConnectionSpec(
                        conn_id="c1",
                        source_host="host1-1",
                        dest_host="host2-1",
                        traffic=DualPeriodicTraffic(
                            c1=1e3, p1=0.01, c2=5e2, p2=0.005
                        ),
                        deadline=0.05,
                    ),
                ),
                faults=plan,
            )

    def test_faults_reject_pinned_connections(self):
        plan = FaultPlan(config=FaultConfig(link_mtbf=10.0))
        with pytest.raises(ScenarioSpecError, match="pinned"):
            _simple_spec(
                connections=(
                    ConnectionSpec(
                        conn_id="c1",
                        source_host="host1-1",
                        dest_host="host2-1",
                        traffic=DualPeriodicTraffic(
                            c1=1e3, p1=0.01, c2=5e2, p2=0.005
                        ),
                        deadline=0.05,
                    ),
                ),
                faults=plan,
            )

    def test_beta_range_validated(self):
        with pytest.raises(ScenarioSpecError, match="beta"):
            AnalysisKnobs(beta=1.5)
