"""Tests for network/profile/mapping/result persistence."""

from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import Approach, MappingPipeline
from repro.profilers import TrafficProfile
from repro.routing import ForwardingPlane
from repro.routing.bgp import configure_bgp
from repro.serialization import (
    PayloadFormatError,
    decode_checkpoint,
    decode_mail_batch,
    decode_migration,
    decode_replay_buffer,
    encode_checkpoint,
    encode_mail_batch,
    encode_migration,
    encode_replay_buffer,
    load_mapping_assignment,
    load_network,
    load_profile,
    mapping_to_dict,
    network_from_dict,
    network_to_dict,
    result_to_dict,
    save_mapping,
    save_network,
    save_profile,
    save_result,
)


class TestNetworkRoundTrip:
    def test_flat_network(self, flat_net, tmp_path):
        path = tmp_path / "net.json"
        save_network(flat_net, path)
        loaded = load_network(path)
        assert loaded.num_nodes == flat_net.num_nodes
        assert loaded.num_links == flat_net.num_links
        for a, b in zip(flat_net.nodes, loaded.nodes):
            assert (a.node_id, a.kind, a.as_id, a.position) == (
                b.node_id, b.kind, b.as_id, b.position
            )
        for a, b in zip(flat_net.links, loaded.links):
            assert (a.u, a.v, a.bandwidth_bps, a.latency_s, a.queue_bytes) == (
                b.u, b.v, b.bandwidth_bps, b.latency_s, b.queue_bytes
            )

    def test_multi_as_preserves_relationships(self, multi_net, tmp_path):
        path = tmp_path / "multi.json"
        save_network(multi_net, path)
        loaded = load_network(path)
        assert set(loaded.as_domains) == set(multi_net.as_domains)
        for as_id, dom in multi_net.as_domains.items():
            got = loaded.as_domains[as_id]
            assert got.tier == dom.tier
            assert got.providers == dom.providers
            assert got.customers == dom.customers
            assert got.peers == dom.peers
            assert got.border_links == dom.border_links
            assert got.default_routes == dom.default_routes

    def test_loaded_network_routes_identically(self, multi_net, tmp_path):
        path = tmp_path / "multi.json"
        save_network(multi_net, path)
        loaded = load_network(path)
        bgp_a = configure_bgp(multi_net)
        bgp_b = configure_bgp(loaded)
        hosts = multi_net.host_ids()
        fib_a = ForwardingPlane(multi_net, bgp_a)
        fib_b = ForwardingPlane(loaded, bgp_b)
        assert fib_a.node_path(hosts[0], hosts[-1]) == fib_b.node_path(
            hosts[0], hosts[-1]
        )

    def test_version_check(self, flat_net):
        doc = network_to_dict(flat_net)
        doc["format_version"] = 999
        with pytest.raises(ValueError, match="version"):
            network_from_dict(doc)


class TestProfileRoundTrip:
    def test_npz(self, tmp_path):
        profile = TrafficProfile(
            node_events=np.arange(5.0),
            link_bytes=np.array([10.0, 20.0]),
            link_packets=np.array([1.0, 2.0]),
            duration_s=3.5,
        )
        path = tmp_path / "profile.npz"
        save_profile(profile, path)
        loaded = load_profile(path)
        assert np.array_equal(loaded.node_events, profile.node_events)
        assert np.array_equal(loaded.link_bytes, profile.link_bytes)
        assert loaded.duration_s == 3.5


class TestMappingRoundTrip:
    def test_save_load(self, flat_net, tmp_path):
        pipeline = MappingPipeline.for_network(flat_net, num_engines=4)
        mapping = pipeline.run(Approach.HTOP)
        path = tmp_path / "mapping.json"
        save_mapping(mapping, path)
        approach, assignment, engines = load_mapping_assignment(path)
        assert approach is Approach.HTOP
        assert engines == 4
        assert np.array_equal(assignment, mapping.assignment)

    def test_dict_includes_sweep_and_eval(self, flat_net):
        pipeline = MappingPipeline.for_network(flat_net, num_engines=4)
        mapping = pipeline.run(Approach.HTOP)
        doc = mapping_to_dict(mapping)
        assert doc["evaluation"]["efficiency"] == pytest.approx(
            mapping.evaluation.efficiency
        )
        assert len(doc["sweep"]) == len(mapping.sweep)
        json.dumps(doc)  # JSON-serializable

    def test_infinite_mll_serializes(self, flat_net, tmp_path):
        pipeline = MappingPipeline.for_network(flat_net, num_engines=1)
        mapping = pipeline.run(Approach.TOP)
        doc = mapping_to_dict(mapping)
        assert doc["evaluation"]["mll_s"] is None  # inf -> null
        json.dumps(doc)


class TestResultSerialization:
    def test_result_dict(self, tmp_path):
        from repro.experiments import ExperimentScale, run_experiment
        from repro.core import Approach

        scale = ExperimentScale(
            name="io-test",
            flat_routers=60,
            flat_hosts=24,
            num_ases=4,
            routers_per_as=8,
            multi_hosts=16,
            http_clients=10,
            http_servers=4,
            http_mean_gap_s=0.5,
            num_engines=4,
            app_processes=3,
            scalapack_iterations=1,
            duration_s=3.0,
            profile_duration_s=1.5,
        )
        result = run_experiment(
            "single-as", "scalapack", approaches=[Approach.HTOP], scale=scale
        )
        doc = result_to_dict(result)
        assert doc["rows"][0]["approach"] == "HTOP"
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = json.loads(path.read_text())
        assert loaded["network_kind"] == "single-as"
        assert loaded["total_events"] == result.total_events


class TestTruncatedWirePayloads:
    """Every strict prefix of a wire payload is a typed decode error."""

    _events = st.lists(
        st.tuples(
            st.integers(0, 7),
            st.integers(-1, 50),
            st.floats(0.0, 10.0, allow_nan=False),
            st.tuples(st.integers(0, 9), st.integers(0, 7), st.integers(0, 999)),
            st.sampled_from(["deliver", "inject", "hop"]),
            st.tuples(st.integers(0, 2**40), st.binary(max_size=8)),
        ),
        max_size=4,
    )

    @staticmethod
    def _assert_every_prefix_is_typed(blob, decode):
        for cut in range(len(blob)):
            with pytest.raises(PayloadFormatError):
                decode(blob[:cut])

    @settings(max_examples=15, deadline=None)
    @given(items=_events)
    def test_mail_batch(self, items):
        self._assert_every_prefix_is_typed(encode_mail_batch(items), decode_mail_batch)

    @settings(max_examples=15, deadline=None)
    @given(lp=st.integers(1, 7), items=_events, state=st.binary(max_size=16))
    def test_migration(self, lp, items, state):
        blob = encode_migration({"lp": lp, "events": items, "state": state})
        self._assert_every_prefix_is_typed(blob, decode_migration)

    @settings(max_examples=15, deadline=None)
    @given(window=st.integers(0, 500), items=_events, now=st.floats(0.0, 1.0))
    def test_checkpoint(self, window, items, now):
        blob = encode_checkpoint({
            "shard_id": 1,
            "window_index": window,
            "engine": {"now": now, "queues": {1: [item[1:] for item in items]}},
            "acc": {"mail_bytes": 7},
        })
        self._assert_every_prefix_is_typed(blob, decode_checkpoint)

    @settings(max_examples=15, deadline=None)
    @given(
        entries=st.lists(
            st.tuples(
                st.integers(0, 500), st.lists(st.binary(max_size=12), max_size=3)
            ),
            max_size=4,
        )
    )
    def test_replay_buffer(self, entries):
        blob = encode_replay_buffer(entries)
        self._assert_every_prefix_is_typed(blob, decode_replay_buffer)
