"""Causal explain: chain reconstruction and miss attribution.

The acceptance micro-trace: a run whose cache is too small to hold a
second page, so a known page is evicted and the next request for it is
a forced miss — ``explain page`` must attribute that miss to the
eviction.
"""

import json

import pytest

from repro.cli import main
from repro.faults.spec import ChaosSpec
from repro.obs import EventTracer, Observer, explain_page, explain_page_from_file
from repro.system.config import SimulationConfig
from repro.system.simulator import Simulation
from repro.workload.presets import make_trace


def _event(kind, t, **fields):
    return {"type": kind, "t": t, **fields}


class TestSyntheticChains:
    def test_eviction_explains_miss(self):
        events = [
            _event("publish", 0.0, page=4, version=0, size=100),
            _event("push_accept", 1.0, page=4, proxy=0, refreshed=False),
            _event("evict", 50.0, page=4, proxy=0, size=100, cause="capacity"),
            _event("request", 60.0, page=4, proxy=0),
            _event("miss", 60.0, page=4, proxy=0, latency=0.4),
        ]
        explanation = explain_page(events, 4)
        assert [step.type for step in explanation.steps] == [
            "publish", "push_accept", "evict", "request", "miss",
        ]
        (verdict,) = explanation.verdicts
        assert verdict.outcome == "miss"
        assert "evicted" in verdict.cause
        assert "capacity" in verdict.cause
        assert verdict.evidence["type"] == "evict"
        rendered = explanation.render()
        assert "because the cached copy was evicted" in rendered

    def test_lost_notification_explains_miss(self):
        events = [
            _event("push_accept", 1.0, page=7, proxy=2, refreshed=False),
            _event("evict", 2.0, page=7, proxy=2, size=10, cause="capacity"),
            _event(
                "delivery_lost", 5.0, page=7, proxy=2, reason="retries-exhausted"
            ),
            _event("miss", 9.0, page=7, proxy=2, latency=0.2),
        ]
        explanation = explain_page(events, 7)
        (verdict,) = explanation.verdicts
        # The lost notification is more recent than the eviction but the
        # eviction emptied the slot after the last store: eviction wins
        # as the direct cause of "nothing cached".
        assert "evicted" in verdict.cause

    def test_stale_attributed_to_lost_notification(self):
        events = [
            _event("push_accept", 1.0, page=3, proxy=1, refreshed=False),
            _event("delivery_lost", 5.0, page=3, proxy=1, reason="push-path"),
            _event("stale", 9.0, page=3, proxy=1, latency=0.3),
        ]
        explanation = explain_page(events, 3)
        (verdict,) = explanation.verdicts
        assert verdict.outcome == "stale"
        assert "permanently lost" in verdict.cause
        assert verdict.evidence["type"] == "delivery_lost"

    def test_never_matched_explains_cold_miss(self):
        events = [
            _event("request", 4.0, page=9, proxy=0),
            _event("miss", 4.0, page=9, proxy=0, latency=0.5),
        ]
        explanation = explain_page(events, 9)
        (verdict,) = explanation.verdicts
        assert "never matched" in verdict.cause

    def test_cold_cache_when_matched_but_not_yet_pushed(self):
        events = [
            _event("match", 1.0, page=9, proxy=0, matches=5),
            _event("miss", 2.0, page=9, proxy=0, latency=0.5),
        ]
        explanation = explain_page(events, 9)
        (verdict,) = explanation.verdicts
        assert "cold cache" in verdict.cause

    def test_rejected_push_explains_miss(self):
        events = [
            _event("match", 1.0, page=5, proxy=3, matches=1),
            _event("push_offer", 1.0, page=5, proxy=3),
            _event("push_reject", 1.0, page=5, proxy=3),
            _event("miss", 8.0, page=5, proxy=3, latency=0.4),
        ]
        explanation = explain_page(events, 5)
        (verdict,) = explanation.verdicts
        assert "declined by the cache policy" in verdict.cause

    def test_hit_attributed_to_push(self):
        events = [
            _event("push_accept", 1.0, page=2, proxy=0, refreshed=False),
            _event("hit", 3.0, page=2, proxy=0, latency=0.01),
        ]
        explanation = explain_page(events, 2)
        (verdict,) = explanation.verdicts
        assert verdict.outcome == "hit"
        assert "pushed" in verdict.cause

    def test_proxy_filter_restricts_chain(self):
        events = [
            _event("publish", 0.0, page=4, version=0, size=10),
            _event("push_accept", 1.0, page=4, proxy=0, refreshed=False),
            _event("push_accept", 1.0, page=4, proxy=1, refreshed=False),
        ]
        explanation = explain_page(events, 4, proxy=1)
        # The proxy-less publish stays; proxy 0's push is filtered.
        assert [(s.type, s.proxy) for s in explanation.steps] == [
            ("publish", None),
            ("push_accept", 1),
        ]

    def test_other_pages_ignored(self):
        events = [
            _event("push_accept", 1.0, page=4, proxy=0, refreshed=False),
            _event("push_accept", 1.0, page=5, proxy=0, refreshed=False),
        ]
        explanation = explain_page(events, 4)
        assert len(explanation.steps) == 1

    def test_as_dict_is_json_serialisable(self):
        events = [
            _event("push_accept", 1.0, page=4, proxy=0, refreshed=False),
            _event("miss", 2.0, page=4, proxy=0, latency=0.1),
        ]
        payload = json.loads(json.dumps(explain_page(events, 4).as_dict()))
        assert payload["page"] == 4
        assert payload["verdicts"][0]["outcome"] == "miss"

    def test_empty_chain_renders_gracefully(self):
        explanation = explain_page([], 42)
        assert "no matching events" in explanation.render()


#: The same cell with no layer, with an armed but empty fault layer,
#: and with peers: identical caches, so identical misses to explain —
#: whichever stages wrote the trace.
VARIANTS = {
    "plain": {},
    "chaos": {"chaos": ChaosSpec()},
    "cooperative": {"neighbor_count": 3},
}


def _miss_causes(events):
    """``{(page, proxy): [cause of each miss, in order]}`` over a trace."""
    pages = {e["page"] for e in events if e["type"] == "miss"}
    causes = {}
    for page in sorted(pages):
        for verdict in explain_page(events, page).verdicts:
            if verdict.outcome == "miss":
                causes.setdefault((page, verdict.proxy), []).append(verdict.cause)
    return causes


class TestForcedMissIntegration:
    """ISSUE 7 acceptance: a real trace with a known forced miss."""

    @pytest.fixture(scope="class")
    def forced_miss_trace(self, tmp_path_factory):
        return self._trace(tmp_path_factory, "plain")

    @staticmethod
    def _trace(tmp_path_factory, variant):
        path = str(tmp_path_factory.mktemp("explain") / "trace.jsonl")
        workload = make_trace("news", scale=0.02, seed=7)
        # A cache small enough that pushed pages keep evicting each
        # other guarantees eviction-caused misses somewhere.
        layers = dict(VARIANTS[variant])
        config = SimulationConfig(
            strategy="sg2", capacity_fraction=0.001, seed=7,
            chaos=layers.pop("chaos", None),
        )
        observer = Observer(tracer=EventTracer(path))
        Simulation(workload, config, observer=observer, **layers).run()
        observer.close()
        return path

    def test_every_variant_explains_the_same_misses(self, tmp_path_factory):
        from repro.obs.tracer import read_jsonl

        plain, chaos, cooperative = (
            _miss_causes(list(read_jsonl(self._trace(tmp_path_factory, variant))))
            for variant in ("plain", "chaos", "cooperative")
        )
        assert any("evicted" in cause for causes in plain.values() for cause in causes)
        assert chaos == plain
        assert cooperative == plain

    def test_eviction_caused_miss_is_explained(self, forced_miss_trace):
        self._assert_eviction_caused_miss_is_explained(forced_miss_trace)

    @pytest.mark.parametrize("variant", ["chaos", "cooperative"])
    def test_eviction_caused_miss_is_explained_whichever_stages_ran(
        self, tmp_path_factory, variant
    ):
        self._assert_eviction_caused_miss_is_explained(
            self._trace(tmp_path_factory, variant)
        )

    @staticmethod
    def _assert_eviction_caused_miss_is_explained(trace_path):
        from repro.obs.tracer import read_jsonl

        events = read_jsonl(trace_path)
        # Find a (page, proxy) with push_accept -> evict -> miss in order.
        stored = {}
        evicted = {}
        target = None
        for event in events:
            key = (event.get("page"), event.get("proxy"))
            kind = event["type"]
            if kind == "push_accept":
                stored[key] = event["t"]
            elif kind == "evict" and key in stored:
                evicted[key] = event["t"]
            elif kind == "miss" and key in evicted:
                target = key
                break
        assert target is not None, "tiny cache produced no evict->miss chain"
        page, proxy = target
        explanation = explain_page(events, page, proxy=proxy)
        causes = [
            verdict.cause
            for verdict in explanation.verdicts
            if verdict.outcome == "miss"
        ]
        assert any("evicted" in cause for cause in causes)

    def test_chain_is_chronological(self, forced_miss_trace):
        from repro.obs.tracer import read_jsonl

        events = read_jsonl(forced_miss_trace)
        pages = [e["page"] for e in events if "page" in e]
        explanation = explain_page(events, pages[0])
        times = [step.t for step in explanation.steps]
        assert times == sorted(times)

    def test_cli_explain_text(self, forced_miss_trace, capsys):
        from repro.obs.tracer import read_jsonl

        page = next(
            e["page"] for e in read_jsonl(forced_miss_trace) if "page" in e
        )
        assert main(["explain", "page", str(page), forced_miss_trace]) == 0
        out = capsys.readouterr().out
        assert f"page {page}" in out

    def test_cli_explain_json(self, forced_miss_trace, capsys):
        from repro.obs.tracer import read_jsonl

        page = next(
            e["page"] for e in read_jsonl(forced_miss_trace) if "page" in e
        )
        assert (
            main(["explain", "page", str(page), forced_miss_trace, "--json"]) == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["page"] == page

    def test_cli_explain_missing_file(self, capsys):
        assert main(["explain", "page", "1", "/no/such/trace.jsonl"]) == 2
        assert "no such trace" in capsys.readouterr().err


def test_explain_page_from_file(tmp_path):
    path = str(tmp_path / "t.jsonl")
    tracer = EventTracer(path)
    tracer.emit("push_accept", t=1.0, page=4, proxy=0, refreshed=False)
    tracer.emit("evict", t=2.0, page=4, proxy=0, size=9, cause="capacity")
    tracer.emit("miss", t=3.0, page=4, proxy=0, latency=0.1)
    tracer.close()
    explanation = explain_page_from_file(path, 4)
    assert explanation.verdicts[0].evidence["type"] == "evict"
