"""Ablation: the price of self-describing messages (P2).

Publishing with inline type metadata is what lets any receiver decode
and learn unknown types — the mechanism behind every dynamic-evolution
scenario in Section 5.2.  The cost is extra bytes per message.  This
ablation measures that overhead for a realistic Story object and shows
the obvious optimization (senders that know their audience already has
the type can omit the metadata) — and then the session type plane,
which keeps the learn-on-first-sight property while hoisting the
metadata out of every payload into once-per-session typedefs.
"""

from repro.adapters import register_news_types
from repro.bench import Report
from repro.core import InformationBus, TypeTable
from repro.objects import (DataObject, encode_typed, encoded_size,
                           standard_registry)


def sample_story(reg):
    return DataObject(reg, "reuters_story", {
        "headline": "General Motors rises on earnings",
        "body": "Body text with a realistic couple of sentences in it, "
                "the way a newswire flash reads.",
        "category": "equity", "topic": "gmc",
        "industry_groups": ["autos", "semis"],
        "sources": ["Reuters"], "country_codes": ["us", "jp"],
        "ric": "GMC.N", "priority": 2})


def run_ablation():
    reg = standard_registry()
    register_news_types(reg)
    story = sample_story(reg)
    bare = encoded_size(story)
    inline = encoded_size(story, reg, inline_types=True)

    # wall-clock effect on the wire: same story stream both ways
    def throughput(inline_types):
        bus = InformationBus(seed=15)
        bus.add_hosts(3)
        pub = bus.client("node00", "feed", registry=reg)
        count = [0]
        consumer = bus.client("node01", "mon", registry=reg)
        consumer.subscribe("news.>", lambda s, o, i:
                           count.__setitem__(0, count[0] + 1))
        start = bus.sim.now
        for _ in range(200):
            pub.publish("news.equity.gmc", story,
                        inline_types=inline_types)
        bus.settle(10.0)
        return count[0], bus.lan.bytes_transmitted

    with_meta = throughput(True)
    without_meta = throughput(False)
    return {"bare": bare, "inline": inline,
            "with": with_meta, "without": without_meta}


def run_type_plane_ablation():
    """The same story stream over the type plane (the default) and with
    every publish opting for inline metadata, receivers learning from
    scratch in both runs."""
    reg = standard_registry()
    register_news_types(reg)
    story = sample_story(reg)
    inline = encoded_size(story, reg, inline_types=True)
    typed = len(encode_typed(story, reg, TypeTable())[0])

    def wire_bytes(inline_types):
        bus = InformationBus(seed=15)
        bus.add_hosts(3)
        pub = bus.client("node00", "feed", registry=reg)
        count = [0]
        consumer = bus.client("node01", "mon")   # bare registry: learns
        consumer.subscribe("news.>", lambda s, o, i:
                           count.__setitem__(0, count[0] + 1))
        for _ in range(200):
            pub.publish("news.equity.gmc", story,
                        inline_types=inline_types)
        bus.settle(10.0)
        assert count[0] == 200
        assert consumer.registry.has("reuters_story")
        return bus.lan.bytes_transmitted

    return {"inline": inline, "typed": typed,
            "plane_wire": wire_bytes(None), "flat_wire": wire_bytes(True)}


def test_inline_type_metadata_overhead(benchmark):
    results = benchmark.pedantic(run_ablation, rounds=1, iterations=1)

    overhead = results["inline"] - results["bare"]
    report = Report("ablation_inline_types")
    report.table(
        "Inline type metadata (P2) cost for a reuters_story",
        ["encoding", "bytes/message", "wire bytes (200 msgs)"],
        [["payload only", results["bare"], results["without"][1]],
         ["with inline types", results["inline"], results["with"][1]]])
    report.note(f"metadata overhead: {overhead} bytes/message "
                f"({100 * overhead / results['inline']:.0f}% of the "
                f"self-describing encoding)")
    report.emit()

    # both modes deliver everything (the consumer pre-registered types)
    assert results["with"][0] == 200
    assert results["without"][0] == 200
    # the overhead is real but bounded — the story's own data dominates
    assert 0 < overhead < results["bare"] * 4
    assert results["with"][1] > results["without"][1]


def test_type_plane_ablation(benchmark):
    results = benchmark.pedantic(run_type_plane_ablation,
                                 rounds=1, iterations=1)

    reduction = 1.0 - results["typed"] / results["inline"]
    report = Report("ablation_type_plane")
    report.table(
        "Session type plane vs inline metadata for a reuters_story",
        ["encoding", "bytes/message", "wire bytes (200 msgs)"],
        [["inline types every message", results["inline"],
          results["flat_wire"]],
         ["type plane (steady state)", results["typed"],
          results["plane_wire"]]])
    report.note(f"steady-state payload reduction: {reduction:.0%} "
                f"(acceptance floor 40%); both runs teach a blank "
                f"receiver the types")
    report.emit()

    # the tentpole acceptance bar: >= 40% per-message payload saving
    assert reduction >= 0.40
    assert results["plane_wire"] < results["flat_wire"]
