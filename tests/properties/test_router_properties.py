"""Property-based tests: router meshes deliver exactly once, loop-free.

For random topologies (2-4 buses, full router mesh), random subscriber
placements, and random publisher placements: every subscriber whose
pattern matches receives each published message exactly once, no matter
how many legs could have forwarded it.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BusConfig, InformationBus
from repro.core.router import Router
from repro.objects import (AttributeSpec, DataObject, TypeDescriptor,
                           standard_registry)
from repro.sim import CostModel, Simulator


@st.composite
def topology(draw):
    n_buses = draw(st.integers(2, 4))
    # subscriber placement: bus index -> True
    subscriber_buses = draw(st.sets(st.integers(0, n_buses - 1),
                                    min_size=1))
    publisher_bus = draw(st.integers(0, n_buses - 1))
    n_messages = draw(st.integers(1, 5))
    return n_buses, sorted(subscriber_buses), publisher_bus, n_messages


@given(topology())
@settings(max_examples=30, deadline=None)
def test_mesh_delivers_exactly_once(topo):
    n_buses, subscriber_buses, publisher_bus, n_messages = topo
    sim = Simulator(seed=7)
    config = BusConfig()
    config.advert_interval = 0.4
    buses = []
    for i in range(n_buses):
        bus = InformationBus(cost=CostModel.ideal(), name=f"bus{i}",
                             sim=sim, config=config)
        bus.add_hosts(2, prefix=f"b{i}h")
        buses.append(bus)
    router = Router()
    for bus in buses:
        router.add_leg(bus)

    reg = standard_registry()
    reg.register(TypeDescriptor(
        "event", attributes=[AttributeSpec("n", "int")]))

    inboxes = {}
    for index in subscriber_buses:
        box = []
        buses[index].client(f"b{index}h00", "mon").subscribe(
            "mesh.>", lambda s, o, i, box=box: box.append(o.get("n")))
        inboxes[index] = box

    sim.run_until(2.0)   # interests propagate across the mesh
    publisher = buses[publisher_bus].client(
        f"b{publisher_bus}h01", "feed", registry=reg)
    for n in range(n_messages):
        publisher.publish("mesh.data", DataObject(reg, "event", n=n))
    sim.run_until(8.0)

    expected = list(range(n_messages))
    for index, box in inboxes.items():
        assert sorted(box) == expected, \
            (f"bus{index} (publisher on bus{publisher_bus}, "
             f"subs {subscriber_buses}): got {box}")
