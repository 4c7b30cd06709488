// Network model: serialization timing, port contention, loopback, loss,
// node failure, traffic accounting.
#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

namespace rasc::sim {
namespace {

struct Ping final : Message {
  static constexpr char kKind[] = "test.ping";
  const char* kind() const override { return kKind; }
  int tag = 0;
};

class NetworkTest : public ::testing::Test {
 protected:
  // 4 nodes, 1000 kbps each way, 10 ms latency everywhere.
  NetworkTest()
      : net_(sim_, make_uniform_topology(4, 1000.0, msec(10))) {}

  void expect_delivery(NodeIndex node, std::vector<SimTime>* times,
                       std::vector<int>* tags = nullptr) {
    net_.set_handler(node, [this, times, tags](const Packet& p) {
      times->push_back(sim_.now());
      if (tags != nullptr) {
        tags->push_back(static_cast<const Ping&>(*p.payload).tag);
      }
    });
  }

  static MessagePtr ping(int tag = 0) {
    auto m = std::make_shared<Ping>();
    m->tag = tag;
    return m;
  }

  Simulator sim_;
  Network net_;
};

TEST_F(NetworkTest, SerializationTimeMath) {
  // 1048 wire bytes at 1000 kbps = 1048*8000/1000 us.
  EXPECT_EQ(Network::serialization_time(1048, 1000.0), 8384);
  EXPECT_EQ(Network::serialization_time(0, 1000.0), 0);
  // Rounds up.
  EXPECT_EQ(Network::serialization_time(1, 8000.0), 1);
}

TEST_F(NetworkTest, SinglePacketEndToEndTiming) {
  std::vector<SimTime> times;
  expect_delivery(1, &times);
  net_.send(0, 1, 1000, ping());
  sim_.run_all();
  // tx 8384 + latency 10000 + rx 8384.
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 8384 + 10000 + 8384);
}

TEST_F(NetworkTest, OutputPortSerializesBackToBackSends) {
  std::vector<SimTime> times;
  expect_delivery(1, &times);
  net_.send(0, 1, 1000, ping(1));
  net_.send(0, 1, 1000, ping(2));
  sim_.run_all();
  ASSERT_EQ(times.size(), 2u);
  // Second packet departs 8384 later and then also waits for the first
  // to clear the receiver's input port.
  EXPECT_EQ(times[1] - times[0], 8384);
}

TEST_F(NetworkTest, InputPortContendedByTwoSenders) {
  std::vector<SimTime> times;
  expect_delivery(2, &times);
  net_.send(0, 2, 1000, ping(1));
  net_.send(1, 2, 1000, ping(2));
  sim_.run_all();
  ASSERT_EQ(times.size(), 2u);
  // Both arrive at the receiver simultaneously; the input port serializes
  // them 8384 us apart.
  EXPECT_EQ(times[1] - times[0], 8384);
}

TEST_F(NetworkTest, LoopbackIsFastAndFree) {
  std::vector<SimTime> times;
  expect_delivery(0, &times);
  net_.send(0, 0, 100000, ping());
  sim_.run_all();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], Network::kLoopbackDelay);
  EXPECT_EQ(net_.bytes_sent(0), 0);  // loopback consumes no bandwidth
}

TEST_F(NetworkTest, TrafficCountersTrackWireBytes) {
  net_.set_handler(1, [](const Packet&) {});
  net_.send(0, 1, 1000, ping());
  sim_.run_all();
  EXPECT_EQ(net_.bytes_sent(0), 1000 + Network::kFrameOverheadBytes);
  EXPECT_EQ(net_.bytes_received(1), 1000 + Network::kFrameOverheadBytes);
  EXPECT_EQ(net_.bytes_sent(1), 0);
}

TEST_F(NetworkTest, DownNodeDropsTraffic) {
  std::vector<SimTime> times;
  expect_delivery(1, &times);
  net_.fail_node(1);
  net_.send(0, 1, 1000, ping());
  sim_.run_all();
  EXPECT_TRUE(times.empty());
  EXPECT_EQ(net_.packets_dropped(), 1);
  net_.restore_node(1);
  net_.send(0, 1, 1000, ping());
  sim_.run_all();
  EXPECT_EQ(times.size(), 1u);
}

TEST_F(NetworkTest, NoHandlerCountsAsDrop) {
  net_.send(0, 3, 10, ping());
  sim_.run_all();
  EXPECT_EQ(net_.packets_dropped(), 1);
}

TEST_F(NetworkTest, PacketMetadataPreserved) {
  Packet seen;
  net_.set_handler(2, [&seen](const Packet& p) { seen = p; });
  net_.send(1, 2, 512, ping(7));
  sim_.run_all();
  EXPECT_EQ(seen.src, 1);
  EXPECT_EQ(seen.dst, 2);
  EXPECT_EQ(seen.size_bytes, 512);
  EXPECT_EQ(seen.sent_at, 0);
  EXPECT_EQ(static_cast<const Ping&>(*seen.payload).tag, 7);
}

TEST(NetworkLoss, LossRateDropsApproximateFraction) {
  Simulator sim(123);
  auto topo = make_uniform_topology(2, 100000.0, usec(10));
  topo.loss_rate = 0.3;
  Network net(sim, topo);
  int delivered = 0;
  net.set_handler(1, [&delivered](const Packet&) { ++delivered; });
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    net.send(0, 1, 10, std::make_shared<Ping>());
  }
  sim.run_all();
  EXPECT_NEAR(double(delivered) / n, 0.7, 0.05);
}

}  // namespace
}  // namespace rasc::sim

namespace rasc::sim {
namespace {

struct Blob2 final : Message {
  const char* kind() const override { return "test.blob2"; }
};

TEST(NetworkTailDrop, OutQueueDropsBeyondBacklog) {
  Simulator sim;
  auto topo = make_uniform_topology(2, 1000.0, msec(5));
  topo.max_port_backlog = msec(50);
  Network net(sim, topo);
  int delivered = 0;
  net.set_handler(1, [&delivered](const Packet&) { ++delivered; });
  // Each 1000-byte packet serializes in ~8.4 ms; backlog of 50 ms holds
  // ~6 of them. Sending 30 at once must tail-drop most.
  for (int i = 0; i < 30; ++i) {
    net.send(0, 1, 1000, std::make_shared<Blob2>());
  }
  sim.run_all();
  EXPECT_GT(net.out_queue_drops(0), 15);
  EXPECT_LT(delivered, 12);
  EXPECT_EQ(delivered + net.out_queue_drops(0), 30);
}

TEST(NetworkTailDrop, DropHandlerObservesLoss) {
  Simulator sim;
  auto topo = make_uniform_topology(2, 1000.0, msec(5));
  topo.max_port_backlog = msec(20);
  Network net(sim, topo);
  net.set_handler(1, [](const Packet&) {});
  int out_drops_seen = 0;
  net.set_drop_handler(0, [&out_drops_seen](const Packet&, bool outgoing) {
    if (outgoing) ++out_drops_seen;
  });
  for (int i = 0; i < 20; ++i) {
    net.send(0, 1, 1000, std::make_shared<Blob2>());
  }
  sim.run_all();
  EXPECT_EQ(out_drops_seen, net.out_queue_drops(0));
  EXPECT_GT(out_drops_seen, 0);
}

TEST(NetworkTailDrop, InQueueDropsWhenManySendersConverge) {
  Simulator sim;
  // Fast senders, slow receiver input: 10 senders at 10 Mbps out each
  // converge on a 500-kbps input port with a 30 ms backlog budget.
  Topology topo = make_uniform_topology(11, 10000.0, msec(2));
  topo.nodes[10].bw_in_kbps = 500.0;
  topo.max_port_backlog = msec(30);
  Network net(sim, topo);
  int delivered = 0;
  net.set_handler(10, [&delivered](const Packet&) { ++delivered; });
  for (int s = 0; s < 10; ++s) {
    for (int i = 0; i < 5; ++i) {
      net.send(NodeIndex(s), 10, 1000, std::make_shared<Blob2>());
    }
  }
  sim.run_all();
  EXPECT_GT(net.in_queue_drops(10), 0);
  EXPECT_EQ(delivered + net.in_queue_drops(10), 50);
}

TEST(NetworkJitter, LatencyJitterStaysWithinBounds) {
  Simulator sim(5);
  auto topo = make_uniform_topology(2, 100000.0, msec(100));
  topo.latency_jitter = 0.2;
  Network net(sim, topo);
  std::vector<SimTime> arrivals;
  net.set_handler(1, [&arrivals, &sim](const Packet&) {
    arrivals.push_back(sim.now());
  });
  // Well-spaced sends: delivery time = tx + jittered latency + rx.
  for (int i = 0; i < 200; ++i) {
    sim.call_at(msec(10 * i), [&net] {
      net.send(0, 1, 100, std::make_shared<Blob2>());
    });
  }
  sim.run_all();
  ASSERT_EQ(arrivals.size(), 200u);
  const SimDuration fixed = Network::serialization_time(148, 100000.0) * 2;
  SimTime min_lat = INT64_MAX, max_lat = 0;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    const SimTime lat = arrivals[i] - msec(10 * std::int64_t(i)) - fixed;
    min_lat = std::min(min_lat, lat);
    max_lat = std::max(max_lat, lat);
  }
  EXPECT_GE(min_lat, msec(80) - 10);
  EXPECT_LE(max_lat, msec(120) + 10);
  EXPECT_GT(max_lat - min_lat, msec(10));  // jitter is actually happening
}

TEST(NetworkChaos, FailAndRestoreNodeCountAndReset) {
  Simulator sim;
  Network net(sim, make_uniform_topology(3, 1000.0, msec(10)));
  std::vector<SimTime> times;
  net.set_handler(1, [&times, &sim](const Packet&) {
    times.push_back(sim.now());
  });

  net.fail_node(1);
  net.fail_node(1);  // idempotent: second call is a no-op
  EXPECT_FALSE(net.node_up(1));
  EXPECT_EQ(net.node_failures(1), 1);

  net.send(0, 1, 1000, std::make_shared<Ping>());
  sim.run_all();
  EXPECT_TRUE(times.empty());

  net.restore_node(1);
  net.restore_node(1);
  EXPECT_TRUE(net.node_up(1));
  EXPECT_EQ(net.node_restores(1), 1);
  EXPECT_EQ(net.node_failures(2), 0);

  // A restored node serves fresh traffic with clean port queues: base
  // timing, no residual backlog from before the failure.
  const SimTime t = sim.now();
  net.send(0, 1, 1000, std::make_shared<Ping>());
  sim.run_all();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0] - t, 8384 + 10000 + 8384);
}

TEST(NetworkChaos, BandwidthScaleStretchesSerialization) {
  Simulator sim;
  Network net(sim, make_uniform_topology(2, 1000.0, msec(10)));
  std::vector<SimTime> times;
  net.set_handler(1, [&times, &sim](const Packet&) {
    times.push_back(sim.now());
  });
  // Sender at quarter speed: tx takes 4x, rx unchanged.
  net.set_bandwidth_scale(0, 0.25);
  EXPECT_DOUBLE_EQ(net.bandwidth_scale(0), 0.25);
  net.send(0, 1, 1000, std::make_shared<Ping>());
  sim.run_all();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 4 * 8384 + 10000 + 8384);
  // Clearing back to 1.0 restores the exact base timing.
  net.set_bandwidth_scale(0, 1.0);
  times.clear();
  const SimTime t = sim.now();
  net.send(0, 1, 1000, std::make_shared<Ping>());
  sim.run_all();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0] - t, 8384 + 10000 + 8384);
}

TEST(NetworkChaos, ExtraLatencyAddsToBothEndpoints) {
  Simulator sim;
  Network net(sim, make_uniform_topology(2, 1000.0, msec(10)));
  std::vector<SimTime> times;
  net.set_handler(1, [&times, &sim](const Packet&) {
    times.push_back(sim.now());
  });
  net.set_extra_latency(0, msec(30));
  net.set_extra_latency(1, msec(5));
  net.send(0, 1, 1000, std::make_shared<Ping>());
  sim.run_all();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0], 8384 + 10000 + 35000 + 8384);
}

TEST(NetworkChaos, InjectedLossDropsApproximateFraction) {
  Simulator sim(77);
  Network net(sim, make_uniform_topology(2, 100000.0, usec(10)));
  int delivered = 0;
  net.set_handler(1, [&delivered](const Packet&) { ++delivered; });
  net.set_injected_loss(1, 0.4);
  const int n = 2000;
  for (int i = 0; i < n; ++i) {
    net.send(0, 1, 10, std::make_shared<Ping>());
  }
  sim.run_all();
  EXPECT_NEAR(double(delivered) / n, 0.6, 0.05);
  // Clearing the injection restores lossless delivery.
  net.set_injected_loss(1, 0.0);
  delivered = 0;
  for (int i = 0; i < 100; ++i) {
    net.send(0, 1, 10, std::make_shared<Ping>());
  }
  sim.run_all();
  EXPECT_EQ(delivered, 100);
}

TEST(NetworkChaos, InterceptorDelaysAndDuplicates) {
  Simulator sim;
  Network net(sim, make_uniform_topology(2, 1000.0, msec(10)));
  std::vector<SimTime> times;
  net.set_handler(1, [&times, &sim](const Packet&) {
    times.push_back(sim.now());
  });
  int intercepted = 0;
  net.set_send_interceptor(
      [&intercepted](NodeIndex, NodeIndex,
                     const Message*) -> Network::SendPerturbation {
        Network::SendPerturbation p;
        ++intercepted;
        p.duplicates = 1;
        p.extra_delay = msec(50);
        return p;
      });
  net.send(0, 1, 1000, std::make_shared<Ping>());
  sim.run_all();
  // Original delayed 50 ms; one copy sent immediately. The copy must not
  // be re-intercepted (else duplication would cascade forever).
  ASSERT_EQ(times.size(), 2u);
  EXPECT_EQ(intercepted, 1);
  EXPECT_EQ(times[1] - times[0], msec(50));
  // Uninstalling restores plain delivery.
  net.set_send_interceptor(nullptr);
  times.clear();
  const SimTime t = sim.now();
  net.send(0, 1, 1000, std::make_shared<Ping>());
  sim.run_all();
  ASSERT_EQ(times.size(), 1u);
  EXPECT_EQ(times[0] - t, 8384 + 10000 + 8384);
}

TEST(NetworkJitter, ZeroJitterIsExactlyDeterministic) {
  Simulator sim(5);
  const auto topo = make_uniform_topology(2, 100000.0, msec(100));
  Network net(sim, topo);
  std::vector<SimTime> arrivals;
  net.set_handler(1, [&arrivals, &sim](const Packet&) {
    arrivals.push_back(sim.now());
  });
  for (int i = 0; i < 10; ++i) {
    sim.call_at(msec(10 * i), [&net] {
      net.send(0, 1, 100, std::make_shared<Blob2>());
    });
  }
  sim.run_all();
  const SimDuration fixed = Network::serialization_time(148, 100000.0) * 2;
  for (std::size_t i = 0; i < arrivals.size(); ++i) {
    EXPECT_EQ(arrivals[i],
              msec(10 * std::int64_t(i)) + fixed + msec(100));
  }
}

// --- Per-kind dispatch ---------------------------------------------------

struct Pong final : Message {
  static constexpr char kKind[] = "test.pong";
  const char* kind() const override { return kKind; }
};

TEST(NetworkDispatch, KindHandlerPreemptsCatchAllAndCanBeRemoved) {
  Simulator sim;
  Network net(sim, make_uniform_topology(2, 1000.0, msec(1)));
  struct Sink {
    std::vector<int> pings;
  } owner;
  std::vector<int>& pings = owner.pings;
  int caught = 0;
  net.on<Ping>(1, &owner, [](Sink& sink, const Ping& ping, const Packet& p) {
    EXPECT_EQ(p.src, 0);
    sink.pings.push_back(ping.tag);
  });
  net.set_handler(1, [&caught](const Packet&) { ++caught; });
  auto tagged = std::make_shared<Ping>();
  tagged->tag = 7;
  net.send(0, 1, 10, tagged);
  net.send(0, 1, 10, std::make_shared<Pong>());
  sim.run_all();
  EXPECT_EQ(pings, std::vector<int>{7});
  EXPECT_EQ(caught, 1);  // the Pong: no handler of its own

  // Synchronous delivery reports who consumed the packet.
  Packet packet;
  packet.src = 0;
  packet.dst = 1;
  packet.payload = tagged;
  EXPECT_EQ(net.deliver_now(packet), &owner);
  net.remove_handlers(1, &owner);
  EXPECT_EQ(net.deliver_now(packet), nullptr);
  EXPECT_EQ(pings.size(), 2u);
  EXPECT_EQ(caught, 2);
  EXPECT_EQ(net.packets_dropped(), 0);
}

TEST(NetworkDispatch, InterningAKindCreatesNoMetricCells) {
  Simulator sim;
  obs::MetricRegistry registry;
  Network net(sim, make_uniform_topology(2, 1000.0, msec(1)), &registry);
  const std::size_t cells = registry.size();
  int owner = 0;
  net.on<Ping, Pong>(1, &owner, [](int&, const auto&, const Packet&) {});
  EXPECT_EQ(net.kind_id(Ping::kKind), net.kind_id("test.ping"));
  EXPECT_EQ(registry.size(), cells);
  // The first transmission of a kind materializes its byte cells.
  net.send(0, 1, 10, std::make_shared<Ping>());
  sim.run_all();
  EXPECT_EQ(net.received_by_kind(1).at("test.ping"),
            10 + Network::kFrameOverheadBytes);
  EXPECT_EQ(net.sent_by_kind(0).count("test.pong"), 0u);
}

// --- In-flight ownership: the slab releases every payload ----------------

/// Sends a fresh Ping and keeps only a weak reference to it.
std::weak_ptr<const Message> send_tracked(Network& net, NodeIndex src,
                                          NodeIndex dst,
                                          std::int64_t bytes = 1000) {
  auto ping = std::make_shared<Ping>();
  std::weak_ptr<const Message> weak = ping;
  net.send(src, dst, bytes, std::move(ping));
  return weak;
}

void expect_released(const Network& net,
                     const std::vector<std::weak_ptr<const Message>>& sent) {
  EXPECT_EQ(net.packets_in_flight(), 0u);
  for (const auto& weak : sent) EXPECT_TRUE(weak.expired());
}

TEST(NetworkInFlight, DeliveredAndLoopbackReleasePayloads) {
  Simulator sim;
  Network net(sim, make_uniform_topology(2, 1000.0, msec(10)));
  int delivered = 0;
  net.set_handler(1, [&delivered](const Packet&) { ++delivered; });
  std::vector<std::weak_ptr<const Message>> sent;
  sent.push_back(send_tracked(net, 0, 1));
  sent.push_back(send_tracked(net, 1, 1));  // loopback
  EXPECT_EQ(net.packets_in_flight(), 2u);
  sim.run_all();
  EXPECT_EQ(delivered, 2);
  expect_released(net, sent);
}

TEST(NetworkInFlight, TailDropsReleasePayloads) {
  Simulator sim;
  auto topo = make_uniform_topology(11, 1000.0, msec(5));
  topo.max_port_backlog = msec(30);
  Network net(sim, topo);
  net.set_handler(1, [](const Packet&) {});
  net.set_handler(10, [](const Packet&) {});
  std::vector<std::weak_ptr<const Message>> sent;
  // Out port: 20 back-to-back sends overflow node 0's send queue.
  for (int i = 0; i < 20; ++i) sent.push_back(send_tracked(net, 0, 1));
  // In port: nine senders converge on node 10.
  for (NodeIndex s = 2; s < 10; ++s) {
    for (int i = 0; i < 5; ++i) sent.push_back(send_tracked(net, s, 10));
  }
  sim.run_all();
  EXPECT_GT(net.out_queue_drops(0), 0);
  EXPECT_GT(net.in_queue_drops(10), 0);
  expect_released(net, sent);
}

TEST(NetworkInFlight, LinkLossReleasesPayloads) {
  Simulator sim;
  auto topo = make_uniform_topology(2, 1000.0, msec(5));
  topo.loss_rate = 1.0;
  Network net(sim, topo);
  net.set_handler(1, [](const Packet&) { ADD_FAILURE() << "delivered"; });
  std::vector<std::weak_ptr<const Message>> sent;
  for (int i = 0; i < 5; ++i) sent.push_back(send_tracked(net, 0, 1));
  sim.run_all();
  EXPECT_EQ(net.packets_dropped(), 5);
  expect_released(net, sent);
}

TEST(NetworkInFlight, NodeFailureBeforeArrivalOrDeliveryReleasesPayloads) {
  // 1000 bytes at 1000 kbps: departs at 8384 us, arrives at 18384 us,
  // delivered at 26768 us.
  for (const SimTime fail_at : {usec(1000), usec(20000)}) {
    SCOPED_TRACE(fail_at);
    Simulator sim;
    Network net(sim, make_uniform_topology(2, 1000.0, msec(10)));
    net.set_handler(1, [](const Packet&) { ADD_FAILURE() << "delivered"; });
    std::vector<std::weak_ptr<const Message>> sent;
    sent.push_back(send_tracked(net, 0, 1));
    sim.call_at(fail_at, [&net] { net.fail_node(1); });
    sim.run_all();
    EXPECT_EQ(net.packets_dropped(), 1);
    expect_released(net, sent);
  }
}

TEST(NetworkInFlight, InterceptedPacketsReleasePayloads) {
  Simulator sim;
  Network net(sim, make_uniform_topology(2, 1000.0, msec(10)));
  int delivered = 0;
  net.set_handler(1, [&delivered](const Packet&) { ++delivered; });
  int call = 0;
  net.set_send_interceptor(
      [&call](NodeIndex, NodeIndex, const Message*) {
        Network::SendPerturbation p;
        switch (call++) {
          case 0: p.drop = true; break;
          case 1: p.extra_delay = msec(50); break;
          default: p.duplicates = 2; break;
        }
        return p;
      });
  std::vector<std::weak_ptr<const Message>> sent;
  for (int i = 0; i < 3; ++i) sent.push_back(send_tracked(net, 0, 1));
  sim.run_all();
  EXPECT_EQ(delivered, 1 + 3);  // the delayed one, the last one + 2 copies
  EXPECT_EQ(net.packets_dropped(), 1);
  expect_released(net, sent);
}

TEST(NetworkInFlight, SlabDoesNotGrowOverFailRestoreCycles) {
  Simulator sim;
  Network net(sim, make_uniform_topology(4, 1000.0, msec(10)));
  for (NodeIndex n = 0; n < 4; ++n) net.set_handler(n, [](const Packet&) {});
  std::vector<std::weak_ptr<const Message>> sent;
  auto cycle = [&] {
    const SimTime t0 = sim.now();
    for (int i = 0; i < 4; ++i) {
      sent.push_back(send_tracked(net, 0, 1));
      sent.push_back(send_tracked(net, 2, 1));
      sent.push_back(send_tracked(net, 3, 3));
    }
    // Node 1 dies with packets queued, serializing and propagating
    // towards it, then comes back while later ones are still in flight.
    sim.call_at(t0 + usec(12000), [&net] { net.fail_node(1); });
    sim.call_at(t0 + usec(25000), [&net] { net.restore_node(1); });
    sim.run_all();
  };
  cycle();
  const std::size_t slots = net.in_flight_slots();
  EXPECT_GT(slots, 0u);
  for (int i = 1; i < 50; ++i) cycle();
  EXPECT_EQ(net.node_failures(1), 50);
  EXPECT_EQ(net.in_flight_slots(), slots);
  expect_released(net, sent);
}

}  // namespace
}  // namespace rasc::sim
