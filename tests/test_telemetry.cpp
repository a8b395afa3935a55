#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "media/rtp.h"
#include "sim/link.h"
#include "sim/network.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

// Unit tests for the telemetry layer (metrics registry + per-hop
// tracing) and an end-to-end 3-hop trace through a sim Network.
namespace livenet::telemetry {
namespace {

/// Both singletons are process-wide; every test starts them clean.
class TelemetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::instance().reset();
    MetricsRegistry::instance().reset();
  }
};

// --------------------------------------------------------------- Registry

using RegistryTest = TelemetryTest;

TEST_F(RegistryTest, RegistrationIsIdempotentAndStable) {
  Counter* a = MetricsRegistry::instance().counter("t.c1");
  Counter* b = MetricsRegistry::instance().counter("t.c1");
  EXPECT_EQ(a, b);
  a->add(3);
  EXPECT_EQ(b->value(), 3u);

  Gauge* g1 = MetricsRegistry::instance().gauge("t.g1");
  EXPECT_EQ(g1, MetricsRegistry::instance().gauge("t.g1"));
  LatencyStat* l1 =
      MetricsRegistry::instance().latency("t.l1", 0.0, 100.0, 10);
  EXPECT_EQ(l1, MetricsRegistry::instance().latency("t.l1", 0.0, 100.0, 10));
}

TEST_F(RegistryTest, GaugeSetMaxKeepsHighWaterMark) {
  Gauge* g = MetricsRegistry::instance().gauge("t.hwm");
  g->set_max(5.0);
  g->set_max(9.0);
  g->set_max(2.0);
  EXPECT_DOUBLE_EQ(g->value(), 9.0);
}

TEST_F(RegistryTest, LatencyStatObservesIntoHistogram) {
  LatencyStat* l = MetricsRegistry::instance().latency("t.lat", 0.0, 10.0, 10);
  for (int i = 0; i < 100; ++i) l->observe(5.0);
  EXPECT_EQ(l->stats().count(), 100u);
  EXPECT_DOUBLE_EQ(l->stats().mean(), 5.0);
}

// Quantiles interpolate inside fixed-width buckets; with every sample in
// one bucket the raw interpolation leaves the observed range (the
// brain.recompute_ms layout once reported p99 49.5 ms against a max of
// 8.6 ms). Exported quantiles are clamped to [min, max].
TEST_F(RegistryTest, LatencyQuantilesStayInsideObservedRange) {
  LatencyStat* l =
      MetricsRegistry::instance().latency("t.one_bucket", 0.0, 10000.0, 200);
  for (const double v : {2.1, 3.4, 5.0, 8.6}) l->observe(v);
  EXPECT_GT(l->histogram().quantile(0.99), 8.6);  // the raw bucket value
  for (const double q : {0.0, 0.5, 0.9, 0.99, 1.0}) {
    EXPECT_GE(l->quantile(q), 2.1) << q;
    EXPECT_LE(l->quantile(q), 8.6) << q;
  }
  EXPECT_DOUBLE_EQ(l->quantile(0.99), 8.6);

  LatencyStat* high =
      MetricsRegistry::instance().latency("t.high_in_bucket", 0.0, 100.0, 2);
  for (const double v : {45.0, 46.0, 47.0}) high->observe(v);
  EXPECT_DOUBLE_EQ(high->quantile(0.1), 45.0);  // raw reads 5

  std::ostringstream os;
  MetricsRegistry::instance().write_json(os);
  EXPECT_NE(os.str().find("\"t.one_bucket\": {\"count\": 4, \"mean\": 4.775, "
                          "\"p50\": 8.6, \"p90\": 8.6, \"p99\": 8.6, "
                          "\"max\": 8.6}"),
            std::string::npos)
      << os.str();
}

TEST_F(RegistryTest, ResetZeroesValuesButKeepsHandles) {
  Counter* c = MetricsRegistry::instance().counter("t.rst");
  c->add(7);
  MetricsRegistry::instance().reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(MetricsRegistry::instance().counter("t.rst"), c);
}

TEST_F(RegistryTest, JsonExportContainsSectionsAndNames) {
  MetricsRegistry::instance().counter("t.json_counter")->add(4);
  MetricsRegistry::instance().gauge("t.json_gauge")->set(1.5);
  MetricsRegistry::instance().latency("t.json_lat", 0.0, 10.0, 5)
      ->observe(2.0);
  std::ostringstream os;
  MetricsRegistry::instance().write_json(os);
  const std::string j = os.str();
  EXPECT_NE(j.find("\"counters\""), std::string::npos);
  EXPECT_NE(j.find("\"gauges\""), std::string::npos);
  EXPECT_NE(j.find("\"latencies\""), std::string::npos);
  EXPECT_NE(j.find("\"t.json_counter\": 4"), std::string::npos);
  EXPECT_NE(j.find("\"t.json_gauge\": 1.5"), std::string::npos);
  EXPECT_NE(j.find("\"t.json_lat\""), std::string::npos);
}

TEST_F(RegistryTest, PreRegisteredHandlesCoverDataPlane) {
  const Handles& h = handles();
  h.fast_forwards->add();
  h.drops_b->add();
  h.cache_hits->add(2);
  std::ostringstream os;
  MetricsRegistry::instance().write_json(os);
  EXPECT_NE(os.str().find("\"overlay.fast_forwards\": 1"), std::string::npos);
  EXPECT_NE(os.str().find("\"overlay.cache_hits\": 2"), std::string::npos);
}

// ----------------------------------------------------------------- Tracer

using TracerTest = TelemetryTest;

TEST_F(TracerTest, InactiveUntilFirstIdAndAfterReset) {
  EXPECT_FALSE(Tracer::active());
  const std::uint64_t id = Tracer::instance().next_trace_id();
  EXPECT_NE(id, 0u);
  EXPECT_TRUE(Tracer::active());
  Tracer::instance().reset();
  EXPECT_FALSE(Tracer::active());
}

TEST_F(TracerTest, RecordHopIgnoresUntracedPackets) {
  record_hop(0, 10, 1, 1, 0, 1, HopEvent::kForward);
  EXPECT_EQ(Tracer::instance().records_total(), 0u);
  record_hop(1, 10, 1, 1, 0, 1, HopEvent::kForward);
  EXPECT_EQ(Tracer::instance().records_total(), 1u);
}

TEST_F(TracerTest, RingWrapKeepsNewestRecords) {
  Tracer& t = Tracer::instance();
  t.set_capacity(4);
  for (std::uint64_t i = 0; i < 6; ++i) {
    record_hop(1, static_cast<Time>(i), 1, i, 0, 1, HopEvent::kForward);
  }
  EXPECT_EQ(t.records_total(), 6u);
  EXPECT_EQ(t.records_dropped(), 2u);
  const std::vector<HopRecord> snap = t.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  EXPECT_EQ(snap.front().seq, 2u);  // oldest surviving
  EXPECT_EQ(snap.back().seq, 5u);
  t.set_capacity(64 * 1024);  // restore the default for later tests
}

TEST_F(TracerTest, CsvHasHeaderAndSymbolicNames) {
  record_hop(3, 42, 7, 9, 1, 2, HopEvent::kDrop, DropReason::kQueueOverflow);
  std::ostringstream os;
  Tracer::instance().write_csv(os);
  EXPECT_NE(os.str().find("trace_id,t_us,stream,seq,node,peer,event,reason"),
            std::string::npos);
  EXPECT_NE(os.str().find("3,42,7,9,1,2,drop,queue_overflow"),
            std::string::npos);
}

TEST_F(TracerTest, SamplerFractionsAreExactOverWholeBatches) {
  TraceSampler off;
  off.set_fraction(0.0);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(off.sample(), 0u);

  TraceSampler all;
  all.set_fraction(1.0);
  std::uint64_t prev = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t id = all.sample();
    EXPECT_GT(id, prev);  // fresh, monotonically increasing ids
    prev = id;
  }

  TraceSampler quarter;
  quarter.set_fraction(0.25);
  int sampled = 0;
  for (int i = 0; i < 100; ++i) {
    if (quarter.sample() != 0) ++sampled;
  }
  EXPECT_EQ(sampled, 25);  // deterministic error accumulator, no RNG
}

// ------------------------------------------------------- 3-hop trace e2e

/// Forwards every packet to a fixed next hop (sinks when kNoNode).
class Relay final : public sim::SimNode {
 public:
  explicit Relay(sim::Network* net, sim::NodeId next = sim::kNoNode)
      : net_(net), next_(next) {}
  void set_next(sim::NodeId n) { next_ = n; }
  void on_message(sim::NodeId, const sim::MessagePtr& msg) override {
    if (next_ != sim::kNoNode) net_->send(node_id(), next_, msg);
  }

 private:
  sim::Network* net_;
  sim::NodeId next_;
};

sim::LinkConfig quiet_link() {
  sim::LinkConfig lc;
  lc.propagation_delay = 10 * kMs;
  lc.bandwidth_bps = 8e6;
  lc.loss_rate = 0.0;
  lc.jitter_stddev = 0;
  return lc;
}

media::RtpPacketMut traced_packet(std::uint64_t trace_id) {
  media::RtpBody body;
  body.stream_id = 7;
  body.seq = 99;
  body.frame_type = media::FrameType::kP;
  body.frame_id = 33;
  body.gop_id = 1;
  body.payload_bytes = 1200;
  body.trace_id = trace_id;
  return media::RtpPacket::make(std::move(body));
}

struct ChainFixture {
  sim::EventLoop loop;
  sim::Network net{&loop, 1};
  Relay a{&net}, b{&net}, c{&net}, d{&net};
  sim::Link* last_link = nullptr;

  ChainFixture() {
    const sim::NodeId na = net.add_node(&a);
    const sim::NodeId nb = net.add_node(&b);
    const sim::NodeId nc = net.add_node(&c);
    const sim::NodeId nd = net.add_node(&d);
    a.set_next(nb);
    b.set_next(nc);
    c.set_next(nd);
    net.add_link(na, nb, quiet_link());
    net.add_link(nb, nc, quiet_link());
    last_link = net.add_link(nc, nd, quiet_link());
    net.freeze_topology();
  }
};

TEST_F(TracerTest, ThreeHopChainRecordsExactSequence) {
  ChainFixture f;
  const std::uint64_t id = Tracer::instance().next_trace_id();
  f.net.send(f.a.node_id(), f.b.node_id(), traced_packet(id));
  f.loop.run();

  const std::vector<HopRecord> snap = Tracer::instance().snapshot();
  ASSERT_EQ(snap.size(), 6u);  // enqueue + dequeue per hop, 3 hops
  const HopEvent expected_events[] = {
      HopEvent::kLinkEnqueue, HopEvent::kLinkDequeue,
      HopEvent::kLinkEnqueue, HopEvent::kLinkDequeue,
      HopEvent::kLinkEnqueue, HopEvent::kLinkDequeue,
  };
  const std::int32_t expected_nodes[] = {
      f.a.node_id(), f.b.node_id(), f.b.node_id(),
      f.c.node_id(), f.c.node_id(), f.d.node_id(),
  };
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(snap[i].event, expected_events[i]) << "hop " << i;
    EXPECT_EQ(snap[i].node, expected_nodes[i]) << "hop " << i;
    EXPECT_EQ(snap[i].trace_id, id);
    EXPECT_EQ(snap[i].stream, 7u);
    EXPECT_EQ(snap[i].seq, 99u);
    EXPECT_EQ(snap[i].reason, DropReason::kNone);
  }
  // Per-hop latency: each wire adds serialization + 10 ms propagation;
  // timestamps are monotone along the reconstructed path.
  for (std::size_t i = 1; i < 6; ++i) {
    EXPECT_GE(snap[i].t, snap[i - 1].t);
  }
  const Duration per_hop =
      10 * kMs + static_cast<Duration>(traced_packet(1)->wire_size());
  EXPECT_EQ(snap[5].t - snap[0].t, 3 * per_hop);
}

TEST_F(TracerTest, DownedLastHopRecordsDropWithReason) {
  ChainFixture f;
  f.last_link->set_down(true);
  const std::uint64_t id = Tracer::instance().next_trace_id();
  f.net.send(f.a.node_id(), f.b.node_id(), traced_packet(id));
  f.loop.run();

  const std::vector<HopRecord> snap = Tracer::instance().snapshot();
  ASSERT_EQ(snap.size(), 5u);  // 2 delivered hops + the drop
  EXPECT_EQ(snap.back().event, HopEvent::kDrop);
  EXPECT_EQ(snap.back().reason, DropReason::kLinkDown);
  EXPECT_EQ(snap.back().node, f.c.node_id());
  EXPECT_EQ(snap.back().peer, f.d.node_id());
  EXPECT_EQ(handles().link_drops_down->value(), 1u);
}

}  // namespace
}  // namespace livenet::telemetry
