#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "client/broadcaster.h"
#include "client/viewer.h"
#include "livenet/csv.h"
#include "livenet/defaults.h"
#include "livenet/report.h"
#include "livenet/system.h"
#include "media/fec.h"
#include "media/rtp.h"
#include "overlay/packet_cache.h"
#include "sim/event_loop.h"
#include "telemetry/metrics.h"
#include "transport/receive_buffer.h"
#include "util/pool.h"

// The loss-recovery tier: link-local XOR/parity FEC, the RTT-aware
// re-NACK holdoff, multi-supplier RTX, and the parity hygiene rules
// (parity never cached, never burst to late joiners).
namespace livenet {
namespace {

using media::FecDecoder;
using media::FecGroupEncoder;
using media::RtpBody;
using media::RtpPacket;
using media::RtpPacketMut;
using media::RtpPacketPtr;
using media::Seq;
using media::StreamId;

RtpBody body(StreamId s, Seq seq, std::uint64_t frame_id,
             std::size_t payload = 1100,
             media::FrameType t = media::FrameType::kP) {
  RtpBody b;
  b.stream_id = s;
  b.seq = seq;
  b.frame_id = frame_id;
  b.gop_id = frame_id / 25;
  b.frame_type = t;
  b.payload_bytes = payload;
  b.capture_time = static_cast<Time>(seq) * 10 * kMs;
  b.frag_index = 0;
  b.frag_count = 1;
  return b;
}

RtpPacketMut pkt(StreamId s, Seq seq, std::uint64_t frame_id,
                 std::size_t payload = 1100,
                 media::FrameType t = media::FrameType::kP) {
  return RtpPacket::make(body(s, seq, frame_id, payload, t));
}

// ----------------------------------------------------------- encoder

TEST(FecEncoder, EmitsOneParityPerGroup) {
  FecGroupEncoder enc(4);
  for (Seq q = 10; q < 13; ++q) {
    const auto early = enc.add(body(1, q, 100 + q));
    EXPECT_FALSE(early.has_value());
  }
  auto parity = enc.add(body(1, 13, 113, 1400));
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->fec->group_count, 4u);
  EXPECT_EQ(parity->fec->base_seq, 10u);
  EXPECT_EQ(parity->seq, 10u);
  EXPECT_EQ(parity->payload_bytes, 1400u);  // max over the group
  EXPECT_TRUE(RtpPacket::make(std::move(*parity))->is_fec_parity());

  // The next group starts fresh.
  EXPECT_FALSE(enc.add(body(1, 14, 114)).has_value());
}

TEST(FecEncoder, SeqHoleRestartsGroup) {
  FecGroupEncoder enc(3);
  EXPECT_FALSE(enc.add(body(1, 1, 1)).has_value());
  EXPECT_FALSE(enc.add(body(1, 2, 2)).has_value());
  // Hole (seq 3 never forwarded): parity over 1..3 would lie about its
  // coverage, so the group restarts at 5.
  EXPECT_FALSE(enc.add(body(1, 5, 5)).has_value());
  EXPECT_FALSE(enc.add(body(1, 6, 6)).has_value());
  const auto parity = enc.add(body(1, 7, 7));
  ASSERT_TRUE(parity.has_value());
  EXPECT_EQ(parity->fec->base_seq, 5u);
}

// ----------------------------------------------------------- decoder

/// Runs one full group through the encoder, returning the parity packet.
RtpPacketMut encode_group(FecGroupEncoder& enc, StreamId s, Seq base,
                          std::uint32_t k) {
  RtpPacketMut out;
  for (Seq q = base; q < base + k; ++q) {
    auto parity = enc.add(body(s, q, 1000 + q, 1000 + 7 * (q % 3)));
    if (parity) out = RtpPacket::make(std::move(*parity));
  }
  EXPECT_NE(out, nullptr);
  return out;
}

TEST(FecEncoder, ParitySideObjectReturnsToItsPool) {
  using media::FecParity;
  using media::FecParityPtr;
  using ParityArena =
      util::FreeListArena<util::pool_bucket(sizeof(FecParity))>;
  ASSERT_EQ(FecParityPtr::live_count(), 0);
  const FecParity* side = nullptr;
  {
    // Media bodies own no side object.
    const RtpPacketMut media_pkt = pkt(1, 1, 1);
    EXPECT_FALSE(media_pkt->is_fec_parity());
    EXPECT_EQ(FecParityPtr::live_count(), 0);

    FecGroupEncoder enc(3);
    const RtpPacketMut parity = encode_group(enc, 1, 10, 3);
    ASSERT_TRUE(parity->is_fec_parity());
    EXPECT_EQ(FecParityPtr::live_count(), 1);
    side = &parity->fec();

    // Forks share the body and with it the one side object.
    const RtpPacketMut fork = parity->fork();
    EXPECT_EQ(&fork->fec(), side);
    EXPECT_EQ(FecParityPtr::live_count(), 1);

    // A shard-boundary clone deep-copies the body, side object included.
    const auto clone = sim::msg_cast<const RtpPacket>(parity->clone_message());
    ASSERT_NE(clone, nullptr);
    EXPECT_NE(&clone->fec(), side);
    EXPECT_EQ(clone->fec(), parity->fec());
    EXPECT_EQ(FecParityPtr::live_count(), 2);

    // The decoder copies what it needs; it keeps no side object alive.
    FecDecoder dec;
    dec.on_parity(*parity);
    EXPECT_EQ(FecParityPtr::live_count(), 2);
  }
  EXPECT_EQ(FecParityPtr::live_count(), 0);
  // The side object's block is back on its pool's LIFO freelist: only a
  // few blocks of its size class (the trailers freed after it) lie on
  // top of it.
  std::vector<void*> taken;
  bool reused = false;
  while (!reused && taken.size() < 8) {
    taken.push_back(ParityArena::allocate());
    reused = taken.back() == static_cast<const void*>(side);
  }
  for (void* p : taken) ParityArena::deallocate(p);
  EXPECT_TRUE(reused);
}

TEST(FecDecoder, ReconstructsSingleLossBitExactly) {
  FecGroupEncoder enc(4);
  FecDecoder dec;
  // First parity only activates the decoder (its group pre-dates the
  // media window and is held, then superseded).
  dec.on_parity(*encode_group(enc, 1, 0, 4));
  ASSERT_TRUE(dec.active());

  RtpPacketMut parity = encode_group(enc, 1, 4, 4);
  for (Seq q = 4; q < 8; ++q) {
    if (q == 6) continue;  // the lost packet
    EXPECT_EQ(dec.on_media(*pkt(1, q, 1000 + q, 1000 + 7 * (q % 3))),
              nullptr);
  }
  RtpPacketMut rec = dec.on_parity(*parity);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->seq, 6u);
  EXPECT_EQ(rec->frame_id(), 1006u);
  EXPECT_EQ(rec->payload_bytes(), 1000u + 7 * (6 % 3));
  EXPECT_EQ(rec->frame_type(), media::FrameType::kP);
  EXPECT_TRUE(rec->fec_recovered);
  EXPECT_EQ(rec->hop_send_time, kNever);  // no GCC sample for this hop
  EXPECT_EQ(dec.reconstructed(), 1u);
}

TEST(FecDecoder, TwoLossesHeldUntilRtxRearms) {
  FecGroupEncoder enc(4);
  FecDecoder dec;
  dec.on_parity(*encode_group(enc, 1, 0, 4));

  RtpPacketMut parity = encode_group(enc, 1, 4, 4);
  dec.on_media(*pkt(1, 4, 1004, 1000 + 7 * (4 % 3)));
  dec.on_media(*pkt(1, 7, 1007, 1000 + 7 * (7 % 3)));
  // Seqs 5 and 6 are both missing: beyond a parity code's power.
  EXPECT_EQ(dec.on_parity(*parity), nullptr);
  EXPECT_EQ(dec.reconstructed(), 0u);

  // An RTX refills seq 5; the held group re-arms to one hole and the
  // decoder hands back seq 6.
  RtpPacketMut rtx = pkt(1, 5, 1005, 1000 + 7 * (5 % 3));
  rtx->is_rtx = true;
  RtpPacketMut rec = dec.on_media(*rtx);
  ASSERT_NE(rec, nullptr);
  EXPECT_EQ(rec->seq, 6u);
  EXPECT_EQ(dec.reconstructed(), 1u);
}

TEST(FecDecoder, FullyReceivedGroupIsDroppedSilently) {
  FecGroupEncoder enc(3);
  FecDecoder dec;
  dec.on_parity(*encode_group(enc, 1, 0, 3));
  RtpPacketMut parity = encode_group(enc, 1, 3, 3);
  for (Seq q = 3; q < 6; ++q) {
    dec.on_media(*pkt(1, q, 1000 + q, 1000 + 7 * (q % 3)));
  }
  EXPECT_EQ(dec.on_parity(*parity), nullptr);
  EXPECT_EQ(dec.reconstructed(), 0u);
  EXPECT_EQ(dec.groups_abandoned(), 0u);
}

// ------------------------------------------------- re-NACK holdoff fix

media::RtpPacketMut raw(StreamId s, Seq seq) {
  RtpBody b;
  b.stream_id = s;
  b.seq = seq;
  b.frame_type = media::FrameType::kP;
  b.payload_bytes = 1000;
  return RtpPacket::make(std::move(b));
}

struct BufHarness {
  sim::EventLoop loop;
  std::vector<std::vector<Seq>> nacks;
  std::unique_ptr<transport::ReceiveBuffer> buf;

  explicit BufHarness(transport::ReceiveBuffer::Config cfg = {}) {
    buf = std::make_unique<transport::ReceiveBuffer>(
        &loop, [](const RtpPacketPtr&) {}, [](StreamId) {},
        [this](StreamId, bool, const std::vector<Seq>& m) {
          nacks.push_back(m);
        },
        cfg);
  }
};

TEST(NackHoldoff, NoDuplicateNackInsideUpstreamRtt) {
  // The bug: re-NACKing every scan interval duplicated every RTX on
  // links whose RTT exceeds the 50 ms scan period. With a 200 ms RTT
  // hint the second NACK must wait out rtt + margin, not one interval.
  BufHarness h;
  h.buf->set_rtt_hint(200 * kMs);
  h.buf->on_packet(raw(1, 1));
  h.buf->on_packet(raw(1, 3));  // seq 2 missing
  h.loop.run_until(60 * kMs);
  ASSERT_EQ(h.nacks.size(), 1u);

  // Inside the holdoff window (200 ms RTT + 10 ms margin): silence.
  h.loop.run_until(200 * kMs);
  EXPECT_EQ(h.nacks.size(), 1u);
  // Past it: exactly one re-request.
  h.loop.run_until(320 * kMs);
  EXPECT_EQ(h.nacks.size(), 2u);
}

TEST(NackHoldoff, FecRecoveryCancelsPendingRetry) {
  BufHarness h;
  h.buf->set_rtt_hint(100 * kMs);
  h.buf->on_packet(raw(1, 1));
  h.buf->on_packet(raw(1, 3));
  h.loop.run_until(60 * kMs);
  ASSERT_EQ(h.nacks.size(), 1u);

  // A FEC reconstruction fills the hole before the RTX arrives; the
  // in-flight retry must be cancelled with it.
  RtpPacketMut rec = raw(1, 2);
  rec->fec_recovered = true;
  h.buf->on_packet(rec);
  h.loop.run_until(2 * kSec);
  EXPECT_EQ(h.nacks.size(), 1u);
}

// --------------------------------------------------- parity cache rules

TEST(PacketCache, ParityIsNeverCachedOrBurst) {
  overlay::PacketGopCache cache(4, 4096);
  FecGroupEncoder enc(3);
  for (Seq q = 0; q < 9; ++q) {
    auto p = pkt(7, q, q, 1200,
                 q % 3 == 0 ? media::FrameType::kI : media::FrameType::kP);
    cache.add(p);
    auto parity = enc.add(p->body());
    if (parity) {
      // The slow path hands the cache everything it sees; parity must
      // bounce off (a late joiner's startup burst could otherwise carry
      // mid-group XOR state the client cannot use).
      cache.add(RtpPacket::make(std::move(*parity)));
    }
  }
  EXPECT_EQ(cache.cached_packets(7), 9u);
  for (const auto& p : cache.startup_packets(7)) {
    EXPECT_FALSE(p->is_fec_parity());
  }
  // Parity's seq aliases the group base; the media packet at that seq
  // must still be the one served to NACKs.
  const auto at_base = cache.find_packet(7, 3);
  ASSERT_NE(at_base, nullptr);
  EXPECT_FALSE(at_base->is_fec_parity());
}

// ------------------------------------------------ system-level checks

ScenarioResult run_small(std::uint64_t seed,
                         const std::function<void(SystemConfig&)>& mutate) {
  reset_telemetry();
  SystemConfig sys_cfg = paper_system_config(seed);
  sys_cfg.countries = 2;
  sys_cfg.nodes_per_country = 3;
  mutate(sys_cfg);
  ScenarioConfig scn;
  scn.duration = 30 * kSec;
  scn.day_length = 15 * kSec;
  scn.broadcasts = 2;
  scn.viewer_rate_peak = 1.0;
  scn.mean_view_time = 8 * kSec;
  scn.seed = seed;
  scn.faults.seed = seed + 1;
  scn.faults.link_flaps_per_min = 2.0;
  scn.faults.degrades_per_min = 2.0;
  LiveNetSystem system(sys_cfg);
  ScenarioRunner runner(system, scn);
  return runner.run();
}

std::string all_csv(const ScenarioResult& r) {
  std::ostringstream os;
  write_sessions_csv(r, os);
  write_views_csv(r, os);
  write_path_requests_csv(r, os);
  write_timeline_csv(r, os);
  write_faults_csv(r, os);
  return os.str();
}

TEST(LossRecoveryDifferential, DisabledTierIsByteIdenticalToLegacy) {
  // fec_rate = 0 + single supplier must be THE legacy NACK-only world:
  // same packets, same timing, same CSV bytes. multi_supplier_rtx with
  // fewer than two suppliers routes every NACK straight to the primary,
  // so flipping it without standbys must change nothing either.
  const auto base = run_small(77, [](SystemConfig&) {});
  const std::string base_csv = all_csv(base);

  const auto multi = run_small(77, [](SystemConfig& cfg) {
    cfg.overlay_node.multi_supplier_rtx = true;  // no standby suppliers
  });
  EXPECT_EQ(base_csv, all_csv(multi));
}

TEST(LossRecoveryE2E, FecReconstructsOnLossyOverlayLinks) {
  reset_telemetry();
  SystemConfig cfg = paper_system_config(99);
  cfg.countries = 3;
  cfg.nodes_per_country = 4;
  cfg.dns_candidates = 1;
  cfg.last_resort_nodes = 1;
  cfg.overlay_node.fec_rate = 1.0;
  cfg.overlay_node.fec_group_packets = 5;
  LiveNetSystem sys(cfg);
  client::ClientMetrics qoe;
  client::BroadcasterConfig bc;
  media::VideoSourceConfig vc;
  vc.fps = 25;
  vc.gop_frames = 25;
  vc.bitrate_bps = 1.5e6;
  bc.versions = {vc};
  client::Broadcaster bcast(&sys.network(), 1, bc);
  sys.build_once();
  sys.start();
  const auto producer = sys.attach_client(&bcast, sys.geo().sample_site(0));
  bcast.start(producer, {1});
  sys.loop().run_until(4 * kSec);

  client::Viewer viewer(&sys.network(), &qoe);
  const auto consumer = sys.attach_client(&viewer, sys.geo().sample_site(1));
  viewer.start_view(consumer, 1);
  sys.loop().run_until(8 * kSec);

  // Light random loss on every overlay link: most parity groups lose at
  // most one packet — prime FEC territory.
  const auto ids = sys.overlay_node_ids();
  for (const auto a : ids) {
    for (const auto b : ids) {
      if (auto* l = sys.network().link(a, b)) l->set_loss_rate(0.03);
    }
  }
  sys.loop().run_until(40 * kSec);

  const auto& h = telemetry::handles();
  EXPECT_GT(h.fec_parity_sent->value(), 50u);
  EXPECT_GT(h.fec_recovered->value(), 0u);
  EXPECT_GT(h.recovery_fec_ms->stats().count(), 0u);
  // FEC repairs locally, without an upstream round trip: its recovery
  // latency must beat the NACK/RTX tier's on the same run.
  if (h.recovery_rtx_ms->stats().count() > 10) {
    EXPECT_LT(h.recovery_fec_ms->stats().mean(),
              h.recovery_rtx_ms->stats().mean());
  }
  // Playback survived the loss.
  EXPECT_GT(qoe.records().front().frames_displayed, 300u);

  // A late joiner mid-parity-group gets a clean start: its burst comes
  // from the packet cache, which never holds parity.
  client::ClientMetrics qoe2;
  client::Viewer late(&sys.network(), &qoe2);
  const auto consumer2 = sys.attach_client(&late, sys.geo().sample_site(1));
  late.start_view(consumer2, 1);
  sys.loop().run_until(50 * kSec);
  for (const auto& p : sys.node(consumer2).packet_cache().startup_packets(1)) {
    EXPECT_FALSE(p->is_fec_parity());
  }
  EXPECT_GT(qoe2.records().front().frames_displayed, 100u);
}

TEST(LossRecoveryE2E, CrashAndReRouteSweepsStaleSupplier) {
  // Chaos regression for the supplier set: blackhole the consumer's
  // upstream relay; after the quality loop re-routes, the dead node
  // must not linger in the stream's supplier set (a corpse there would
  // keep attracting racing NACKs forever).
  reset_telemetry();
  SystemConfig cfg = paper_system_config(99);
  cfg.countries = 3;
  cfg.nodes_per_country = 4;
  cfg.dns_candidates = 1;
  cfg.last_resort_nodes = 1;
  cfg.brain.routing_interval = 6 * kSec;
  cfg.overlay_node.report_interval = 2 * kSec;
  cfg.overlay_node.multi_supplier_rtx = true;
  LiveNetSystem sys(cfg);
  client::ClientMetrics qoe;
  client::BroadcasterConfig bc;
  media::VideoSourceConfig vc;
  vc.fps = 25;
  vc.gop_frames = 25;
  vc.bitrate_bps = 1e6;
  bc.versions = {vc};
  client::Broadcaster bcast(&sys.network(), 1, bc);
  sys.build_once();
  sys.start();
  bcast.start(sys.attach_client(&bcast, sys.geo().sample_site(0)), {1});
  sys.loop().run_until(8 * kSec);

  client::Viewer viewer(&sys.network(), &qoe);
  const auto consumer = sys.attach_client(&viewer, sys.geo().sample_site(1));
  viewer.start_view(consumer, 1);
  sys.loop().run_until(16 * kSec);

  const auto* entry = sys.node(consumer).fib().find(1);
  ASSERT_NE(entry, nullptr);
  const auto relay = entry->upstream;
  if (relay == sim::kNoNode) GTEST_SKIP() << "no upstream established";
  // The supplier set tracks the primary.
  const auto* ctx = sys.node(consumer).fib().find_context(1);
  ASSERT_NE(ctx, nullptr);
  ASSERT_FALSE(ctx->suppliers.empty());
  EXPECT_EQ(ctx->suppliers.front(), relay);

  for (const auto peer : sys.overlay_node_ids()) {
    if (peer == relay) continue;
    if (auto* l = sys.network().link(relay, peer)) l->set_loss_rate(1.0);
    if (auto* l = sys.network().link(peer, relay)) l->set_loss_rate(1.0);
  }
  sys.loop().run_until(60 * kSec);

  const auto* after = sys.node(consumer).fib().find(1);
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after->upstream, relay);
  const auto* ctx2 = sys.node(consumer).fib().find_context(1);
  ASSERT_NE(ctx2, nullptr);
  // The new primary leads the supplier set; the dead relay is swept
  // (make-before-break grace is 3 s, long expired by now).
  ASSERT_FALSE(ctx2->suppliers.empty());
  EXPECT_EQ(ctx2->suppliers.front(), after->upstream);
  EXPECT_EQ(std::count(ctx2->suppliers.begin(), ctx2->suppliers.end(), relay),
            0);
}

}  // namespace
}  // namespace livenet
