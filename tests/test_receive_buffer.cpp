#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "overlay/packet_cache.h"
#include "send_history_reference.h"
#include "sim/event_loop.h"
#include "transport/receive_buffer.h"
#include "transport/send_history.h"
#include "util/rng.h"

namespace livenet::transport {
namespace {

using media::RtpPacket;
using media::RtpPacketPtr;
using media::Seq;
using media::StreamId;

media::RtpPacketMut pkt(StreamId s, Seq seq,
                        media::FrameType t = media::FrameType::kP) {
  media::RtpBody body;
  body.stream_id = s;
  body.seq = seq;
  body.frame_type = t;
  body.payload_bytes = 1000;
  return RtpPacket::make(std::move(body));
}

struct Harness {
  sim::EventLoop loop;
  std::vector<Seq> delivered;
  std::vector<std::vector<Seq>> nacks;
  int gaps = 0;
  std::unique_ptr<ReceiveBuffer> buf;

  explicit Harness(ReceiveBuffer::Config cfg = {}) {
    buf = std::make_unique<ReceiveBuffer>(
        &loop,
        [this](const RtpPacketPtr& p) { delivered.push_back(p->seq); },
        [this](StreamId) { ++gaps; },
        [this](StreamId, bool, const std::vector<Seq>& m) { nacks.push_back(m); },
        cfg);
  }
};

TEST(ReceiveBuffer, InOrderDeliveryIsImmediate) {
  Harness h;
  for (Seq s = 1; s <= 5; ++s) h.buf->on_packet(pkt(1, s));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2, 3, 4, 5}));
  EXPECT_TRUE(h.nacks.empty());
}

TEST(ReceiveBuffer, ReordersOutOfOrderPackets) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.buf->on_packet(pkt(1, 2));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2, 3}));
}

TEST(ReceiveBuffer, NackAfterScanInterval) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 4));  // 2, 3 missing
  h.loop.run_until(60 * kMs);
  ASSERT_FALSE(h.nacks.empty());
  EXPECT_EQ(h.nacks[0], (std::vector<Seq>{2, 3}));
}

TEST(ReceiveBuffer, RecoveredPacketStopsNacking) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.loop.run_until(60 * kMs);
  ASSERT_EQ(h.nacks.size(), 1u);
  h.buf->on_packet(pkt(1, 2));  // recovery
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2, 3}));
  h.loop.run_until(500 * kMs);
  EXPECT_EQ(h.nacks.size(), 1u);  // no further NACKs
}

TEST(ReceiveBuffer, RenacksUntilBoundThenGivesUp) {
  ReceiveBuffer::Config cfg;
  cfg.nack_interval = 50 * kMs;
  cfg.giveup_after = 10 * kSec;  // bound by retries, not time
  cfg.max_nacks_per_seq = 3;
  Harness h(cfg);
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.loop.run_until(5 * kSec);
  EXPECT_EQ(h.nacks.size(), 3u);
  EXPECT_EQ(h.gaps, 1);
  // After giving up, seq 3 must have been delivered past the hole.
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 3}));
}

TEST(ReceiveBuffer, GiveupByAgeSkipsHole) {
  ReceiveBuffer::Config cfg;
  cfg.giveup_after = 200 * kMs;
  Harness h(cfg);
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 3));
  h.loop.run_until(1 * kSec);
  EXPECT_EQ(h.gaps, 1);
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 3}));
}

TEST(ReceiveBuffer, DuplicatesIgnored) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 2));
  h.buf->on_packet(pkt(1, 1));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 2}));
  EXPECT_EQ(h.buf->duplicates(), 2u);
}

TEST(ReceiveBuffer, StreamsAreIndependent) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(2, 100));  // different stream starts at 100
  h.buf->on_packet(pkt(2, 101));
  h.buf->on_packet(pkt(1, 2));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{1, 100, 101, 2}));
}

TEST(ReceiveBuffer, FirstPacketSyncsExpectedSeq) {
  Harness h;
  h.buf->on_packet(pkt(1, 500));  // joined mid-stream (cache burst)
  h.buf->on_packet(pkt(1, 501));
  EXPECT_EQ(h.delivered, (std::vector<Seq>{500, 501}));
  h.loop.run_until(1 * kSec);
  EXPECT_TRUE(h.nacks.empty());  // no NACK storm for seqs before join
}

TEST(ReceiveBuffer, LossFractionReflectsHoles) {
  Harness h;
  h.buf->on_packet(pkt(1, 1));
  h.buf->on_packet(pkt(1, 2));
  h.buf->on_packet(pkt(1, 4));  // one hole
  const double frac = h.buf->take_loss_fraction();
  EXPECT_NEAR(frac, 0.25, 1e-9);  // 1 hole / (3 received + 1 hole)
  EXPECT_EQ(h.buf->take_loss_fraction(), 0.0);  // counters reset
}

// Torture: the same adversarial arrival order (bounded reordering plus
// sprinkled exact duplicates) is fed to the transport reorder buffer and
// to the overlay packet cache; both must converge to a clean in-order,
// duplicate-free view of the stream.
TEST(TortureReordering, ReceiveBufferAndGopCacheSurviveChaoticFeed) {
  constexpr StreamId kStream = 7;
  constexpr Seq kGopLen = 40;
  constexpr Seq kTotal = 400;

  std::vector<media::RtpPacketMut> wire;
  for (Seq s = 1; s <= kTotal; ++s) {
    const auto t = (s - 1) % kGopLen == 0 ? media::FrameType::kI
                                          : media::FrameType::kP;
    wire.push_back(pkt(kStream, s, t));
  }

  // Bounded shuffle (window 8) keeping the first packet in place, so the
  // receive buffer syncs its expected seq to 1.
  Rng rng(2024);
  for (std::size_t i = 1; i + 1 < wire.size(); ++i) {
    const std::size_t j =
        i + rng.index(std::min<std::size_t>(8, wire.size() - i));
    std::swap(wire[i], wire[j]);
  }
  std::vector<media::RtpPacketMut> feed;
  std::size_t dup_count = 0;
  for (std::size_t i = 0; i < wire.size(); ++i) {
    feed.push_back(wire[i]);
    if (i > 0 && i % 10 == 0) {
      feed.push_back(wire[i - 1 - rng.index(std::min<std::size_t>(i, 8))]);
      ++dup_count;
    }
  }

  Harness h;
  overlay::PacketGopCache cache(2, 4096);
  for (const auto& p : feed) {
    h.buf->on_packet(p);
    cache.add(p);
  }

  // The reorder buffer must emit every packet exactly once, in order.
  ASSERT_EQ(h.delivered.size(), kTotal);
  for (Seq s = 1; s <= kTotal; ++s) EXPECT_EQ(h.delivered[s - 1], s);
  EXPECT_EQ(h.buf->duplicates(), dup_count);
  h.loop.run_until(1 * kSec);
  EXPECT_TRUE(h.nacks.empty());  // every hole was filled during the feed

  // The cache pruned to the newest GoPs; what remains must be a clean
  // seq-sorted, duplicate-free run ending at the newest packet.
  ASSERT_TRUE(cache.has_content(kStream));
  const auto burst = cache.startup_packets(kStream);
  ASSERT_FALSE(burst.empty());
  EXPECT_TRUE(burst.front()->is_keyframe_packet());
  EXPECT_EQ(burst.back()->seq, kTotal);
  for (std::size_t i = 1; i < burst.size(); ++i) {
    EXPECT_LT(burst[i - 1]->seq, burst[i]->seq);
  }
  // Every packet in the burst range is individually findable (the NACK
  // repair path binary-searches by seq).
  for (Seq s = burst.front()->seq; s <= kTotal; ++s) {
    const auto found = cache.find_packet(kStream, s);
    ASSERT_NE(found, nullptr) << "seq " << s;
    EXPECT_EQ(found->seq, s);
  }
  EXPECT_EQ(cache.find_packet(kStream, kTotal + 1), nullptr);
}

TEST(SendHistory, LookupAndExpiry) {
  SendHistory::Config cfg;
  cfg.max_age = 1 * kSec;
  SendHistory hist(cfg);
  auto p = pkt(1, 42);
  p->delay_ext_us = 30 * kMs;
  p->cdn_ingress_time = 7 * kMs;
  p->cdn_hops = 2;
  p->prev_link_seq = 40;
  hist.record(p, 0);
  p->hop_send_time = 1 * kMs;  // stamped by the pacer after the record
  // The answer is a rebuilt trailer, field for field p->fork().
  EXPECT_TRUE(testing::is_fork_of(
      hist.lookup(1, false, 42, 500 * kMs).get(), p));
  EXPECT_EQ(hist.lookup(1, false, 42, 3 * kSec), nullptr);  // expired
}

TEST(SendHistory, ForgetStreamRemovesEntries) {
  SendHistory hist;
  hist.record(pkt(1, 1), 0);
  hist.record(pkt(2, 1), 0);
  hist.forget_stream(1);
  EXPECT_EQ(hist.lookup(1, false, 1, 0), nullptr);
  EXPECT_NE(hist.lookup(2, false, 1, 0), nullptr);
}

TEST(SendHistory, CapacityBounded) {
  SendHistory::Config cfg;
  cfg.max_age = 100 * kSec;
  cfg.max_packets = 100;
  SendHistory hist(cfg);
  for (Seq s = 1; s <= 200; ++s) hist.record(pkt(1, s), static_cast<Time>(s));
  EXPECT_LE(hist.size(), 101u);
  EXPECT_EQ(hist.lookup(1, false, 1, 200), nullptr);    // evicted
  EXPECT_NE(hist.lookup(1, false, 200, 200), nullptr);  // recent kept
}

}  // namespace
}  // namespace livenet::transport
