// Differential test of transport::SendHistory against the original
// hash-map history (send_history_reference.h): seeded random operation
// sequences are replayed on both, and every lookup and size() must
// agree. The sequences cover out-of-order and repeated seqs, re-records
// at a later (or the same) time, forget_stream followed by re-records of
// the same stream, lookups exactly at the max_age edge, now < max_age,
// sparse seqs, flows coming and going, and small max_packets bounds.
// A found packet must be field for field the recorded trailer's fork()
// (is_fork_of); every record carries distinct trailer fields, so a
// stale snapshot shows up in the comparison.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

#include "send_history_reference.h"
#include "transport/send_history.h"
#include "util/rng.h"

namespace livenet::transport {
namespace {

using media::RtpPacket;
using media::RtpPacketPtr;
using media::Seq;
using media::StreamId;
using testing::ReferenceSendHistory;

/// The n-th recorded packet: its trailer fields are functions of n, and
/// it carries the link annotations a fork must drop or restamp. Its
/// trailer seq (the history key) differs from the producer seq, as
/// after the client-facing seq rewrite at the edge.
RtpPacketPtr pkt(StreamId s, bool audio, Seq seq, std::uint64_t n) {
  media::RtpBody body;
  body.stream_id = s;
  body.seq = seq + 1000000;
  body.frame_type = audio ? media::FrameType::kAudio : media::FrameType::kP;
  body.payload_bytes = 1000;
  media::RtpPacketMut p = RtpPacket::make(std::move(body));
  p->seq = seq;
  p->delay_ext_us = static_cast<Duration>(7 * n + 3);
  p->is_rtx = n % 3 == 0;
  p->fec_recovered = n % 5 == 0;
  p->cdn_hops = static_cast<std::uint8_t>(n % 251);
  p->cdn_ingress_time = static_cast<Time>(11 * n);
  p->prev_link_seq = seq + 1;                   // a fork resets it
  p->hop_send_time = static_cast<Time>(13 * n);  // the pacer's stamp
  return p;
}

/// Both histories side by side; every call is checked for agreement.
class Pair {
 public:
  explicit Pair(const SendHistory::Config& cfg) : sut_(cfg), ref_(cfg) {}

  void record(StreamId s, bool audio, Seq seq, Time now) {
    const auto p = pkt(s, audio, seq, records_++);
    sut_.record(p, now);
    ref_.record(p, now);
    check_size("record");
  }

  /// Returns whether the packet was found.
  bool lookup(StreamId s, bool audio, Seq seq, Time now) {
    const auto got = sut_.lookup(s, audio, seq, now);
    const auto want = ref_.lookup(s, audio, seq, now);
    if (want == nullptr) {
      EXPECT_EQ(got, nullptr) << "lookup stream " << s << " audio " << audio
                              << " seq " << seq << " at " << now << " (op "
                              << ops_ << ")";
    } else {
      EXPECT_TRUE(testing::is_fork_of(got.get(), want))
          << "lookup stream " << s << " audio " << audio << " seq " << seq
          << " at " << now << " (op " << ops_ << ")";
    }
    check_size("lookup");
    return want != nullptr;
  }

  void forget(StreamId s) {
    sut_.forget_stream(s);
    ref_.forget_stream(s);
    check_size("forget_stream");
  }

  std::size_t size() const { return ref_.size(); }

 private:
  void check_size(const char* op) {
    ++ops_;
    ASSERT_EQ(sut_.size(), ref_.size()) << "after " << op << " (op " << ops_
                                        << ")";
  }

  SendHistory sut_;
  ReferenceSendHistory ref_;
  std::uint64_t ops_ = 0;
  std::uint64_t records_ = 1;
};

struct Profile {
  std::string name;
  Duration max_age;
  std::size_t max_packets;
  Duration max_step;     ///< time advance per op drawn from [0, max_step]
  int streams;           ///< concurrently active streams
  double p_out_of_order;
  double p_repeat;       ///< re-record a recent seq at the current time
  double p_skip;         ///< leave a gap in the seq space (SVC filtering)
  double p_forget;
  int ops;
};

struct FlowState {
  Seq next = 1;
  std::vector<std::pair<Seq, Time>> recent;  ///< last records, for probes
};

void replay(const Profile& prof, std::uint64_t seed) {
  SCOPED_TRACE(prof.name + " seed " + std::to_string(seed));
  SendHistory::Config cfg;
  cfg.max_age = prof.max_age;
  cfg.max_packets = prof.max_packets;
  Pair h(cfg);
  Rng rng(seed);

  std::vector<StreamId> ids;
  for (int i = 0; i < prof.streams; ++i) ids.push_back(100 + i);
  StreamId next_id = 100 + prof.streams;
  std::vector<FlowState> flows(2 * prof.streams);  // [i*2 + audio]
  Time now = 0;
  std::uint64_t hits = 0, edge_probes = 0;

  auto note = [](FlowState& f, Seq seq, Time t) {
    f.recent.emplace_back(seq, t);
    if (f.recent.size() > 64) f.recent.erase(f.recent.begin());
  };

  for (int op = 0; op < prof.ops && !::testing::Test::HasFatalFailure();
       ++op) {
    now += rng.uniform_int(0, prof.max_step);
    const int i = static_cast<int>(rng.index(ids.size()));
    const bool audio = rng.chance(0.2);
    FlowState& f = flows[i * 2 + (audio ? 1 : 0)];
    const double r = rng.uniform();

    if (r < 0.55) {
      // Record: mostly in order, sometimes out of order, repeated or
      // after a gap.
      Seq seq;
      if (rng.chance(prof.p_out_of_order) && f.next > 2) {
        seq = f.next - 1 - static_cast<Seq>(rng.uniform_int(
                               1, std::min<std::int64_t>(30, f.next - 2)));
      } else if (rng.chance(prof.p_repeat) && !f.recent.empty()) {
        seq = f.recent[rng.index(f.recent.size())].first;
      } else {
        if (rng.chance(prof.p_skip)) f.next += rng.uniform_int(1, 40);
        seq = f.next++;
      }
      h.record(ids[i], audio, seq, now);
      note(f, seq, now);
    } else if (r < 0.90) {
      // Lookup near the live range: recorded, never recorded, future.
      Seq seq;
      if (!f.recent.empty() && rng.chance(0.7)) {
        seq = f.recent[rng.index(f.recent.size())].first;
      } else {
        seq = static_cast<Seq>(rng.uniform_int(
            0, static_cast<std::int64_t>(f.next) + 3));
      }
      hits += h.lookup(ids[i], audio, seq, now) ? 1 : 0;
    } else if (r < 0.95) {
      // Jump to the max_age edge of a recent record (never back in
      // time) and probe it at the edge and one tick past it.
      if (f.recent.empty()) continue;
      const auto [seq, t] = f.recent[rng.index(f.recent.size())];
      if (t + prof.max_age < now) continue;
      now = t + prof.max_age;
      h.lookup(ids[i], audio, seq, now);
      ++now;
      h.lookup(ids[i], audio, seq, now);
      ++edge_probes;
    } else if (r < 0.95 + prof.p_forget) {
      // Forget, then often re-record the same stream right away (at the
      // same time) with seqs it had before.
      h.forget(ids[i]);
      if (rng.chance(0.7) && !f.recent.empty()) {
        const Seq seq = f.recent.back().first;
        h.record(ids[i], audio, seq, now);
        note(f, seq, now);
      }
    } else if (rng.chance(0.3)) {
      // The stream ends; a new one takes its slot.
      h.forget(ids[i]);
      ids[i] = next_id++;
      flows[i * 2] = FlowState{};
      flows[i * 2 + 1] = FlowState{};
    }
  }

  // Final sweep over every probe key, at the final time.
  for (int i = 0; i < prof.streams; ++i) {
    for (const bool audio : {false, true}) {
      for (const auto& [seq, t] : flows[i * 2 + (audio ? 1 : 0)].recent) {
        h.lookup(ids[i], audio, seq, now);
      }
    }
  }
  // The sequences must actually exercise the interesting states.
  EXPECT_GT(hits, 0u);
  EXPECT_GT(edge_probes, 0u);
}

const std::vector<Profile>& profiles() {
  static const std::vector<Profile> p = {
      // Production shape: 2 s window, a few flows, ~1 ms between ops.
      {"steady", 2 * kSec, 100000, 2 * kMs, 4, 0.015, 0.01, 0.02, 0.002,
       20000},
      // Heavy reordering, repeats and gaps, short window in ticks so
      // now < max_age and exact-edge probes happen often.
      {"churn", 50, 100000, 10, 6, 0.2, 0.1, 0.1, 0.01, 20000},
      // max_packets binds before max_age; stale re-records and
      // forgotten records keep counting against it.
      {"capacity", 10 * kSec, 64, 3, 3, 0.1, 0.15, 0.05, 0.01, 20000},
      {"tiny_capacity", 10 * kSec, 1, 2, 2, 0.2, 0.2, 0.05, 0.02, 5000},
      // Many same-time ops: equal-time re-records let a stale record
      // erase the newer entry in the reference, and must do so here too.
      {"same_time", 20, 16, 1, 3, 0.2, 0.3, 0.0, 0.02, 20000},
  };
  return p;
}

TEST(SendHistoryDifferential, RandomSequencesMatchReference) {
  for (const auto& prof : profiles()) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      replay(prof, seed);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(SendHistoryDifferential, EdgeCasesMatchReference) {
  SendHistory::Config cfg;
  cfg.max_age = 100;
  cfg.max_packets = 4;
  Pair h(cfg);
  // now < max_age: nothing expires yet.
  h.record(1, false, 10, 0);
  EXPECT_TRUE(h.lookup(1, false, 10, 0));
  EXPECT_TRUE(h.lookup(1, false, 10, 99));
  // Exactly at the edge the packet is still there; one tick later not.
  EXPECT_TRUE(h.lookup(1, false, 10, 100));
  EXPECT_FALSE(h.lookup(1, false, 10, 101));
  // A re-record at a later time survives the older record's expiry.
  h.record(1, false, 20, 150);
  h.record(1, false, 20, 200);
  EXPECT_TRUE(h.lookup(1, false, 20, 251));
  EXPECT_FALSE(h.lookup(1, false, 20, 301));
  // Out-of-order seq into the middle, then capacity expiry in record
  // order (not seq order).
  h.record(2, true, 5, 400);
  h.record(2, true, 9, 400);
  h.record(2, true, 7, 401);
  h.record(2, true, 6, 402);
  h.record(2, true, 8, 403);  // pushes out the first record (seq 5)
  EXPECT_FALSE(h.lookup(2, true, 5, 403));
  EXPECT_TRUE(h.lookup(2, true, 7, 403));
  // forget_stream, then a same-time re-record: the forgotten record is
  // still queued with an equal time and erases the new entry when it
  // leaves the FIFO, in both implementations.
  h.forget(2);
  EXPECT_EQ(h.size(), 0u);
  h.record(2, true, 8, 403);
  EXPECT_TRUE(h.lookup(2, true, 8, 403));
  // The forgotten 8@403 leaves the FIFO on the last of these records
  // (size() does not prune): 3 of stream 3 plus the new 8 would be 5.
  for (Seq s = 30; s < 34; ++s) h.record(3, false, s, 404);
  EXPECT_EQ(h.size(), 4u);
  EXPECT_FALSE(h.lookup(2, true, 8, 404));

  // A forgotten flow's records stay queued; until they leave, its
  // storage must not pass to another stream, or the stale 5@0 would
  // erase the new stream's 5@0.
  Pair g(cfg);
  g.record(1, false, 5, 0);
  g.forget(1);
  g.record(2, false, 5, 0);
  for (Seq s = 10; s < 13; ++s) g.record(3, false, s, 1);
  EXPECT_TRUE(g.lookup(2, false, 5, 1));
}

}  // namespace
}  // namespace livenet::transport
