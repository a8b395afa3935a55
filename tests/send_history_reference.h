#pragma once

// Reference oracle for transport::SendHistory: the original hash-map
// history (an unordered_map keyed on (flow, seq) plus a record-order
// FIFO whose expiry erases the map entry iff the popped record is the
// key's latest). test_send_history replays seeded operation sequences
// on both and requires identical answers.
//
// The reference hands back the recorded trailer itself; SendHistory
// rebuilds one from a snapshot. is_fork_of() is the equivalence: the
// rebuilt trailer must be what the recorded trailer's fork() returns.

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <unordered_map>
#include <utility>

#include "media/rtp.h"
#include "transport/send_history.h"
#include "util/time.h"

namespace livenet::transport::testing {

class ReferenceSendHistory {
 public:
  explicit ReferenceSendHistory(const SendHistory::Config& cfg) : cfg_(cfg) {}

  void record(const media::RtpPacketPtr& pkt, Time now) {
    prune(now);
    const Key k{flow_id(pkt->stream_id(), pkt->is_audio()), pkt->seq};
    by_key_[k] = {pkt, now};
    fifo_.emplace_back(now, k);
  }

  media::RtpPacketPtr lookup(media::StreamId stream, bool audio,
                             media::Seq seq, Time now) {
    prune(now);
    const auto it = by_key_.find(Key{flow_id(stream, audio), seq});
    if (it == by_key_.end()) return nullptr;
    return it->second.first;
  }

  void forget_stream(media::StreamId stream) {
    for (auto it = by_key_.begin(); it != by_key_.end();) {
      if (it->first.stream / 2 == stream) {
        it = by_key_.erase(it);
      } else {
        ++it;
      }
    }
  }

  std::size_t size() const { return by_key_.size(); }

 private:
  struct Key {
    media::StreamId stream;  ///< stream*2 + audio-flag (flow id)
    media::Seq seq;
    bool operator==(const Key&) const = default;
  };
  struct KeyHasher {
    std::size_t operator()(const Key& k) const {
      return k.stream * 0x9E3779B97F4A7C15ull ^ k.seq;
    }
  };
  static media::StreamId flow_id(media::StreamId stream, bool audio) {
    return stream * 2 + (audio ? 1 : 0);
  }

  void prune(Time now) {
    const Time cutoff = now >= cfg_.max_age ? now - cfg_.max_age : 0;
    while (!fifo_.empty() && (fifo_.front().first < cutoff ||
                              fifo_.size() > cfg_.max_packets)) {
      const auto& [t, k] = fifo_.front();
      const auto it = by_key_.find(k);
      if (it != by_key_.end() && it->second.second == t) by_key_.erase(it);
      fifo_.pop_front();
    }
  }

  SendHistory::Config cfg_;
  std::unordered_map<Key, std::pair<media::RtpPacketPtr, Time>, KeyHasher>
      by_key_;
  std::deque<std::pair<Time, Key>> fifo_;
};

/// Checks that `got`, a SendHistory lookup answer, is field for field
/// `sent->fork()`: the same body object and every trailer field, with
/// prev_link_seq reset to 0. hop_send_time is the one field a fork
/// copies but a snapshot does not keep: the pacer stamps it when it
/// transmits the retransmission, so the rebuilt trailer leaves it
/// unstamped.
inline ::testing::AssertionResult is_fork_of(const media::RtpPacket* got,
                                             const media::RtpPacketPtr& sent) {
  if (got == nullptr) return ::testing::AssertionFailure() << "not found";
  const media::RtpPacketMut want = sent->fork();
  auto fail = [&](const char* field) {
    return ::testing::AssertionFailure()
           << field << " differs from the sent trailer's fork() (seq "
           << want->seq << ")";
  };
  if (&got->body() != &want->body()) return fail("body");
  if (got->seq != want->seq) return fail("seq");
  if (got->delay_ext_us != want->delay_ext_us) return fail("delay_ext_us");
  if (got->is_rtx != want->is_rtx) return fail("is_rtx");
  if (got->fec_recovered != want->fec_recovered) return fail("fec_recovered");
  if (got->cdn_hops != want->cdn_hops) return fail("cdn_hops");
  if (got->prev_link_seq != 0 || want->prev_link_seq != 0) {
    return fail("prev_link_seq");
  }
  if (got->cdn_ingress_time != want->cdn_ingress_time) {
    return fail("cdn_ingress_time");
  }
  if (got->hop_send_time != kNever) return fail("hop_send_time");
  return ::testing::AssertionSuccess();
}

}  // namespace livenet::transport::testing
