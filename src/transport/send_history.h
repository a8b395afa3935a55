#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>

#include "media/rtp.h"
#include "util/time.h"

// Bounded history of recently sent packets, used by the slow path's
// loss-recovery module to answer NACKs from the downstream node
// (paper §5.1: "The lost packets will then be retransmitted by the loss
// recovery module in the upstream node").
namespace livenet::transport {

/// Per flow (stream + audio flag) a deque of snapshot entries sorted by
/// seq, behind one record-order FIFO that drives expiry; no hash probe
/// and no per-packet heap node (see DESIGN.md "Send history"). An entry
/// keeps the shared body and the sent trailer's fields by value, not
/// the trailer itself, so the per-link trailer returns to its pool once
/// the pacer has sent it.
///
/// A lookup finds a packet iff the latest record of (flow, seq) is at
/// most max_age old, was not dropped by forget_stream, and has not been
/// pushed out by the max_packets bound on records (re-records and
/// forgotten records still count until they leave the FIFO).
class SendHistory {
 public:
  struct Config {
    Duration max_age = 2 * kSec;        ///< drop entries older than this
    std::size_t max_packets = 100000;   ///< hard bound on memory
  };

  SendHistory() : SendHistory(Config()) {}
  explicit SendHistory(const Config& cfg) : cfg_(cfg) {}
  // FIFO records point into the flow storage.
  SendHistory(const SendHistory&) = delete;
  SendHistory& operator=(const SendHistory&) = delete;

  /// Records a sent packet (keyed by stream + flow kind + seq).
  void record(const media::RtpPacketPtr& pkt, Time now);

  /// Looks up a packet for retransmission; nullptr if expired/unknown.
  /// The result is a new trailer rebuilt from the snapshot, field for
  /// field what `sent->fork()` returns, except that hop_send_time is
  /// unstamped (kNever): the pacer stamps it when it sends the copy.
  media::RtpPacketMut lookup(media::StreamId stream, bool audio,
                             media::Seq seq, Time now);

  /// Drops all state for a stream (unsubscribe / stream end).
  void forget_stream(media::StreamId stream);

  std::size_t size() const { return size_; }

 private:
  /// The sent trailer's fields a fork() carries over (prev_link_seq
  /// resets on a fork; hop_send_time is restamped at transmission).
  struct Entry {
    media::Seq seq;
    Time t;  ///< time of the latest record of this seq
    media::BodyRef body;
    Duration delay_ext_us;
    Time cdn_ingress_time;
    bool is_rtx;
    bool fec_recovered;
    std::uint8_t cdn_hops;
  };
  struct Flow {
    media::StreamId id = 0;     ///< stream*2 + audio-flag
    std::deque<Entry> entries;  ///< sorted by seq, one entry per seq
    std::size_t records = 0;    ///< FIFO records naming this flow
  };
  struct Record {
    Flow* flow;
    media::Seq seq;
    Time t;
  };

  static media::StreamId flow_id(media::StreamId stream, bool audio) {
    return stream * 2 + (audio ? 1 : 0);
  }
  static std::deque<Entry>::iterator find_seq(std::deque<Entry>& entries,
                                              media::Seq seq);

  Flow* find_flow(media::StreamId id);
  Flow& flow_for_record(media::StreamId id);
  void prune(Time now);
  void expire_front();

  Config cfg_;
  std::deque<Record> fifo_;  ///< every record, oldest first
  std::deque<Flow> flows_;   ///< stable addresses for Record::flow
  Flow* last_ = nullptr;     ///< last flow resolved
  std::size_t size_ = 0;     ///< live entries over all flows
};

}  // namespace livenet::transport
