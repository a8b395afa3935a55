#include "transport/send_history.h"

#include <algorithm>

namespace livenet::transport {

std::deque<SendHistory::Entry>::iterator SendHistory::find_seq(
    std::deque<Entry>& entries, media::Seq seq) {
  if (entries.empty() || seq <= entries.front().seq) return entries.begin();
  if (seq > entries.back().seq) return entries.end();
  // Seqs are distinct and increasing, so the first entry >= seq lies at
  // most seq - front.seq after the front and at most back.seq - seq
  // before the back: a dense flow narrows the search to one slot.
  const std::size_t last = entries.size() - 1;
  const std::size_t lo =
      last - std::min<media::Seq>(last, entries.back().seq - seq);
  const std::size_t hi =
      std::min<media::Seq>(last, seq - entries.front().seq);
  return std::lower_bound(
      entries.begin() + static_cast<std::ptrdiff_t>(lo),
      entries.begin() + static_cast<std::ptrdiff_t>(hi), seq,
      [](const Entry& e, media::Seq s) { return e.seq < s; });
}

SendHistory::Flow* SendHistory::find_flow(media::StreamId id) {
  if (last_ != nullptr && last_->id == id) return last_;
  for (Flow& f : flows_) {
    if (f.id == id) return last_ = &f;
  }
  return nullptr;
}

SendHistory::Flow& SendHistory::flow_for_record(media::StreamId id) {
  if (Flow* f = find_flow(id)) return *f;
  // A flow with no queued record is empty (every live entry's latest
  // record is queued), so it can be relabelled for the new flow.
  const auto idle = std::find_if(flows_.begin(), flows_.end(),
                                 [](const Flow& f) { return f.records == 0; });
  Flow& f = idle != flows_.end() ? *idle : flows_.emplace_back();
  f.id = id;
  return *(last_ = &f);
}

void SendHistory::record(const media::RtpPacketPtr& pkt, Time now) {
  prune(now);
  Flow& f = flow_for_record(flow_id(pkt->stream_id(), pkt->is_audio()));
  const media::Seq seq = pkt->seq;
  Entry e{seq,
          now,
          pkt->body_ref(),
          pkt->delay_ext_us,
          pkt->cdn_ingress_time,
          pkt->is_rtx,
          pkt->fec_recovered,
          pkt->cdn_hops};
  auto& es = f.entries;
  if (es.empty() || es.back().seq < seq) {
    es.push_back(std::move(e));
    ++size_;
  } else if (const auto it = find_seq(es, seq); it->seq == seq) {
    // Re-record: the newer time and snapshot win; the older FIFO record
    // goes stale.
    *it = std::move(e);
  } else {
    es.insert(it, std::move(e));
    ++size_;
  }
  ++f.records;
  fifo_.push_back(Record{&f, seq, now});
}

media::RtpPacketMut SendHistory::lookup(media::StreamId stream, bool audio,
                                        media::Seq seq, Time now) {
  prune(now);
  Flow* f = find_flow(flow_id(stream, audio));
  if (f == nullptr) return nullptr;
  const auto it = find_seq(f->entries, seq);
  if (it == f->entries.end() || it->seq != seq) return nullptr;
  media::RtpPacketMut pkt = sim::make_message<media::RtpPacket>(it->body);
  pkt->seq = it->seq;
  pkt->delay_ext_us = it->delay_ext_us;
  pkt->cdn_ingress_time = it->cdn_ingress_time;
  pkt->is_rtx = it->is_rtx;
  pkt->fec_recovered = it->fec_recovered;
  pkt->cdn_hops = it->cdn_hops;
  return pkt;
}

void SendHistory::forget_stream(media::StreamId stream) {
  // The flow's FIFO records stay queued (they still count against
  // max_packets) and find nothing to erase when they expire.
  for (const bool audio : {false, true}) {
    if (Flow* f = find_flow(flow_id(stream, audio))) {
      size_ -= f->entries.size();
      f->entries.clear();
    }
  }
}

void SendHistory::prune(Time now) {
  // now < max_age: no record can be stale yet, and the subtraction
  // would wrap under an unsigned Time (same guard as RateMeter::evict).
  const Time cutoff = now >= cfg_.max_age ? now - cfg_.max_age : 0;
  while (!fifo_.empty() && (fifo_.front().t < cutoff ||
                            fifo_.size() > cfg_.max_packets)) {
    expire_front();
  }
}

void SendHistory::expire_front() {
  const Record r = fifo_.front();
  fifo_.pop_front();
  auto& es = r.flow->entries;
  // Erase only if this record is the entry's latest (a re-recorded
  // packet leaves a stale record behind). In-order flows expire from
  // their front, which find_seq resolves without a search and
  // pop_front drops without deque::erase's out-of-line shuffle.
  if (const auto it = find_seq(es, r.seq);
      it != es.end() && it->seq == r.seq && it->t == r.t) {
    if (it == es.begin()) {
      es.pop_front();
    } else {
      es.erase(it);
    }
    --size_;
  }
  --r.flow->records;
}

}  // namespace livenet::transport
