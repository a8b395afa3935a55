#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "media/frame.h"
#include "sim/message.h"
#include "util/pool.h"
#include "util/time.h"

// RTP/RTCP packet model.
//
// RtpPacket mirrors the on-wire unit the paper's overlay forwards: an
// RTP packet carrying one fragment of a frame, extended with the delay
// header extension the paper uses to measure streaming delay (§6.1: the
// broadcaster seeds the field; every hop adds its processing time plus
// half the next hop's RTT; the client adds buffering and decode time).
//
// Zero-copy layout (paper §5: nodes forward the *same* packet to many
// subscribers): the packet is split into
//   - RtpBody: everything the producer wrote — stream/frame identity,
//     fragment geometry, payload size, capture timestamp. Immutable
//     after packetization and shared across every hop and subscriber
//     via a non-atomic intrusive refcount.
//   - the per-hop trailer (the RtpPacket object itself): the fields a
//     forwarding hop rewrites — delay extension, hop count, RTX flag,
//     client-facing sequence number, pacer send timestamp. 80 B,
//     pool-allocated, copied per subscriber in lieu of a header
//     rewrite on a real wire packet.
// Parity-only state (group geometry and the XOR aggregate) lives in a
// pooled FecParity side object that only parity bodies own, so a media
// body carries one null pointer for it.
// fork() is the fan-out primitive: a new trailer sharing the same
// body. Copying an RtpPacket never copies its body; RtpBody's copy
// constructor counts invocations so tests can assert the fast path
// performs zero deep copies.
namespace livenet::media {

inline constexpr std::size_t kRtpHeaderBytes = 12 + 8;  // header + delay ext
inline constexpr std::size_t kMtuPayloadBytes = 1200;

using Seq = std::uint64_t;  ///< per-stream RTP sequence number

/// XOR aggregate of the covered bodies' fields, carried by a parity
/// packet. The simulator models packets as metadata, so "payload XOR"
/// becomes a field-wise XOR of the metadata a receiver must be able to
/// reconstruct. The missing packet's seq is NOT part of the aggregate:
/// the decoder derives it from group geometry (base_seq + hole index).
struct FecXor {
  std::uint64_t frame_id = 0;
  std::uint64_t gop_id = 0;
  std::uint64_t payload_bytes = 0;
  std::uint64_t capture_time = 0;
  std::uint64_t trace_id = 0;
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 0;
  std::uint8_t frame_type = 0;
  std::uint8_t referenced = 0;
  // SVC lattice coordinates, XOR-carried like every other body field so
  // a reconstructed enhancement packet still filters correctly.
  std::uint8_t layer_spatial = 0;
  std::uint8_t layer_temporal = 0;
  std::uint8_t spatial_layers = 0;
  std::uint8_t temporal_layers = 0;
  std::uint8_t discardable = 0;

  void accumulate(const struct RtpBody& b);
  /// XOR-merge another aggregate (peeling received packets off a
  /// parity: parity ^ received... leaves the missing packet).
  void merge(const FecXor& o) {
    frame_id ^= o.frame_id;
    gop_id ^= o.gop_id;
    payload_bytes ^= o.payload_bytes;
    capture_time ^= o.capture_time;
    trace_id ^= o.trace_id;
    frag_index ^= o.frag_index;
    frag_count ^= o.frag_count;
    frame_type ^= o.frame_type;
    referenced ^= o.referenced;
    layer_spatial ^= o.layer_spatial;
    layer_temporal ^= o.layer_temporal;
    spatial_layers ^= o.spatial_layers;
    temporal_layers ^= o.temporal_layers;
    discardable ^= o.discardable;
  }
  bool operator==(const FecXor&) const = default;
};

/// Parity-only body state: a parity packet covers group_count media
/// packets starting at base_seq on the link that generated it.
struct FecParity {
  std::uint32_t group_count = 0;
  Seq base_seq = 0;
  /// Group membership bitmap for parity over a layer-filtered link: bit
  /// i set = base_seq + i belongs to the group. 0 = the legacy dense
  /// group [base_seq, base_seq + group_count).
  std::uint64_t seq_bitmap = 0;
  /// XOR aggregate of the covered bodies.
  FecXor aggregate;
  bool operator==(const FecParity&) const = default;
};

/// Sole owner of a pooled FecParity side object; null on every media
/// body, so media packets pay one pointer for the parity state.
class FecParityPtr {
 public:
  FecParityPtr() = default;
  /// Allocates a side object from the pool holding a copy of `p`.
  explicit FecParityPtr(const FecParity& p) : p_(allocate(p)) {}
  /// Deep copy: an independent side object (a deep body copy must not
  /// share it).
  FecParityPtr(const FecParityPtr& o)
      : p_(o.p_ != nullptr ? allocate(*o.p_) : nullptr) {}
  FecParityPtr(FecParityPtr&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  FecParityPtr& operator=(FecParityPtr o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~FecParityPtr() {
    if (p_ == nullptr) return;
    util::pool_delete(p_);
    live_.fetch_sub(1, std::memory_order_relaxed);
  }
  const FecParity* operator->() const { return p_; }
  const FecParity& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

  /// Side objects allocated and not yet returned to the pool, summed
  /// across shard threads (a parity body may be freed on another shard
  /// than the one that built it).
  static std::int64_t live_count() {
    return live_.load(std::memory_order_relaxed);
  }

 private:
  static FecParity* allocate(const FecParity& p) {
    live_.fetch_add(1, std::memory_order_relaxed);
    return util::pool_new<FecParity>(p);
  }

  FecParity* p_ = nullptr;
  static std::atomic<std::int64_t> live_;
};

/// Immutable, refcount-shared packet body (identity + payload).
struct RtpBody {
  StreamId stream_id = kNoStream;
  Seq seq = 0;             ///< per-stream, assigned by the producer
  std::uint64_t frame_id = 0;
  std::uint64_t gop_id = 0;
  FrameType frame_type = FrameType::kP;
  bool referenced = true;  ///< from the carried frame
  std::uint32_t frag_index = 0;
  std::uint32_t frag_count = 1;
  std::size_t payload_bytes = 0;
  Time capture_time = 0;   ///< broadcaster capture timestamp
  /// Telemetry trace id stamped at packetization on a sampled fraction
  /// of packets; 0 = untraced. Shared by every fork of this body, so
  /// one stamp follows the packet across all hops. Observation-only:
  /// no forwarding decision reads it.
  std::uint64_t trace_id = 0;
  /// FEC parity marker: set on link-local parity packets only, null on
  /// every media packet. A parity body's own payload_bytes models its
  /// wire size (max payload in the group).
  FecParityPtr fec;

  // SVC lattice coordinates of the carried frame (see media::Frame).
  LayerId layer;
  std::uint8_t spatial_layers = 1;
  std::uint8_t temporal_layers = 1;
  bool discardable = false;

  RtpBody() = default;
  /// Deep copy. Never taken on the forwarding fast path — counted so
  /// tests can assert exactly that.
  RtpBody(const RtpBody& o)
      : stream_id(o.stream_id), seq(o.seq), frame_id(o.frame_id),
        gop_id(o.gop_id), frame_type(o.frame_type), referenced(o.referenced),
        frag_index(o.frag_index), frag_count(o.frag_count),
        payload_bytes(o.payload_bytes), capture_time(o.capture_time),
        trace_id(o.trace_id), fec(o.fec), layer(o.layer),
        spatial_layers(o.spatial_layers), temporal_layers(o.temporal_layers),
        discardable(o.discardable) {
    ++deep_copies_;
  }
  /// Moves don't count: make() moves the caller's staging body into
  /// the pool exactly once per produced packet.
  RtpBody(RtpBody&& o) noexcept
      : stream_id(o.stream_id), seq(o.seq), frame_id(o.frame_id),
        gop_id(o.gop_id), frame_type(o.frame_type), referenced(o.referenced),
        frag_index(o.frag_index), frag_count(o.frag_count),
        payload_bytes(o.payload_bytes), capture_time(o.capture_time),
        trace_id(o.trace_id), fec(std::move(o.fec)), layer(o.layer),
        spatial_layers(o.spatial_layers), temporal_layers(o.temporal_layers),
        discardable(o.discardable) {}
  RtpBody& operator=(const RtpBody&) = delete;

  /// Total body deep copies since process start (forward-path copies
  /// would show up here; the zero-copy invariant keeps this flat).
  /// Summed across all shard threads: the counter is atomic because
  /// shard-boundary clones run concurrently — never on the fast path,
  /// which shares bodies and thus never touches it.
  static std::uint64_t deep_copy_count() {
    return deep_copies_.load(std::memory_order_relaxed);
  }

  // Intrusive refcount (single-threaded, like sim::Message's).
  void body_add_ref() const noexcept { ++refs_; }
  void body_release() const noexcept {
    if (--refs_ == 0) util::pool_delete(const_cast<RtpBody*>(this));
  }

 private:
  mutable std::uint32_t refs_ = 0;
  static std::atomic<std::uint64_t> deep_copies_;
};

inline void FecXor::accumulate(const RtpBody& b) {
  frame_id ^= b.frame_id;
  gop_id ^= b.gop_id;
  payload_bytes ^= static_cast<std::uint64_t>(b.payload_bytes);
  capture_time ^= static_cast<std::uint64_t>(b.capture_time);
  trace_id ^= b.trace_id;
  frag_index ^= b.frag_index;
  frag_count ^= b.frag_count;
  frame_type ^= static_cast<std::uint8_t>(b.frame_type);
  referenced ^= static_cast<std::uint8_t>(b.referenced);
  layer_spatial ^= b.layer.spatial;
  layer_temporal ^= b.layer.temporal;
  spatial_layers ^= b.spatial_layers;
  temporal_layers ^= b.temporal_layers;
  discardable ^= static_cast<std::uint8_t>(b.discardable);
}

/// Refcounted handle to a shared immutable body.
class BodyRef {
 public:
  BodyRef() = default;
  /// Adopts a pool-allocated body (takes one reference).
  explicit BodyRef(const RtpBody* b) : p_(b) {
    if (p_ != nullptr) p_->body_add_ref();
  }
  BodyRef(const BodyRef& o) : p_(o.p_) {
    if (p_ != nullptr) p_->body_add_ref();
  }
  BodyRef(BodyRef&& o) noexcept : p_(o.p_) { o.p_ = nullptr; }
  BodyRef& operator=(BodyRef o) noexcept {
    std::swap(p_, o.p_);
    return *this;
  }
  ~BodyRef() {
    if (p_ != nullptr) p_->body_release();
  }
  const RtpBody* operator->() const { return p_; }
  const RtpBody& operator*() const { return *p_; }
  explicit operator bool() const { return p_ != nullptr; }

 private:
  const RtpBody* p_ = nullptr;
};

class RtpPacket;
using RtpPacketMut = sim::IntrusivePtr<RtpPacket>;
using RtpPacketPtr = sim::IntrusivePtr<const RtpPacket>;

class RtpPacket final : public sim::Message {
 public:
  // ---- Per-hop trailer: owned (and rewritten) by each hop. ----
  Seq seq = 0;                ///< as sent on this hop (client-facing seq
                              ///< rewrite happens at the edge)
  Duration delay_ext_us = 0;  ///< accumulated delay header extension
  bool is_rtx = false;        ///< retransmission of an earlier packet
  bool fec_recovered = false; ///< reconstructed from a parity group at
                              ///< this hop (never crossed the wire)
  /// Overlay hops traversed so far (measurement only; packed with the
  /// flags above so the trailer stays in an 80-B pool block).
  std::uint8_t cdn_hops = 0;
  /// Layer-filtered links are sparse in producer-seq space: the sender
  /// stamps the previous producer seq it forwarded on this hop, so the
  /// receive buffer treats the gap (prev_link_seq, producer_seq) as
  /// intentionally absent (no NACKs for filtered layers). 0 = dense
  /// hop or unknown (RTX, parity, legacy sender) — plain hole logic.
  Seq prev_link_seq = 0;

  // Measurement fields (stand-ins for per-hop log correlation in the
  // production system; they do not influence forwarding decisions).
  Time cdn_ingress_time = kNever;  ///< producer stamped CDN entry time

  /// Per-hop departure timestamp used by the receiver-side GCC delay
  /// estimator (the abs-send-time RTP extension in WebRTC). Mutable
  /// because the sending pacer stamps it at the instant of transmission;
  /// by then each hop's trailer is owned by exactly one sender pipeline.
  mutable Time hop_send_time = kNever;

  /// Builds a fresh producer packet: pools the body, seeds the trailer
  /// seq from the body seq.
  static RtpPacketMut make(RtpBody body) {
    BodyRef ref(util::pool_new<RtpBody>(std::move(body)));
    return sim::make_message<RtpPacket>(std::move(ref));
  }

  /// Fan-out primitive: new pool-allocated trailer sharing this body.
  /// prev_link_seq is a link-local annotation of the hop that stamped
  /// it — a fork is the start of a new hop, so it resets to dense (a
  /// stale value would make the next receiver void genuine losses).
  RtpPacketMut fork() const {
    RtpPacketMut copy = sim::make_message<RtpPacket>(*this);
    copy->prev_link_seq = 0;
    return copy;
  }

  /// Copies this packet adjusting the delay extension; used by
  /// forwarding hops (the body is shared — the trailer copy stands in
  /// for the header rewrite a real node performs).
  RtpPacketMut clone_with_delay(Duration added_delay) const {
    RtpPacketMut copy = fork();
    copy->delay_ext_us += added_delay;
    return copy;
  }

  // ---- Shared-body accessors. ----
  /// The shared immutable body (FEC encoders aggregate its fields).
  const RtpBody& body() const { return *body_; }
  /// The shared body's handle (a send-history snapshot copies it to
  /// keep the body alive without holding the trailer).
  const BodyRef& body_ref() const { return body_; }
  StreamId stream_id() const { return body_->stream_id; }
  /// The producer-assigned sequence number (survives edge seq rewrite).
  Seq producer_seq() const { return body_->seq; }
  std::uint64_t frame_id() const { return body_->frame_id; }
  std::uint64_t gop_id() const { return body_->gop_id; }
  FrameType frame_type() const { return body_->frame_type; }
  bool referenced() const { return body_->referenced; }
  std::uint32_t frag_index() const { return body_->frag_index; }
  std::uint32_t frag_count() const { return body_->frag_count; }
  std::size_t payload_bytes() const { return body_->payload_bytes; }
  Time capture_time() const { return body_->capture_time; }
  std::uint64_t trace_id() const { return body_->trace_id; }
  LayerId layer() const { return body_->layer; }
  std::uint8_t spatial_layers() const { return body_->spatial_layers; }
  std::uint8_t temporal_layers() const { return body_->temporal_layers; }
  bool discardable() const { return body_->discardable; }
  bool is_svc() const {
    return body_->spatial_layers > 1 || body_->temporal_layers > 1;
  }
  /// The mask bit this packet needs to pass a subscriber's layer
  /// filter. Audio and parity ride every mask (parity coverage is
  /// decided at the encoder, not per packet).
  LayerMask layer_mask_bit() const {
    return is_audio() || is_fec_parity() ? kAllLayers
                                         : layer_bit(body_->layer);
  }

  bool marker() const { return frag_index() + 1 == frag_count(); }
  bool is_audio() const { return frame_type() == FrameType::kAudio; }
  bool is_keyframe_packet() const { return frame_type() == FrameType::kI; }

  // ---- FEC parity accessors (see RtpBody::fec). ----
  bool is_fec_parity() const { return static_cast<bool>(body_->fec); }
  /// The parity side object; call only when is_fec_parity().
  const FecParity& fec() const { return *body_->fec; }

  std::size_t wire_size() const override {
    return kRtpHeaderBytes + payload_bytes();
  }
  std::string describe() const override;
  TraceTag trace_tag() const override {
    return TraceTag{body_->trace_id, body_->stream_id, body_->seq};
  }

  /// Shard-boundary clone: the shared body makes the trailer-only copy
  /// of fork() unsafe across threads (the body refcount is non-atomic),
  /// so crossing a shard deep-copies the body — the counted copy, so
  /// tests can assert how many packets paid it — and replicates the
  /// trailer. transfer_safe() stays false for the same reason: even a
  /// sole-reference trailer may share its body with the sending shard.
  sim::IntrusivePtr<const sim::Message> clone_message() const override {
    RtpPacketMut copy =
        sim::make_message<RtpPacket>(BodyRef(util::pool_new<RtpBody>(*body_)));
    copy->seq = seq;
    copy->delay_ext_us = delay_ext_us;
    copy->is_rtx = is_rtx;
    copy->fec_recovered = fec_recovered;
    copy->prev_link_seq = prev_link_seq;
    copy->cdn_ingress_time = cdn_ingress_time;
    copy->cdn_hops = cdn_hops;
    copy->hop_send_time = hop_send_time;
    return copy;
  }

  /// Trailer copy sharing the body (make_message / fork use this; a
  /// direct copy never duplicates the body).
  RtpPacket(const RtpPacket&) = default;

  explicit RtpPacket(BodyRef body) : body_(std::move(body)) {
    seq = body_->seq;
  }

 private:
  BodyRef body_;
};

// Every in-flight packet pays one trailer and shares one body; the
// send history and the pools size themselves from these (16-B pool
// classes: the trailer takes an 80-B block, a media body a 96-B one).
static_assert(sizeof(RtpPacket) <= 80, "per-hop trailer outgrew 80 B");
static_assert(sizeof(RtpBody) <= 96, "media body outgrew 96 B");

/// RTCP NACK: sequence numbers of detected holes, sent to the upstream
/// node which retransmits from its send history (§5.1, 50 ms scan).
/// Audio and video are separate RTP flows with independent sequence
/// spaces (as in WebRTC), so the NACK names the flow kind.
class NackMessage final : public sim::CloneableMessage<NackMessage> {
 public:
  StreamId stream_id = kNoStream;
  bool audio = false;
  std::vector<Seq> missing;

  std::size_t wire_size() const override { return 16 + 4 * missing.size(); }
  std::string describe() const override;
};

/// NACK answer for holes that are voids, not losses: the supplier
/// vouches that these seqs were excluded by the requester's SVC layer
/// mask and will never be retransmitted. The receiver folds them into
/// its void set, unblocking the in-order drain immediately instead of
/// burning the NACK retry budget on an unfillable hole (which starves
/// every downstream viewer of the stream until the give-up timeout).
class NackVoidMessage final : public sim::CloneableMessage<NackVoidMessage> {
 public:
  StreamId stream_id = kNoStream;
  bool audio = false;
  std::vector<Seq> voided;

  std::size_t wire_size() const override { return 16 + 4 * voided.size(); }
  std::string describe() const override;
};

/// RTCP receiver feedback for congestion control, one per upstream
/// neighbor (not per stream): carries the delay-based rate estimate
/// computed on the receiver side of GCC (REMB-style) and the measured
/// loss fraction for the sender-side loss-based controller.
class CcFeedbackMessage final : public sim::CloneableMessage<CcFeedbackMessage> {
 public:
  double remb_bps = 0.0;       ///< receiver-estimated max bitrate
  double loss_fraction = 0.0;  ///< loss observed since last feedback
  std::uint64_t packets_observed = 0;

  std::size_t wire_size() const override { return 24; }
  std::string describe() const override;
};

}  // namespace livenet::media
