#include "media/rtp.h"

#include <sstream>

namespace livenet::media {

std::atomic<std::uint64_t> RtpBody::deep_copies_{0};
std::atomic<std::int64_t> FecParityPtr::live_{0};

std::string RtpPacket::describe() const {
  std::ostringstream ss;
  if (is_fec_parity()) {
    ss << "FEC s" << stream_id() << " #" << seq << " base" << fec().base_seq
       << " k" << fec().group_count;
    return ss.str();
  }
  ss << (is_rtx ? "RTX" : "RTP") << " s" << stream_id() << " #" << seq << " "
     << to_string(frame_type()) << " f" << frame_id() << " frag"
     << frag_index() << "/" << frag_count();
  return ss.str();
}

std::string NackMessage::describe() const {
  std::ostringstream ss;
  ss << "NACK s" << stream_id << " x" << missing.size();
  return ss.str();
}

std::string NackVoidMessage::describe() const {
  std::ostringstream ss;
  ss << "NACKVOID s" << stream_id << " x" << voided.size();
  return ss.str();
}

std::string CcFeedbackMessage::describe() const {
  std::ostringstream ss;
  ss << "CCFB remb=" << remb_bps << " loss=" << loss_fraction;
  return ss.str();
}

}  // namespace livenet::media
