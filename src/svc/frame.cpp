#include "svc/frame.hpp"

#include <string>

#include "obs/prof.hpp"

namespace srds::svc {

namespace {

Frame header_only(FrameType t, std::uint64_t session, std::uint64_t seq) {
  Frame f;
  f.type = t;
  f.session = session;
  f.seq = seq;
  return f;
}

bool known_type(std::uint8_t t) {
  return t >= static_cast<std::uint8_t>(FrameType::kHello) &&
         t <= static_cast<std::uint8_t>(FrameType::kStatsReply);
}

}  // namespace

Bytes encode_frame(const Frame& f) {
  Writer body;
  body.u8(static_cast<std::uint8_t>(f.type));
  body.u64(f.session);
  body.u64(f.seq);
  body.raw(f.payload);
  Writer w;
  w.u32(static_cast<std::uint32_t>(body.data().size()));
  w.raw(body.data());
  return std::move(w).take();
}

Frame make_hello() { return header_only(FrameType::kHello, 0, 0); }

Frame make_hello_ack(std::uint64_t session, std::uint32_t window) {
  Frame f = header_only(FrameType::kHelloAck, session, 0);
  Writer w;
  w.u32(window);
  f.payload = std::move(w).take();
  return f;
}

Frame make_submit(std::uint64_t session, std::uint64_t seq, bool bit) {
  Frame f = header_only(FrameType::kSubmit, session, seq);
  Writer w;
  w.u8(bit ? 1 : 0);
  f.payload = std::move(w).take();
  return f;
}

Frame make_decision(std::uint64_t session, std::uint64_t seq, bool value, bool agreement,
                    std::uint32_t round_span, std::uint64_t instance) {
  Frame f = header_only(FrameType::kDecision, session, seq);
  Writer w;
  w.u8(value ? 1 : 0);
  w.u8(agreement ? 1 : 0);
  w.u32(round_span);
  w.u64(instance);
  f.payload = std::move(w).take();
  return f;
}

Frame make_reject(std::uint64_t session, std::uint64_t seq, std::uint32_t retry_after) {
  Frame f = header_only(FrameType::kReject, session, seq);
  Writer w;
  w.u32(retry_after);
  f.payload = std::move(w).take();
  return f;
}

Frame make_close(std::uint64_t session) { return header_only(FrameType::kClose, session, 0); }

Frame make_error(std::uint64_t session, std::uint64_t seq, const std::string& what) {
  Frame f = header_only(FrameType::kError, session, seq);
  Writer w;
  w.str(what);
  f.payload = std::move(w).take();
  return f;
}

Frame make_stats(std::uint64_t session) {
  return header_only(FrameType::kStats, session, 0);
}

Frame make_stats_reply(std::uint64_t session, const std::string& json) {
  Frame f = header_only(FrameType::kStatsReply, session, 0);
  Writer w;
  w.str(json);
  f.payload = std::move(w).take();
  return f;
}

bool parse_stats_reply(BytesView payload, std::string& json) {
  Reader r(payload);
  json = r.str();
  return r.done();
}

bool parse_decision(BytesView payload, DecisionPayload& out) {
  Reader r(payload);
  out.value = r.u8() != 0;
  out.agreement = r.u8() != 0;
  out.round_span = r.u32();
  out.instance = r.u64();
  return r.done();
}

bool parse_reject(BytesView payload, std::uint32_t& retry_after) {
  Reader r(payload);
  retry_after = r.u32();
  return r.done();
}

bool parse_hello_ack(BytesView payload, std::uint32_t& window) {
  Reader r(payload);
  window = r.u32();
  return r.done();
}

// srds-lint: hotpath(FrameDecoder::feed) — runs once per received chunk on the service front
// door; must not throw or type-erase (rule P1).
void FrameDecoder::feed(BytesView chunk) {
  if (poisoned_) return;
  // Compact the consumed prefix before growing the buffer, so a long-lived
  // connection's memory stays bounded by its unconsumed backlog.
  if (pos_ > 0 && pos_ == buf_.size()) {
    buf_.clear();
    pos_ = 0;
  } else if (pos_ > 4096) {
    buf_.erase(buf_.begin(), buf_.begin() + static_cast<std::ptrdiff_t>(pos_));
    pos_ = 0;
  }
  buf_.insert(buf_.end(), chunk.begin(), chunk.end());
}

// srds-lint: hotpath(FrameDecoder::next) — runs once per frame on the service front door; must
// not throw or type-erase (rule P1).
std::optional<Frame> FrameDecoder::next() {
  PROF_SCOPE(obs::ProfSiteId::kSvcFrameDecode);
  while (!poisoned_) {
    const std::size_t avail = buf_.size() - pos_;
    if (avail < 4) return std::nullopt;
    Reader len_r(BytesView(buf_.data() + pos_, 4));
    const std::uint32_t len = len_r.u32();
    if (len > kMaxFrameLen) {
      // The length prefix itself is untrustworthy, so there is no way to
      // find the next frame boundary: framing is lost permanently.
      poisoned_ = true;
      malformed_ += 1;
      return std::nullopt;
    }
    if (avail < 4 + static_cast<std::size_t>(len)) return std::nullopt;

    Reader r(BytesView(buf_.data() + pos_ + 4, len));
    pos_ += 4 + static_cast<std::size_t>(len);

    const std::uint8_t type = r.u8();
    Frame f;
    f.session = r.u64();
    f.seq = r.u64();
    if (!r.ok() || !known_type(type)) {
      malformed_ += 1;
      continue;  // length prefix was sane, so the stream stays in sync
    }
    f.type = static_cast<FrameType>(type);
    f.payload = r.raw(r.remaining());
    return f;
  }
  return std::nullopt;
}

std::size_t FrameRouter::on_bytes(std::uint64_t conn, BytesView chunk) {
  FrameDecoder& dec = decoders_[conn];
  dec.feed(chunk);
  std::size_t dispatched = 0;
  while (auto f = dec.next()) {
    switch (f->type) {
      case FrameType::kHello:
        handler_->on_hello(conn, *f);
        ++dispatched;
        break;
      case FrameType::kSubmit:
        handler_->on_submit(conn, *f);
        ++dispatched;
        break;
      case FrameType::kClose:
        handler_->on_close(conn, *f);
        ++dispatched;
        break;
      case FrameType::kStats:
        handler_->on_stats(conn, *f);
        ++dispatched;
        break;
      case FrameType::kHelloAck:
      case FrameType::kDecision:
      case FrameType::kReject:
      case FrameType::kError:
      case FrameType::kStatsReply:
        // Server-to-client types have no business arriving at the server.
        misdirected_ += 1;
        break;
    }
  }
  return dispatched;
}

void FrameRouter::drop_connection(std::uint64_t conn) {
  auto it = decoders_.find(conn);
  if (it == decoders_.end()) return;
  malformed_dropped_ += it->second.malformed();
  decoders_.erase(it);
}

bool FrameRouter::poisoned(std::uint64_t conn) const {
  auto it = decoders_.find(conn);
  return it != decoders_.end() && it->second.poisoned();
}

std::uint64_t FrameRouter::malformed_frames() const {
  std::uint64_t total = malformed_dropped_;
  for (const auto& [conn, dec] : decoders_) total += dec.malformed();
  return total;
}

}  // namespace srds::svc
