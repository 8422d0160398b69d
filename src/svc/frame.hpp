// Request/response framing for the long-lived BA service (docs/service.md).
//
// The daemon talks to its clients over an ordered byte stream (a Transport
// connection — in-process loopback or TCP, see svc/transport.hpp). Frames are
// length-prefixed so the codec works over any stream transport:
//
//   u32  length        bytes following this field (cap: kMaxFrameLen)
//   u8   type          FrameType
//   u64  session       0 until the server assigns one (kHelloAck)
//   u64  seq           per-session submission sequence number
//   ...  payload       type-specific body (see each FrameType)
//
// Integers are little-endian via common/serial.hpp, like every other wire
// format in the repo. Decoding is incremental and bounds-checked: feed()
// arbitrary chunk boundaries, next() yields complete frames. A frame whose
// header or body fails to parse is *counted* (malformed()) and skipped — the
// length prefix keeps the stream in sync — except an oversized length, which
// desynchronizes the stream permanently and poisons the decoder; the
// connection must be dropped.
#pragma once

#include <cstdint>
#include <deque>
#include <optional>
#include <unordered_map>

#include "common/bytes.hpp"
#include "common/serial.hpp"

namespace srds::svc {

enum class FrameType : std::uint8_t {
  kHello = 1,     // client -> server: open a session (session/seq = 0)
  kHelloAck,      // server -> client: session id + granted window; payload u32 window
  kSubmit,        // client -> server: payload u8 bit to agree on
  kDecision,      // server -> client: payload u8 value, u8 agreement,
                  //   u32 round_span, u64 instance
  kReject,        // server -> client: window full; payload u32 retry_after rounds
  kClose,         // client -> server: end of session
  kError,         // server -> client: payload str diagnostic
  kStats,         // client -> server: request a stats snapshot (empty payload)
  kStatsReply,    // server -> client: payload str — one JSON document with
                  //   daemon/session/ledger totals and prof sites (service.md)
};

/// Largest accepted value of the length prefix. Far above any legitimate
/// frame (the largest body, kError, is a short diagnostic string); a length
/// beyond it means the stream is desynchronized or hostile.
inline constexpr std::size_t kMaxFrameLen = 1u << 16;

/// Bytes of header covered by the length prefix (type + session + seq).
inline constexpr std::size_t kFrameHeaderLen = 1 + 8 + 8;

struct Frame {
  FrameType type = FrameType::kHello;
  std::uint64_t session = 0;
  std::uint64_t seq = 0;
  Bytes payload;
};

/// Serialize one frame (length prefix included).
Bytes encode_frame(const Frame& f);

// Convenience payload builders/parsers for the typed frames.
Frame make_hello();
Frame make_hello_ack(std::uint64_t session, std::uint32_t window);
Frame make_submit(std::uint64_t session, std::uint64_t seq, bool bit);
Frame make_decision(std::uint64_t session, std::uint64_t seq, bool value, bool agreement,
                    std::uint32_t round_span, std::uint64_t instance);
Frame make_reject(std::uint64_t session, std::uint64_t seq, std::uint32_t retry_after);
Frame make_close(std::uint64_t session);
Frame make_error(std::uint64_t session, std::uint64_t seq, const std::string& what);
Frame make_stats(std::uint64_t session);
Frame make_stats_reply(std::uint64_t session, const std::string& json);

struct DecisionPayload {
  bool value = false;
  bool agreement = false;
  std::uint32_t round_span = 0;
  std::uint64_t instance = 0;
};
/// Parse a kDecision payload; false on malformed input.
bool parse_decision(BytesView payload, DecisionPayload& out);
/// Parse a kReject payload; false on malformed input.
bool parse_reject(BytesView payload, std::uint32_t& retry_after);
/// Parse a kHelloAck payload; false on malformed input.
bool parse_hello_ack(BytesView payload, std::uint32_t& window);
/// Parse a kStatsReply payload (the JSON text); false on malformed input.
bool parse_stats_reply(BytesView payload, std::string& json);

/// Incremental stream decoder: feed() chunks as they arrive off the wire,
/// next() pops complete frames in order. One decoder per connection.
class FrameDecoder {
 public:
  /// Append a received chunk (any framing: the transport may split or
  /// coalesce arbitrarily).
  void feed(BytesView chunk);

  /// Pop the next complete frame, if one is buffered. Malformed frames are
  /// counted and skipped internally, so a returned frame is always valid.
  std::optional<Frame> next();

  /// Frames skipped because the header or a known type's body failed to
  /// parse (truncated vs the length prefix, unknown type byte, ...).
  std::uint64_t malformed() const { return malformed_; }

  /// A length prefix exceeded kMaxFrameLen: framing is lost for good and
  /// next() will never return again. Drop the connection.
  bool poisoned() const { return poisoned_; }

  /// Bytes buffered but not yet consumed (diagnostics).
  std::size_t buffered() const { return buf_.size() - pos_; }

 private:
  Bytes buf_;
  std::size_t pos_ = 0;  // consumed prefix of buf_
  std::uint64_t malformed_ = 0;
  bool poisoned_ = false;
};

/// Where the router delivers valid frames. Implemented by the daemon.
class FrameHandler {
 public:
  virtual ~FrameHandler() = default;
  /// `conn` identifies the connection the frame arrived on.
  virtual void on_hello(std::uint64_t conn, const Frame& f) = 0;
  /// Every kSubmit, resends included: the session layer classifies them.
  virtual void on_submit(std::uint64_t conn, const Frame& f) = 0;
  virtual void on_close(std::uint64_t conn, const Frame& f) = 0;
  /// A kStats snapshot request. Default: ignore (daemons that predate the
  /// stats surface stay valid handlers).
  virtual void on_stats(std::uint64_t conn, const Frame& f) {
    (void)conn;
    (void)f;
  }
};

/// Demultiplexes the server side of many connections: owns one FrameDecoder
/// per connection and dispatches every valid frame to the handler.
/// Client-bound frame types arriving at the server (kDecision, ...) are
/// counted as misdirected and dropped.
class FrameRouter {
 public:
  explicit FrameRouter(FrameHandler* handler) : handler_(handler) {}

  /// Feed bytes received on `conn` and dispatch every complete frame.
  /// Returns the number of frames dispatched.
  std::size_t on_bytes(std::uint64_t conn, BytesView chunk);

  /// Forget a connection's decoder state (connection closed).
  void drop_connection(std::uint64_t conn);

  /// True if the connection's stream is poisoned (caller must close it).
  bool poisoned(std::uint64_t conn) const;

  /// Total malformed frames across all connections (live and dropped).
  std::uint64_t malformed_frames() const;
  /// Server frames that arrived pointed the wrong way (kDecision etc.).
  std::uint64_t misdirected_frames() const { return misdirected_; }

 private:
  FrameHandler* handler_;
  std::unordered_map<std::uint64_t, FrameDecoder> decoders_;
  std::uint64_t malformed_dropped_ = 0;  // from decoders already dropped
  std::uint64_t misdirected_ = 0;
};

}  // namespace srds::svc
