// Stream-multiplexed framing: the message plane's one wire format.
//
// One TCP connection carries one or more logical streams (the a1/o1/e2/svc
// links of the single-cell plane, the per-cell links of the fleet plane).
// Each frame is a 4-byte length prefix followed by a varint stream id
// (DESIGN.md §5f has the byte-level diagram):
//
//   +--------------------+----------------------+----------------------+
//   | length L (4B, BE)  | stream id (varint V) | payload (L - |V| B)  |
//   +--------------------+----------------------+----------------------+
//
// L counts the stream-id varint plus the payload. L == 0 is a
// connection-level heartbeat with no stream id and no payload,
// consumed by the endpoint and never surfaced to a stream. The varint is
// base-128, least-significant group first, high bit = continuation
// (LEB128), at most kMaxVarintBytes groups.
//
// MuxDecoder is built for batched ingest: readv() lands bytes directly in
// its power-of-two ring buffer (fill_iovecs/commit), and next() hands out
// zero-copy FrameViews over the ring — no per-frame memcpy and no
// compaction memmove on the fast path. Only a frame that straddles the
// ring's wrap point is assembled in a scratch buffer (counted, rare: the
// ring holds at least one maximum-size frame).

#pragma once

#include <sys/uio.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace edgebol::net {

/// Default cap on one frame's payload (1 MiB; every control-plane message
/// here is < 1 KiB, so the cap only exists to bound a corrupted prefix).
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

/// Longest legal stream-id varint: ceil(64 / 7) groups.
inline constexpr std::size_t kMaxVarintBytes = 10;

/// Largest possible mux frame header (length prefix + stream-id varint).
inline constexpr std::size_t kMuxMaxHeaderBytes = 4 + kMaxVarintBytes;

/// Append a LEB128 varint to `out`.
void append_varint(std::string* out, std::uint64_t v);

/// Encode a LEB128 varint into `dst` (capacity >= kMaxVarintBytes);
/// returns the encoded size. Allocation-free for the hot TX path.
std::size_t encode_varint(char* dst, std::uint64_t v);

/// Decode a LEB128 varint from [data, data+len). Returns the bytes
/// consumed, or 0 when the varint is truncated or longer than
/// kMaxVarintBytes (malformed).
std::size_t decode_varint(const char* data, std::size_t len, std::uint64_t* v);

/// Append one mux frame (length prefix + stream-id varint + payload).
void append_mux_frame(std::string* out, std::uint64_t stream_id,
                      const std::string& payload);

/// Write the wire header for a payload of `payload_len` bytes on
/// `stream_id` into `hdr` (capacity >= kMuxMaxHeaderBytes); returns the
/// header size. The payload itself is gathered separately by writev.
std::size_t encode_mux_header(char* hdr, std::uint64_t stream_id,
                              std::size_t payload_len);

/// Write the 4-byte heartbeat header (L == 0) into `hdr`; returns 4.
std::size_t encode_mux_heartbeat(char* hdr);

/// One decoded frame, viewing the decoder's ring buffer. Valid until the
/// decoder's next fill_iovecs()/commit()/reset() — consume (or copy) each
/// view before reading more bytes off the socket. Heartbeats carry
/// stream_id 0, size 0, heartbeat = true.
struct FrameView {
  std::uint64_t stream_id = 0;
  const char* data = nullptr;
  std::size_t size = 0;
  bool heartbeat = false;
};

class MuxDecoder {
 public:
  /// The ring is sized to the next power of two above one maximum frame
  /// (payload cap + header), so any legal frame fits contiguously or with
  /// a single wrap.
  explicit MuxDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes);

  /// Expose the ring's free space as up to two iovecs for one readv().
  /// Returns the iovec count; 0 means the ring is full and the caller must
  /// decode (next()) before reading more.
  int fill_iovecs(struct iovec iov[2]);

  /// Account `n` bytes that readv() landed in the space fill_iovecs exposed.
  void commit(std::size_t n);

  /// Decode the next complete frame. Zero-copy when the payload lies
  /// contiguous in the ring (the overwhelmingly common case); a payload
  /// straddling the wrap point is assembled into an internal scratch
  /// buffer first (counted by scratch_copies()). Returns false when no
  /// complete frame is buffered or the decoder is poisoned.
  bool next(FrameView* view);

  /// True once a corrupt header was seen (oversized length or malformed
  /// varint); the connection must be reset: a length-prefixed stream
  /// cannot be resynchronized.
  bool poisoned() const { return poisoned_; }

  /// Forget all buffered bytes and the poisoned flag (new connection).
  void reset();

  std::size_t buffered_bytes() const { return size_; }
  std::size_t capacity() const { return ring_.size(); }
  std::uint64_t scratch_copies() const { return scratch_copies_; }

  /// Test/bench convenience: push bytes through the iovec interface as a
  /// socketless stand-in for readv. Returns the bytes accepted (< len when
  /// the ring filled up; decode and call again).
  std::size_t feed(const char* data, std::size_t len);

 private:
  unsigned char byte_at(std::size_t logical) const {
    return static_cast<unsigned char>(ring_[(head_ + logical) & mask_]);
  }

  std::size_t max_frame_bytes_;
  std::vector<char> ring_;
  std::size_t mask_ = 0;  // ring_.size() - 1 (power of two)
  std::size_t head_ = 0;  // read position
  std::size_t size_ = 0;  // bytes buffered
  bool poisoned_ = false;
  std::uint64_t scratch_copies_ = 0;
  std::string scratch_;  // wrap-straddling payload assembly (slow path)
};

}  // namespace edgebol::net
