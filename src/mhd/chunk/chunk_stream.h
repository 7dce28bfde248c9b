// ChunkStream — pulls whole chunks (bytes + cut metadata) out of a
// ByteSource through any Chunker, handling I/O buffering and TTTD
// carry-over. HashedChunkStream adds each chunk's SHA-1: it is the front
// end of every deduplication engine (DedupEngine::open_ingest).
#pragma once

#include <memory>

#include "mhd/chunk/byte_source.h"
#include "mhd/chunk/chunker.h"
#include "mhd/hash/sha1.h"

namespace mhd {

class ChunkStream {
 public:
  ChunkStream(ByteSource& source, Chunker& chunker,
              std::size_t io_buffer_size = 256 * 1024);

  /// Fills `chunk` with the next chunk's bytes. Returns false at end of
  /// stream (chunk left empty). The final chunk may end without a content
  /// cut (end of input).
  bool next(ByteVec& chunk);

  /// Total bytes emitted so far.
  std::uint64_t bytes_emitted() const { return bytes_emitted_; }

 private:
  std::size_t refill();

  ByteSource& source_;
  Chunker& chunker_;
  ByteVec io_buf_;
  std::size_t buf_pos_ = 0;
  std::size_t buf_len_ = 0;
  ByteVec carry_;  ///< bytes rolled back past a TTTD backup cut
  bool eof_ = false;
  std::uint64_t bytes_emitted_ = 0;
};

/// Chunks and their SHA-1 fingerprints, in input order, chunked and
/// hashed inline on the caller's thread. Owns the chunker (its state is
/// private to the stream).
class HashedChunkStream {
 public:
  HashedChunkStream(ByteSource& source, std::unique_ptr<Chunker> chunker)
      : chunker_(std::move(chunker)), stream_(source, *chunker_) {}

  /// Fills `bytes` and `hash` with the next chunk. Returns false at end of
  /// stream.
  bool next(ByteVec& bytes, Digest& hash) {
    if (!stream_.next(bytes)) return false;
    hash = Sha1::digest_of(bytes);
    return true;
  }

 private:
  std::unique_ptr<Chunker> chunker_;
  ChunkStream stream_;
};

}  // namespace mhd
