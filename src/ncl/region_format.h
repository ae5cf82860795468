// On-peer memory-region layout for an ncl file.
//
//   [0, 8)   sequence number of the last completed write (§4.4)
//   [8, 16)  committed logical length of the file
//   [16, ..) file contents ("physical contents of the log", §4.4)
//
// Every application-level write turns into two RDMA WRITE work requests per
// peer: the data WR into the contents area, then the header WR. Send-queue
// ordering guarantees the header lands only after the data, which is what
// recovery's max-sequence-number rule relies on.
#ifndef SRC_NCL_REGION_FORMAT_H_
#define SRC_NCL_REGION_FORMAT_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"

namespace splitft {

constexpr uint64_t kNclRegionHeaderBytes = 16;

struct NclRegionHeader {
  uint64_t seq = 0;
  uint64_t length = 0;

  std::string Encode() const {
    std::string out;
    out.reserve(kNclRegionHeaderBytes);
    PutFixed64(&out, seq);
    PutFixed64(&out, length);
    return out;
  }

  // Allocation-free encoder for the append hot path: fills exactly
  // kNclRegionHeaderBytes at `out` (a stack buffer).
  void EncodeTo(char* out) const {
    EncodeFixed64(out, seq);
    EncodeFixed64(out + 8, length);
  }

  static NclRegionHeader Decode(std::string_view raw) {
    NclRegionHeader h;
    if (raw.size() >= kNclRegionHeaderBytes) {
      h.seq = DecodeFixed64(raw.data());
      h.length = DecodeFixed64(raw.data() + 8);
    }
    return h;
  }
};

// Total region size needed for a file with `capacity` content bytes.
inline constexpr uint64_t NclRegionBytes(uint64_t capacity) {
  return kNclRegionHeaderBytes + capacity;
}

// ---- Erasure-coded shard regions (DESIGN.md §16) ---------------------------
//
// In EC mode each of the k+m peers holds one *shard* region instead of a
// full replica. The header grows to 32 bytes so recovery can validate the
// stripe geometry against the ap-map before trusting any shard stream:
//
//   [0, 8)   sequence number of the last completed shard write; the stripe
//            id of an append IS its append sequence number, so this doubles
//            as "stripes [1..seq] of this shard have landed"
//   [8, 16)  committed logical (pre-encoding) length of the file
//   [16, 20) k   — data shards in the stripe geometry
//   [20, 24) m   — parity shards
//   [24, 28) shard index of THIS region (0..k-1 data, k..k+m-1 parity)
//   [28, 32) stripe unit in bytes
//   [32, ..) shard contents (address-space striped chunks, src/ncl/ec.h)
//
// The data-then-header WR ordering argument is unchanged: shard bytes land
// before the shard header that advertises them.

constexpr uint64_t kNclEcHeaderBytes = 32;

struct NclShardHeader {
  uint64_t seq = 0;
  uint64_t length = 0;  // logical file length, not shard length
  uint32_t k = 0;
  uint32_t m = 0;
  uint32_t shard_index = 0;
  uint32_t stripe_unit = 0;

  std::string Encode() const {
    std::string out;
    out.reserve(kNclEcHeaderBytes);
    PutFixed64(&out, seq);
    PutFixed64(&out, length);
    PutFixed32(&out, k);
    PutFixed32(&out, m);
    PutFixed32(&out, shard_index);
    PutFixed32(&out, stripe_unit);
    return out;
  }

  // Allocation-free encoder for the append hot path: fills exactly
  // kNclEcHeaderBytes at `out` (a stack buffer).
  void EncodeTo(char* out) const {
    EncodeFixed64(out, seq);
    EncodeFixed64(out + 8, length);
    EncodeFixed32(out + 16, k);
    EncodeFixed32(out + 20, m);
    EncodeFixed32(out + 24, shard_index);
    EncodeFixed32(out + 28, stripe_unit);
  }

  static NclShardHeader Decode(std::string_view raw) {
    NclShardHeader h;
    if (raw.size() >= kNclEcHeaderBytes) {
      h.seq = DecodeFixed64(raw.data());
      h.length = DecodeFixed64(raw.data() + 8);
      h.k = DecodeFixed32(raw.data() + 16);
      h.m = DecodeFixed32(raw.data() + 20);
      h.shard_index = DecodeFixed32(raw.data() + 24);
      h.stripe_unit = DecodeFixed32(raw.data() + 28);
    }
    return h;
  }
};

}  // namespace splitft

#endif  // SRC_NCL_REGION_FORMAT_H_
