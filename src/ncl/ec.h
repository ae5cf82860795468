// Erasure-coding kernel for NCL regions (DESIGN.md §16): k data + m parity
// shards per region, address-space striped in `stripe_unit`-byte chunks.
//
// Layout. The logical region byte space is divided into units of
// `stripe_unit` bytes; unit u lives on data shard (u % k) at shard offset
// (u / k) * stripe_unit. A *stripe group* g is the k consecutive units
// g*k .. g*k+k-1, one per data lane; parity shard p stores, at shard offset
// g * stripe_unit + c, the GF(256) combination
//     sum_j EcCoef(p, j) * logical[(g*k + j) * stripe_unit + c]
// with the logical space zero-extended past its current length. Because a
// contiguous logical range covers a contiguous run of units, its footprint
// on every data shard is a single contiguous shard range — so an append
// costs one data WR plus one header WR per peer, exactly like replication.
//
// Parity rows are RAID-6 style: row 0 is plain XOR (coefficient 1), row 1
// uses 2^j in GF(256). For m <= 2 this is MDS for any k < 255, i.e. the
// logical bytes are recoverable from ANY k of the k+m shards. m > 2 is
// rejected by ValidateEcGeometry.
//
// Everything here is pure byte arithmetic: deterministic, no clocks, no
// randomness, no I/O (deeplint-clean by construction).
#ifndef SRC_NCL_EC_H_
#define SRC_NCL_EC_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/status.h"

namespace splitft {

// Stripe geometry carried by the ap-map and every shard header.
struct EcGeometry {
  uint32_t k = 2;            // data shards
  uint32_t m = 2;            // parity shards
  uint32_t stripe_unit = 64; // bytes per lane chunk

  uint32_t shards() const { return k + m; }
  // Bytes one stripe group consumes of the logical space.
  uint64_t group_bytes() const {
    return static_cast<uint64_t>(k) * stripe_unit;
  }
  // Shard bytes needed to hold `logical_capacity` logical bytes: one
  // stripe_unit-sized chunk per (whole or partial) stripe group.
  uint64_t ShardCapacity(uint64_t logical_capacity) const;

  bool operator==(const EcGeometry& o) const {
    return k == o.k && m == o.m && stripe_unit == o.stripe_unit;
  }
};

// Geometry sanity: k >= 2, 1 <= m <= 2 (the RS-lite parity rows above are
// MDS only up to two rows), stripe_unit > 0, k < 255.
Status ValidateEcGeometry(const EcGeometry& geo);

// GF(256) multiply (polynomial 0x11d, generator 2).
uint8_t GfMul(uint8_t a, uint8_t b);

// Coefficient of data lane j in parity row p (p < 2).
uint8_t EcCoef(uint32_t p, uint32_t j);

// A half-open byte range in shard-local offsets.
struct EcShardRange {
  uint64_t begin = 0;
  uint64_t end = 0;
  bool empty() const { return begin >= end; }
  uint64_t size() const { return empty() ? 0 : end - begin; }
};

// Footprint of logical range [offset, offset+length) on data shard j.
// Empty when the range touches no unit of lane j (short appends can miss
// lanes entirely; such peers still get a header-only WR for the watermark).
EcShardRange DataShardRange(const EcGeometry& geo, uint32_t shard_j,
                            uint64_t offset, uint64_t length);

// Footprint on every parity shard: the full chunks of every stripe group
// the range touches (parity is re-encoded a whole group at a time from the
// writer's local buffer, so partial-group writes never read-modify-write
// remote parity).
EcShardRange ParityShardRange(const EcGeometry& geo, uint64_t offset,
                              uint64_t length);

// Fills `out` with data shard j's bytes for shard range `range`, reading
// the logical image from `logical` (zero-extended past its size).
void ExtractDataShard(const EcGeometry& geo, uint32_t shard_j,
                      std::string_view logical, const EcShardRange& range,
                      std::string* out);

// Fills `out` with parity shard p's bytes for shard range `range`,
// encoding from the logical image (zero-extended).
void EncodeParityShard(const EcGeometry& geo, uint32_t parity_p,
                       std::string_view logical, const EcShardRange& range,
                       std::string* out);

// One recovered shard stream: which shard it is and its bytes from shard
// offset 0 (zero-extended past `bytes.size()` during reconstruction).
struct EcShardView {
  uint32_t shard_index = 0;
  std::string_view bytes;
};

// Rebuilds logical bytes [0, logical_len) from any k distinct shards.
// Returns kInvalidArgument on bad geometry, fewer than k shards, duplicate
// or out-of-range shard indices, or a singular decode matrix (impossible
// for m <= 2 with distinct shards, kept as a defensive check).
Status EcReconstruct(const EcGeometry& geo,
                     const std::vector<EcShardView>& shards,
                     uint64_t logical_len, std::string* out);

}  // namespace splitft

#endif  // SRC_NCL_EC_H_
