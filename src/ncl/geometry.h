// NclGeometry: the redundancy layout an ncl file is written with
// (DESIGN.md §9, §16). Replication and erasure coding are two points in one
// (k, n) space, as in Hydra:
//
//   * 2f+1 replication is k = 1: n = 2f+1 slots each hold the whole logical
//     image verbatim under the 16-byte NclRegionHeader, and an append
//     commits at f+1 acks;
//   * k+m erasure coding stripes the image over k data lanes plus m parity
//     shards under the 32-byte NclShardHeader, and an append commits at the
//     first k acks (late binding).
//
// NclFile runs one protocol for both; every decision the two make
// differently — slot count and ack quorum, header codec, region sizing, what
// bytes a slot holds for a logical range, and how recovery claims and
// rebuilds the freshest state — is made here. A slot's *role* is its
// position in the file's slot list (the ap-map order): a replica number for
// k = 1, a shard index (0..k-1 data, k..n-1 parity) otherwise.
#ifndef SRC_NCL_GEOMETRY_H_
#define SRC_NCL_GEOMETRY_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/shared_bytes.h"
#include "src/common/status.h"
#include "src/controller/controller.h"
#include "src/ncl/ec.h"

namespace splitft {

// A half-open byte range in slot-local offsets (past the header).
using SlotRange = EcShardRange;

// Largest per-slot header any geometry writes (stack buffers size to it).
constexpr uint64_t kNclMaxHeaderBytes = 32;

class NclGeometry {
 public:
  // n = 2f+1 full replicas, acked at f+1.
  static NclGeometry Replicated(int fault_budget);
  // k data + m parity shards, acked at k.
  static NclGeometry Striped(const EcGeometry& code);

  int n() const { return n_; }
  int ack_quorum() const { return quorum_; }
  // Striped geometries report the ncl.ec.* repair and degradation
  // instruments; replicas have no stripes to degrade.
  bool striped() const { return k_ > 1; }
  // Positional overwrite of committed bytes: a replica takes any write, but
  // a degraded striped recovery decodes shard streams at mixed sequence
  // numbers, which is only column-consistent for append-only files.
  bool overwrite_allowed() const { return k_ == 1; }
  // One slot holds the whole image, so it can serve logical reads directly
  // (the no-prefetch recovery path, Fig 11a).
  bool slot_serves_reads() const { return k_ == 1; }

  // ---- Region layout & header codec ---------------------------------------
  uint64_t header_bytes() const;
  // Per-slot region bytes for a file of `capacity` logical bytes.
  uint64_t SlotRegionBytes(uint64_t capacity) const;
  // Logical capacity backed out of a granted slot region.
  uint64_t CapacityOf(uint64_t region_bytes) const {
    return (region_bytes - header_bytes()) * k_;
  }
  // Fills header_bytes() at `out` (allocation-free: the append hot path).
  void EncodeHeader(uint64_t seq, uint64_t length, uint32_t role,
                    char* out) const;
  // Decodes a header read back from slot `role`. False when a written
  // header carries another geometry or role: a stale or foreign region the
  // slot cannot be trusted with. A never-written (all-zero) header decodes
  // as the empty file.
  bool DecodeHeader(std::string_view raw, uint32_t role, uint64_t* seq,
                    uint64_t* length) const;
  // Records the geometry in an ap-map entry, and checks a recovered entry
  // was written with this geometry (the mode fence).
  void Stamp(ApMapEntry* entry) const;
  Status CheckApMap(const ApMapEntry& entry, const std::string& file) const;

  // ---- Data mapping --------------------------------------------------------
  // Slot `role`'s footprint of logical range [offset, offset+length); may be
  // empty for a data lane a short append misses.
  SlotRange RangeFor(uint32_t role, uint64_t offset, uint64_t length) const;
  // The whole slot image of a file holding `length` logical bytes.
  SlotRange FullRange(uint64_t length) const;
  // Slot `role`'s bytes over `range` of the logical image: a view of
  // `logical` for a replica; lane extraction or parity encoding into
  // `scratch` (which the view then points into) for a shard.
  std::string_view SlotBytes(uint32_t role, std::string_view logical,
                             const SlotRange& range,
                             std::string* scratch) const;
  // The same bytes, detached from `logical`, as a slice a bulk WR can hold
  // by reference and a fabric region adopt: a copy for a replica, the
  // encoding for a shard.
  SharedBytes SlotSlice(uint32_t role, std::string_view logical,
                        const SlotRange& range) const;

  // ---- Recovery ------------------------------------------------------------
  // A slot whose recovery header read answered, and what it advertises.
  struct Responder {
    uint32_t role;
    uint64_t seq;
    uint64_t length;
  };
  // The state recovery claims and the k source slots it rebuilds it from.
  struct Claim {
    uint64_t seq = 0;
    uint64_t length = 0;
    std::vector<uint32_t> sources;  // roles, in fetch order
  };
  // Claims the k-th largest responding seq (DESIGN.md §16) and picks k
  // sources at or above it: data streams freshest-first (a lane past the
  // claim only differs beyond its length), then parity stalest-first (a
  // parity past the claim has folded later appends into the tail group).
  // For k = 1 every slot is a data stream and this is §4.5.1's max-seq
  // rule, ties going to the lowest slot. `responders` must be in role order
  // and hold at least ack_quorum() entries.
  Claim ClaimFrom(std::vector<Responder> responders) const;
  // One fetched source: its role and its slot image over FullRange.
  struct SlotImage {
    uint32_t role;
    std::string bytes;
  };
  // Rebuilds logical bytes [0, length) from the claim's fetched sources.
  Status Rebuild(std::vector<SlotImage> images, uint64_t length,
                 std::string* out) const;

 private:
  NclGeometry(uint32_t k, int n, int quorum, uint32_t data_slots,
              EcGeometry code)
      : k_(k), n_(n), quorum_(quorum), data_slots_(data_slots), code_(code) {}

  uint32_t k_;
  int n_;
  int quorum_;
  // Slots holding logical bytes verbatim: all n replicas, or the k data
  // lanes of a stripe.
  uint32_t data_slots_;
  EcGeometry code_;  // the stripe code; unused for k = 1
};

}  // namespace splitft

#endif  // SRC_NCL_GEOMETRY_H_
