#include "src/ncl/geometry.h"

#include <algorithm>

#include "src/ncl/region_format.h"

namespace splitft {

NclGeometry NclGeometry::Replicated(int fault_budget) {
  const int n = 2 * fault_budget + 1;
  return NclGeometry(1, n, fault_budget + 1, static_cast<uint32_t>(n),
                     EcGeometry{});
}

NclGeometry NclGeometry::Striped(const EcGeometry& code) {
  return NclGeometry(code.k, static_cast<int>(code.shards()),
                     static_cast<int>(code.k), code.k, code);
}

uint64_t NclGeometry::header_bytes() const {
  return k_ == 1 ? kNclRegionHeaderBytes : kNclEcHeaderBytes;
}

uint64_t NclGeometry::SlotRegionBytes(uint64_t capacity) const {
  return header_bytes() + FullRange(capacity).size();
}

void NclGeometry::EncodeHeader(uint64_t seq, uint64_t length, uint32_t role,
                               char* out) const {
  if (k_ == 1) {
    NclRegionHeader{seq, length}.EncodeTo(out);
  } else {
    NclShardHeader{seq, length, code_.k, code_.m, role, code_.stripe_unit}
        .EncodeTo(out);
  }
}

bool NclGeometry::DecodeHeader(std::string_view raw, uint32_t role,
                               uint64_t* seq, uint64_t* length) const {
  if (k_ == 1) {
    NclRegionHeader h = NclRegionHeader::Decode(raw);
    *seq = h.seq;
    *length = h.length;
    return true;
  }
  NclShardHeader h = NclShardHeader::Decode(raw);
  *seq = h.seq;
  *length = h.length;
  return h.seq == 0 || (h.k == code_.k && h.m == code_.m &&
                        h.stripe_unit == code_.stripe_unit &&
                        h.shard_index == role);
}

void NclGeometry::Stamp(ApMapEntry* entry) const {
  if (k_ > 1) {
    entry->ec_k = code_.k;
    entry->ec_m = code_.m;
    entry->ec_stripe_unit = code_.stripe_unit;
  }
}

Status NclGeometry::CheckApMap(const ApMapEntry& entry,
                               const std::string& file) const {
  if (k_ == 1) {
    if (entry.ec_k == 0) {
      return OkStatus();
    }
    return FailedPreconditionError(
        "ncl file " + file +
        " is erasure-coded; configure the client with the matching ec "
        "geometry to recover it");
  }
  if (entry.ec_k == code_.k && entry.ec_m == code_.m &&
      entry.ec_stripe_unit == code_.stripe_unit) {
    return OkStatus();
  }
  return FailedPreconditionError(
      "ncl file " + file + " has ap-map geometry k=" +
      std::to_string(entry.ec_k) + ",m=" + std::to_string(entry.ec_m) +
      ",unit=" + std::to_string(entry.ec_stripe_unit) +
      " but the client is configured for k=" + std::to_string(code_.k) +
      ",m=" + std::to_string(code_.m) +
      ",unit=" + std::to_string(code_.stripe_unit));
}

SlotRange NclGeometry::RangeFor(uint32_t role, uint64_t offset,
                                uint64_t length) const {
  if (k_ == 1) {
    return SlotRange{offset, offset + length};
  }
  return role < k_ ? DataShardRange(code_, role, offset, length)
                   : ParityShardRange(code_, offset, length);
}

SlotRange NclGeometry::FullRange(uint64_t length) const {
  return SlotRange{0, k_ == 1 ? length : code_.ShardCapacity(length)};
}

std::string_view NclGeometry::SlotBytes(uint32_t role,
                                        std::string_view logical,
                                        const SlotRange& range,
                                        std::string* scratch) const {
  if (k_ == 1) {
    return logical.substr(range.begin, range.size());
  }
  if (role < k_) {
    ExtractDataShard(code_, role, logical, range, scratch);
  } else {
    EncodeParityShard(code_, role - k_, logical, range, scratch);
  }
  return *scratch;
}

SharedBytes NclGeometry::SlotSlice(uint32_t role, std::string_view logical,
                                   const SlotRange& range) const {
  std::string bytes;
  if (k_ == 1) {
    bytes.assign(logical.substr(range.begin, range.size()));
  } else {
    SlotBytes(role, logical, range, &bytes);
  }
  return SharedBytes(std::move(bytes));
}

NclGeometry::Claim NclGeometry::ClaimFrom(
    std::vector<Responder> responders) const {
  // Freshest first; the stable sort keeps role order among equal seqs.
  std::stable_sort(responders.begin(), responders.end(),
                   [](const Responder& a, const Responder& b) {
                     return a.seq > b.seq;
                   });
  const Responder& floor = responders[k_ - 1];
  Claim claim{floor.seq, floor.length, {}};
  for (const Responder& r : responders) {
    if (claim.sources.size() < k_ && r.seq >= claim.seq &&
        r.role < data_slots_) {
      claim.sources.push_back(r.role);
    }
  }
  for (auto it = responders.rbegin(); it != responders.rend(); ++it) {
    if (claim.sources.size() < k_ && it->seq >= claim.seq &&
        it->role >= data_slots_) {
      claim.sources.push_back(it->role);
    }
  }
  return claim;
}

Status NclGeometry::Rebuild(std::vector<SlotImage> images, uint64_t length,
                            std::string* out) const {
  if (k_ == 1) {
    *out = std::move(images[0].bytes);
    return OkStatus();
  }
  std::vector<EcShardView> views;
  for (const SlotImage& image : images) {
    views.push_back(EcShardView{image.role, image.bytes});
  }
  return EcReconstruct(code_, views, length, out);
}

}  // namespace splitft
