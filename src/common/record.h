// The one checksummed-record format behind every app log and snapshot
// (the kvstore WAL, the redis AOF, the sqlite WAL, the local_fs metadata
// block), and the count-prefixed key-value list their payloads share.
//
// Record: [masked crc32c of payload (4)] [payload len (4)] payload
// KV list: [count (4)] then count x ([klen (4)][key][vlen (4)][value])
//
// SplitFT's recovery contract (§4.5.1) hands the app a log prefix whose
// tail may be torn; ForEachRecord is the app's half of that contract: it
// stops at the first torn or corrupt record, since everything after it
// was never acknowledged.
#ifndef SRC_COMMON_RECORD_H_
#define SRC_COMMON_RECORD_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "src/common/bytes.h"
#include "src/common/crc32c.h"

namespace splitft {

inline constexpr size_t kRecordHeaderBytes = 8;

inline void AppendRecord(std::string* out, std::string_view payload) {
  PutFixed32(out, MaskCrc(Crc32c(payload)));
  PutFixed32(out, static_cast<uint32_t>(payload.size()));
  out->append(payload);
}

enum class RecordCheck {
  kOk,
  kTorn,     // the header or the payload runs past the end of `raw`
  kCorrupt,  // the payload does not match its checksum
};

// Decodes the record at the start of `raw` into *payload (a view of `raw`).
inline RecordCheck DecodeRecord(std::string_view raw,
                                std::string_view* payload) {
  if (raw.size() < kRecordHeaderBytes) {
    return RecordCheck::kTorn;
  }
  uint32_t len = DecodeFixed32(raw.data() + 4);
  if (len > raw.size() - kRecordHeaderBytes) {
    return RecordCheck::kTorn;
  }
  std::string_view body = raw.substr(kRecordHeaderBytes, len);
  if (Crc32c(body) != UnmaskCrc(DecodeFixed32(raw.data()))) {
    return RecordCheck::kCorrupt;
  }
  *payload = body;
  return RecordCheck::kOk;
}

// Calls `fn(payload) -> bool` for each intact record of `raw` in order. Stops
// at the first torn or corrupt record, or when `fn` returns false (that
// record is not consumed). Returns the bytes of the records consumed.
template <typename Fn>
size_t ForEachRecord(std::string_view raw, Fn&& fn) {
  size_t pos = 0;
  std::string_view payload;
  while (DecodeRecord(raw.substr(pos), &payload) == RecordCheck::kOk &&
         fn(payload)) {
    pos += kRecordHeaderBytes + payload.size();
  }
  return pos;
}

// Appends `kvs` (pairs or {key, value} structs) as a KV list.
template <typename Range>
void PutKvList(std::string* out, const Range& kvs) {
  PutFixed32(out, static_cast<uint32_t>(kvs.size()));
  for (const auto& [key, value] : kvs) {
    PutLengthPrefixed(out, key);
    PutLengthPrefixed(out, value);
  }
}

// Decodes the KV list at raw[*pos], calling `fn(key, value)` per entry and
// advancing *pos past it. Returns false when the list is truncated; the
// entries before the cut have been passed to `fn`.
template <typename Fn>
bool ForEachKv(std::string_view raw, size_t* pos, Fn&& fn) {
  if (*pos + 4 > raw.size()) {
    return false;
  }
  uint32_t count = DecodeFixed32(raw.data() + *pos);
  *pos += 4;
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view key, value;
    if (!GetLengthPrefixed(raw, pos, &key) ||
        !GetLengthPrefixed(raw, pos, &value)) {
      return false;
    }
    fn(key, value);
  }
  return true;
}

}  // namespace splitft

#endif  // SRC_COMMON_RECORD_H_
