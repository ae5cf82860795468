// Sorted-string tables for the mini-RocksDB.
//
// File layout:
//   data blocks (each <= block_size):   [klen][key][vlen][value]...
//   index:                              [count] then per block:
//                                       [first_klen][first_key][off(8)][len(4)]
//   footer (20 bytes):                  [index_off(8)][index_len(4)]
//                                       [masked crc of index (4)][magic (4)]
//
// SSTables are written as large background writes to the dfs (the cheap
// path of the split architecture) and read through a block cache.
#ifndef SRC_APPS_KVSTORE_SSTABLE_H_
#define SRC_APPS_KVSTORE_SSTABLE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/apps/lru_cache.h"
#include "src/common/annotations.h"
#include "src/common/status.h"
#include "src/splitft/split_fs.h"

namespace splitft {

constexpr uint32_t kSstableMagic = 0x73737431;  // "sst1"
constexpr uint64_t kSstableBlockBytes = 4096;

// One key and its (tagged) value, viewed where they live: in the memtable
// being flushed, or in the data blocks a compaction read.
struct SstEntry {
  std::string_view key;
  std::string_view value;
};

// Builds an sstable from sorted entries and writes it (as a background bulk
// write) through the given file handle.
class SstableBuilder {
 public:
  // `entries` must be sorted by key, each key once. Writes and
  // (background-)syncs.
  static Status Write(SplitFile* file, const std::vector<SstEntry>& entries);
};

// Reads an sstable: holds the index in memory, serves point lookups via
// the shared block cache.
class SstableReader {
 public:
  // Opens the table: reads footer + index (charged dfs reads).
  static Result<std::unique_ptr<SstableReader>> Open(
      std::unique_ptr<SplitFile> file, LruCache* block_cache);

  // index_ views index_raw_ in place, so a reader never moves.
  SstableReader(const SstableReader&) = delete;
  SstableReader& operator=(const SstableReader&) = delete;

  // Point lookup. Returns kNotFound if the key is absent from this table.
  Result<std::string> Get(std::string_view key);

  std::string_view smallest_key() const SPLITFT_LIFETIMEBOUND {
    return index_.empty() ? std::string_view() : index_.front().first_key;
  }
  const std::string& largest_key() const SPLITFT_LIFETIMEBOUND {
    return largest_;
  }
  const std::string& path() const SPLITFT_LIFETIMEBOUND {
    return file_->path();
  }
  size_t block_count() const { return index_.size(); }

  // Full scan, for compaction: every data block, in file order. Compaction
  // inputs are background IO and bypass the cache.
  Result<std::vector<SharedBytes>> ReadAllBlocks();

 private:
  struct IndexEntry {
    std::string_view first_key;  // inside index_raw_
    uint64_t offset;
    uint32_t length;
    std::string cache_key;  // "<path>@<offset>"
  };

  SstableReader(std::unique_ptr<SplitFile> file, LruCache* block_cache)
      : file_(std::move(file)), cache_(block_cache) {}

  Result<LruCache::Value> ReadBlock(const IndexEntry& entry);

  std::unique_ptr<SplitFile> file_;
  LruCache* cache_;
  // The index exactly as stored; index_ views its first keys in place.
  std::string index_raw_;
  std::vector<IndexEntry> index_;
  std::string largest_;
};

// k-way merge of sorted runs, each one table's data blocks in file order
// and runs[0] the newest. Returns every key once, in order, with its value
// from the newest run holding it; the views point into `runs`.
std::vector<SstEntry> MergeRuns(
    const std::vector<std::vector<SharedBytes>>& runs);

}  // namespace splitft

#endif  // SRC_APPS_KVSTORE_SSTABLE_H_
