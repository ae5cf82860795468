#include "src/apps/kvstore/sstable.h"

#include <algorithm>
#include <utility>

#include "src/common/bytes.h"
#include "src/common/crc32c.h"

namespace splitft {

Status SstableBuilder::Write(SplitFile* file,
                             const std::vector<SstEntry>& entries) {
  size_t data_bytes = 0;
  size_t max_key = 0;
  for (const auto& [key, value] : entries) {
    data_bytes += 8 + key.size() + value.size();
    max_key = std::max(max_key, key.size());
  }
  // Every block but the last holds at least kSstableBlockBytes, which
  // bounds the index. The data buffer reserves room for the index and the
  // footer too and is handed to the file, so the later appends land in its
  // tail and the dfs keeps it as the table's bytes without a copy.
  const size_t max_blocks = data_bytes / kSstableBlockBytes + 1;
  std::string data;
  data.reserve(data_bytes + 4 + max_blocks * (16 + max_key) + 20);
  std::string index;
  uint32_t block_count = 0;
  std::string index_body;

  uint64_t block_start = 0;
  std::string_view first_key;
  bool block_open = false;
  auto close_block = [&](uint64_t end) {
    PutLengthPrefixed(&index_body, first_key);
    PutFixed64(&index_body, block_start);
    PutFixed32(&index_body, static_cast<uint32_t>(end - block_start));
    block_count++;
    block_open = false;
  };

  for (const auto& [key, value] : entries) {
    if (!block_open) {
      block_start = data.size();
      first_key = key;
      block_open = true;
    }
    PutLengthPrefixed(&data, key);
    PutLengthPrefixed(&data, value);
    if (data.size() - block_start >= kSstableBlockBytes) {
      close_block(data.size());
    }
  }
  if (block_open) {
    close_block(data.size());
  }

  PutFixed32(&index, block_count);
  index += index_body;

  std::string footer;
  PutFixed64(&footer, data.size());                   // index offset
  PutFixed32(&footer, static_cast<uint32_t>(index.size()));
  PutFixed32(&footer, MaskCrc(Crc32c(index)));
  PutFixed32(&footer, kSstableMagic);

  RETURN_IF_ERROR(file->Append(std::move(data)));
  RETURN_IF_ERROR(file->Append(index));
  RETURN_IF_ERROR(file->Append(footer));
  // Compaction/flush writes are large background writes (§3).
  SyncOptions sync_options;
  sync_options.background = true;
  return file->Sync(sync_options).status();
}

Result<std::unique_ptr<SstableReader>> SstableReader::Open(
    std::unique_ptr<SplitFile> file, LruCache* block_cache) {
  uint64_t size = file->Size();
  if (size < 20) {
    return DataLossError("sstable too small: " + file->path());
  }
  auto footer = file->Read(size - 20, 20);
  if (!footer.ok()) {
    return footer.status();
  }
  uint64_t index_off = DecodeFixed64(footer->data());
  uint32_t index_len = DecodeFixed32(footer->data() + 8);
  uint32_t index_crc = UnmaskCrc(DecodeFixed32(footer->data() + 12));
  uint32_t magic = DecodeFixed32(footer->data() + 16);
  if (magic != kSstableMagic) {
    return DataLossError("bad sstable magic in " + file->path());
  }
  auto index_raw = file->Read(index_off, index_len);
  if (!index_raw.ok()) {
    return index_raw.status();
  }
  if (Crc32c(*index_raw) != index_crc) {
    return DataLossError("sstable index checksum mismatch in " + file->path());
  }

  std::unique_ptr<SstableReader> reader(
      new SstableReader(std::move(file), block_cache));
  reader->index_raw_ = std::string(*index_raw);
  std::string_view raw = reader->index_raw_;
  if (raw.size() < 4) {
    return DataLossError("sstable index truncated");
  }
  uint32_t count = DecodeFixed32(raw.data());
  // Each entry takes at least 16 bytes, whatever `count` claims.
  reader->index_.reserve(std::min<size_t>(count, (raw.size() - 4) / 16));
  size_t off = 4;
  const std::string cache_prefix = reader->path() + "@";
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view first_key;
    if (!GetLengthPrefixed(raw, &off, &first_key) || off + 12 > raw.size()) {
      return DataLossError("sstable index truncated");
    }
    uint64_t offset = DecodeFixed64(raw.data() + off);
    uint32_t length = DecodeFixed32(raw.data() + off + 8);
    off += 12;
    reader->index_.push_back(IndexEntry{first_key, offset, length,
                                        cache_prefix + std::to_string(offset)});
  }
  if (!reader->index_.empty()) {
    // The largest key requires scanning the last block.
    auto block = reader->ReadBlock(reader->index_.back());
    if (!block.ok()) {
      return block.status();
    }
    std::string_view b = **block;
    size_t pos = 0;
    std::string_view key, value;
    while (GetLengthPrefixed(b, &pos, &key) &&
           GetLengthPrefixed(b, &pos, &value)) {
      reader->largest_ = std::string(key);
    }
  }
  return reader;
}

Result<LruCache::Value> SstableReader::ReadBlock(const IndexEntry& entry) {
  if (cache_ != nullptr) {
    LruCache::Value cached = cache_->Get(entry.cache_key);
    if (cached != nullptr) {
      return cached;
    }
  }
  auto block = file_->Read(entry.offset, entry.length);
  if (!block.ok()) {
    return block.status();
  }
  // The cached value is the block's own copy: a slice of the read would
  // pin the whole table, even after a compaction deletes it.
  auto shared = std::make_shared<const std::string>(*block);
  if (cache_ != nullptr) {
    cache_->Put(entry.cache_key, shared);
  }
  return shared;
}

Result<std::string> SstableReader::Get(std::string_view key) {
  if (index_.empty() || key < smallest_key() || key > largest_) {
    return NotFoundError("not in table range");
  }
  // The last block whose first key <= key (key >= the first block's).
  auto after = std::upper_bound(
      index_.begin() + 1, index_.end(), key,
      [](std::string_view k, const IndexEntry& e) { return k < e.first_key; });
  auto block = ReadBlock(*(after - 1));
  if (!block.ok()) {
    return block.status();
  }
  std::string_view b = **block;
  size_t pos = 0;
  std::string_view k, v;
  // Blocks are written in key order: the scan stops at the first key past
  // the target.
  while (GetLengthPrefixed(b, &pos, &k) && GetLengthPrefixed(b, &pos, &v)) {
    if (k == key) {
      return std::string(v);
    }
    if (k > key) {
      break;
    }
  }
  return NotFoundError("key absent from block");
}

Result<std::vector<SharedBytes>> SstableReader::ReadAllBlocks() {
  // Compaction inputs are background IO: they use the backend's bandwidth
  // but run on background threads, so they do not stall the write path.
  // The blocks alias the table's bytes for the length of the compaction.
  std::vector<SharedBytes> blocks;
  blocks.reserve(index_.size());
  for (const IndexEntry& entry : index_) {
    auto block = file_->ReadBackground(entry.offset, entry.length);
    if (!block.ok()) {
      return block.status();
    }
    blocks.push_back(std::move(*block));
  }
  return blocks;
}

namespace {

// Walks one run's entries in key order.
class RunCursor {
 public:
  explicit RunCursor(const std::vector<SharedBytes>* blocks)
      : blocks_(blocks) {
    Advance();
  }

  bool valid() const { return block_ < blocks_->size(); }
  const SstEntry& entry() const { return entry_; }

  void Advance() {
    for (; block_ < blocks_->size(); ++block_, pos_ = 0) {
      std::string_view b = (*blocks_)[block_];
      if (GetLengthPrefixed(b, &pos_, &entry_.key) &&
          GetLengthPrefixed(b, &pos_, &entry_.value)) {
        return;
      }
    }
  }

 private:
  const std::vector<SharedBytes>* blocks_;
  size_t block_ = 0;
  size_t pos_ = 0;
  SstEntry entry_;
};

}  // namespace

std::vector<SstEntry> MergeRuns(
    const std::vector<std::vector<SharedBytes>>& runs) {
  std::vector<RunCursor> cursors;
  cursors.reserve(runs.size());
  for (const auto& run : runs) {
    cursors.emplace_back(&run);
  }
  // Min-heap of live cursors by (key, run): for equal keys the newest run
  // pops first, and the older duplicates that follow it are skipped.
  auto pops_later = [&cursors](size_t a, size_t b) {
    int c = cursors[a].entry().key.compare(cursors[b].entry().key);
    return c != 0 ? c > 0 : a > b;
  };
  std::vector<size_t> heap;
  for (size_t i = 0; i < cursors.size(); ++i) {
    if (cursors[i].valid()) {
      heap.push_back(i);
    }
  }
  std::make_heap(heap.begin(), heap.end(), pops_later);
  std::vector<SstEntry> merged;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), pops_later);
    RunCursor& cursor = cursors[heap.back()];
    if (merged.empty() || merged.back().key != cursor.entry().key) {
      merged.push_back(cursor.entry());
    }
    cursor.Advance();
    if (cursor.valid()) {
      std::push_heap(heap.begin(), heap.end(), pops_later);
    } else {
      heap.pop_back();
    }
  }
  return merged;
}

}  // namespace splitft
