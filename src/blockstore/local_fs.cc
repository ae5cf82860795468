#include "src/blockstore/local_fs.h"

#include <algorithm>

#include "src/common/bytes.h"
#include "src/common/record.h"

namespace splitft {
namespace {

constexpr uint32_t kFsMagic = 0x6c667331;  // "lfs1"

}  // namespace

Result<std::unique_ptr<LocalFs>> LocalFs::Mount(RemoteBlockDevice* device) {
  std::unique_ptr<LocalFs> fs(new LocalFs(device));
  RETURN_IF_ERROR(fs->LoadMetadata());
  return fs;
}

Status LocalFs::LoadMetadata() {
  // Metadata is serialized across the fixed metadata blocks: [magic]
  // followed by one checksummed record, its payload spanning blocks 0..n.
  std::string raw;
  for (uint64_t b = 0; b < kMetaBlocks; ++b) {
    auto block = device_->ReadBlock(b);
    if (!block.ok()) {
      return block.status();
    }
    raw += *block;
  }
  if (DecodeFixed32(raw.data()) != kFsMagic) {
    return OkStatus();  // fresh device: empty file system
  }
  std::string_view payload;
  switch (DecodeRecord(std::string_view(raw).substr(4), &payload)) {
    case RecordCheck::kOk:
      break;
    case RecordCheck::kTorn:
      return DataLossError("localfs metadata length out of range");
    case RecordCheck::kCorrupt:
      return DataLossError("localfs metadata checksum mismatch");
  }

  size_t pos = 0;
  if (payload.size() < 4) {
    return DataLossError("localfs metadata truncated");
  }
  uint32_t count = DecodeFixed32(payload.data());
  pos = 4;
  std::set<uint64_t> used;
  for (uint32_t i = 0; i < count; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(payload, &pos, &name) ||
        pos + 12 > payload.size()) {
      return DataLossError("localfs inode truncated");
    }
    Inode inode;
    inode.size = DecodeFixed64(payload.data() + pos);
    uint32_t blocks = DecodeFixed32(payload.data() + pos + 8);
    pos += 12;
    for (uint32_t j = 0; j < blocks; ++j) {
      if (pos + 8 > payload.size()) {
        return DataLossError("localfs extent list truncated");
      }
      uint64_t block = DecodeFixed64(payload.data() + pos);
      pos += 8;
      inode.blocks.push_back(block);
      used.insert(block);
      next_fresh_block_ = std::max(next_fresh_block_, block + 1);
    }
    files_[std::string(name)] = std::move(inode);
  }
  // Rebuild the free list from the gap between used blocks and the fresh
  // frontier.
  for (uint64_t b = kMetaBlocks; b < next_fresh_block_; ++b) {
    if (used.count(b) == 0) {
      free_blocks_.insert(b);
    }
  }
  return OkStatus();
}

Status LocalFs::SyncMetadata() {
  std::string payload;
  PutFixed32(&payload, static_cast<uint32_t>(files_.size()));
  for (const auto& [name, inode] : files_) {
    PutLengthPrefixed(&payload, name);
    PutFixed64(&payload, inode.size);
    PutFixed32(&payload, static_cast<uint32_t>(inode.blocks.size()));
    for (uint64_t block : inode.blocks) {
      PutFixed64(&payload, block);
    }
  }
  std::string raw;
  PutFixed32(&raw, kFsMagic);
  AppendRecord(&raw, payload);
  if (raw.size() > kMetaBlocks * kBlockBytes) {
    return ResourceExhaustedError("localfs metadata area full");
  }
  raw.resize(kMetaBlocks * kBlockBytes, '\0');
  for (uint64_t b = 0; b < kMetaBlocks; ++b) {
    RETURN_IF_ERROR(device_->WriteBlock(
        b, std::string_view(raw).substr(b * kBlockBytes, kBlockBytes)));
  }
  metadata_dirty_ = false;
  return OkStatus();
}

Result<uint64_t> LocalFs::AllocateBlock() {
  if (!free_blocks_.empty()) {
    uint64_t block = *free_blocks_.begin();
    free_blocks_.erase(free_blocks_.begin());
    return block;
  }
  if (next_fresh_block_ >= device_->block_count()) {
    return ResourceExhaustedError("device full");
  }
  return next_fresh_block_++;
}

Status LocalFs::Create(const std::string& name) {
  if (crashed_) {
    return FailedPreconditionError("file system crashed; re-mount");
  }
  if (files_.count(name) > 0) {
    return AlreadyExistsError("file exists: " + name);
  }
  files_[name] = Inode{};
  metadata_dirty_ = true;
  return OkStatus();
}

bool LocalFs::Exists(const std::string& name) const {
  return files_.count(name) > 0;
}

Status LocalFs::Unlink(const std::string& name) {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  for (uint64_t block : it->second.blocks) {
    free_blocks_.insert(block);
    page_cache_.erase(block);
    dirty_blocks_.erase(block);
  }
  files_.erase(it);
  metadata_dirty_ = true;
  return OkStatus();
}

std::vector<std::string> LocalFs::List(const std::string& prefix) const {
  std::vector<std::string> out;
  for (const auto& [name, inode] : files_) {
    if (name.rfind(prefix, 0) == 0) {
      out.push_back(name);
    }
  }
  return out;
}

Result<uint64_t> LocalFs::FileSize(const std::string& name) const {
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  return it->second.size;
}

Result<std::string> LocalFs::ReadFileBlock(const Inode& inode,
                                           uint64_t index) {
  if (index >= inode.blocks.size()) {
    return std::string(kBlockBytes, '\0');
  }
  uint64_t block = inode.blocks[index];
  auto cached = page_cache_.find(block);
  if (cached != page_cache_.end()) {
    return cached->second;
  }
  auto data = device_->ReadBlock(block);
  if (!data.ok()) {
    return data.status();
  }
  page_cache_[block] = *data;
  return *data;
}

Status LocalFs::Write(const std::string& name, uint64_t offset,
                      std::string_view data) {
  if (crashed_) {
    return FailedPreconditionError("file system crashed; re-mount");
  }
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  // Page-cache copy cost.
  device_->ChargeBufferedWrite(data.size());
  Inode& inode = it->second;
  uint64_t end = offset + data.size();
  while (inode.blocks.size() * kBlockBytes < end) {
    ASSIGN_OR_RETURN(uint64_t block, AllocateBlock());
    inode.blocks.push_back(block);
    // A freshly allocated block logically reads as zeros; seed the page
    // cache so the write path never fetches it from the device.
    page_cache_[block] = std::string(kBlockBytes, '\0');
    metadata_dirty_ = true;
  }
  size_t written = 0;
  while (written < data.size()) {
    uint64_t pos = offset + written;
    uint64_t index = pos / kBlockBytes;
    uint64_t in_block = pos % kBlockBytes;
    uint64_t chunk = std::min<uint64_t>(kBlockBytes - in_block,
                                        data.size() - written);
    ASSIGN_OR_RETURN(std::string block_data, ReadFileBlock(inode, index));
    block_data.replace(in_block, chunk, data.substr(written, chunk));
    uint64_t block = inode.blocks[index];
    page_cache_[block] = std::move(block_data);
    dirty_blocks_.insert(block);
    written += chunk;
  }
  if (end > inode.size) {
    inode.size = end;
    metadata_dirty_ = true;
  }
  return OkStatus();
}

Status LocalFs::Append(const std::string& name, std::string_view data) {
  ASSIGN_OR_RETURN(uint64_t size, FileSize(name));
  return Write(name, size, data);
}

Result<std::string> LocalFs::Read(const std::string& name, uint64_t offset,
                                  uint64_t len) {
  if (crashed_) {
    return FailedPreconditionError("file system crashed; re-mount");
  }
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  Inode& inode = it->second;
  if (offset >= inode.size) {
    return std::string();
  }
  len = std::min<uint64_t>(len, inode.size - offset);
  std::string out;
  out.reserve(len);
  while (out.size() < len) {
    uint64_t pos = offset + out.size();
    uint64_t index = pos / kBlockBytes;
    uint64_t in_block = pos % kBlockBytes;
    uint64_t chunk = std::min<uint64_t>(kBlockBytes - in_block,
                                        len - out.size());
    ASSIGN_OR_RETURN(std::string block_data, ReadFileBlock(inode, index));
    out += block_data.substr(in_block, chunk);
  }
  return out;
}

Status LocalFs::Fsync(const std::string& name) {
  if (crashed_) {
    return FailedPreconditionError("file system crashed; re-mount");
  }
  auto it = files_.find(name);
  if (it == files_.end()) {
    return NotFoundError("no such file: " + name);
  }
  // Write this file's dirty blocks to the device cache, persist metadata
  // if needed, then issue the device flush (the expensive part).
  for (uint64_t block : it->second.blocks) {
    if (dirty_blocks_.erase(block) > 0) {
      RETURN_IF_ERROR(device_->WriteBlock(block, page_cache_[block]));
    }
  }
  if (metadata_dirty_) {
    RETURN_IF_ERROR(SyncMetadata());
  }
  return device_->Flush();
}

void LocalFs::SimulateCrash() {
  page_cache_.clear();
  dirty_blocks_.clear();
  device_->DropCache();
  crashed_ = true;
}

}  // namespace splitft
