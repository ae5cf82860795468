#include "src/apps/kvstore/wal.h"

#include "src/common/record.h"

namespace splitft {

std::string WriteAheadLog::EncodeRecord(const std::vector<KvWrite>& batch) {
  std::string payload;
  PutKvList(&payload, batch);
  std::string record;
  AppendRecord(&record, payload);
  return record;
}

Status WriteAheadLog::AppendBatch(const std::vector<KvWrite>& batch,
                                  bool sync) {
  RETURN_IF_ERROR(file_->Append(EncodeRecord(batch)));
  if (sync) {
    return file_->Sync();
  }
  return OkStatus();
}

int WriteAheadLog::Replay(
    std::string_view raw,
    const std::function<void(std::string_view, std::string_view)>& apply) {
  int batches = 0;
  ForEachRecord(raw, [&](std::string_view payload) {
    size_t pos = 0;
    if (!ForEachKv(payload, &pos, apply)) {
      return false;
    }
    batches++;
    return true;
  });
  return batches;
}

}  // namespace splitft
