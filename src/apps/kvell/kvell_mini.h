// Mini-KVell (§6 "Supporting Non-Log Files and Applications"): a
// key-value store that does NOT log. Records live in fixed-size slots of
// one large data file and every update is a small random in-place write —
// the access pattern the paper's discussion singles out as painful for
// the DFT setting.
//
// Modes:
//   kStrong  — each slot write is synchronously fsynced to the dfs
//              (random small writes: the worst case for the dfs);
//   kWeak    — slot writes are buffered and flushed lazily (can lose
//              acknowledged data);
//   kSplitFt — the data file is opened with the fine-grained splitting
//              extension: small random writes are absorbed by an NCL
//              journal and periodically checkpointed to the dfs as one
//              large write ("NCL can act as a faster tier to absorb the
//              random writes and then write large chunks to dfs").
#ifndef SRC_APPS_KVELL_KVELL_MINI_H_
#define SRC_APPS_KVELL_KVELL_MINI_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>

#include "src/apps/storage_app.h"
#include "src/sim/simulation.h"
#include "src/splitft/split_fs.h"

namespace splitft {

struct KvellOptions {
  DurabilityMode mode = DurabilityMode::kSplitFt;
  std::string dir = "/kvell";
  uint64_t slot_bytes = 256;   // fixed record slot (key+value+header)
  uint64_t slot_count = 4096;  // data file capacity in slots
  // NCL journal reserved when mode == kSplitFt.
  uint64_t journal_bytes = 4 << 20;
};

class KvellMini : public StorageApp {
 public:
  static Result<std::unique_ptr<KvellMini>> Open(SplitFs* fs, Simulation* sim,
                                                 const SimParams* params,
                                                 KvellOptions options);
  ~KvellMini() override;

  Status Put(std::string_view key, std::string_view value) override;
  Result<std::string> Get(std::string_view key) override;
  Status Delete(std::string_view key);
  bool supports_batching() const override { return false; }
  std::string name() const override { return "kvell-mini"; }
  ObsContext obs() const override { return fs_->obs(); }

  size_t live_records() const { return index_.size(); }

 private:
  KvellMini(SplitFs* fs, Simulation* sim, const SimParams* params,
            KvellOptions options);

  // Slot layout: [used (1)][klen (4)][key][vlen (4)][value], zero-padded.
  std::string EncodeSlot(std::string_view key, std::string_view value,
                         bool used) const;
  Status RebuildIndexFromFile();
  Result<uint64_t> SlotFor(std::string_view key, bool allocate);

  SplitFs* fs_;
  Simulation* sim_;
  const SimParams* params_;
  KvellOptions options_;
  std::unique_ptr<SplitFile> data_;
  // In-memory index (KVell keeps all indexes in memory): key -> slot.
  std::unordered_map<std::string, uint64_t> index_;
  std::vector<uint64_t> free_slots_;
  uint64_t next_fresh_slot_ = 0;
};

}  // namespace splitft

#endif  // SRC_APPS_KVELL_KVELL_MINI_H_
