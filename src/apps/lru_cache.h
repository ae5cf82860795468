// Byte-budgeted LRU cache used as the applications' block/page cache
// (the paper sizes it at 30% of the dataset, §5).
//
// Values are shared immutable strings: a hit hands out the cached value
// itself instead of a copy, and a value handed out stays valid after the
// cache evicts it. The index is keyed by views of the keys the entries
// own, so lookups by string_view allocate nothing.
#ifndef SRC_APPS_LRU_CACHE_H_
#define SRC_APPS_LRU_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>

namespace splitft {

class LruCache {
 public:
  using Value = std::shared_ptr<const std::string>;

  explicit LruCache(uint64_t capacity_bytes)
      : capacity_bytes_(capacity_bytes) {}

  // Inserts or refreshes an entry, evicting LRU entries over budget.
  void Put(std::string_view key, Value value) {
    Erase(key);
    uint64_t bytes = key.size() + value->size();
    if (bytes > capacity_bytes_) {
      return;  // would never fit
    }
    entries_.push_front(Entry{std::string(key), std::move(value)});
    index_.emplace(entries_.front().key, entries_.begin());
    used_bytes_ += bytes;
    while (used_bytes_ > capacity_bytes_ && !entries_.empty()) {
      const Entry& back = entries_.back();
      used_bytes_ -= EntryBytes(back);
      index_.erase(back.key);
      entries_.pop_back();
      evictions_++;
    }
  }

  // Returns the value and refreshes recency, or nullptr on miss.
  Value Get(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      misses_++;
      return nullptr;
    }
    hits_++;
    entries_.splice(entries_.begin(), entries_, it->second);
    return it->second->value;
  }

  void Erase(std::string_view key) {
    auto it = index_.find(key);
    if (it == index_.end()) {
      return;
    }
    auto entry = it->second;
    used_bytes_ -= EntryBytes(*entry);
    index_.erase(it);  // before the key its view points into
    entries_.erase(entry);
  }

  void Clear() {
    index_.clear();
    entries_.clear();
    used_bytes_ = 0;
  }

  uint64_t used_bytes() const { return used_bytes_; }
  uint64_t capacity_bytes() const { return capacity_bytes_; }
  size_t size() const { return entries_.size(); }
  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t evictions() const { return evictions_; }

 private:
  struct Entry {
    std::string key;
    Value value;
  };

  static uint64_t EntryBytes(const Entry& entry) {
    return entry.key.size() + entry.value->size();
  }

  uint64_t capacity_bytes_;
  uint64_t used_bytes_ = 0;
  std::list<Entry> entries_;  // MRU first
  // Keys view entries_' own key strings, which list nodes never move.
  std::unordered_map<std::string_view, std::list<Entry>::iterator> index_;
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t evictions_ = 0;
};

}  // namespace splitft

#endif  // SRC_APPS_LRU_CACHE_H_
