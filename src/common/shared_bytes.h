// Reference-counted byte slices and the copy-on-write buffer that hands
// them out (DESIGN.md §15).
//
// A SharedBytes is an immutable view plus a reference to the heap string
// it views, so a reader can keep bytes alive across layers — a DFS read,
// an NCL local-buffer read, a bulk RDMA WRITE in flight — without copying
// them. A CowBuffer owns one contiguous, growable string: readers take
// slices of it, and a mutation copies the string first only while some
// slice is still outstanding; otherwise it mutates in place.
#ifndef SRC_COMMON_SHARED_BYTES_H_
#define SRC_COMMON_SHARED_BYTES_H_

#include <algorithm>
#include <cstddef>
#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace splitft {

class SharedBytes {
 public:
  SharedBytes() = default;
  // Takes ownership of `bytes`; the slice views all of them.
  explicit SharedBytes(std::string bytes)
      : owner_(std::make_shared<const std::string>(std::move(bytes))),
        view_(*owner_) {}

  const char* data() const { return view_.data(); }
  size_t size() const { return view_.size(); }
  bool empty() const { return view_.empty(); }
  char operator[](size_t i) const { return view_[i]; }
  std::string_view view() const { return view_; }
  // Implicit, so parsers taking std::string_view read a slice in place.
  operator std::string_view() const { return view_; }  // NOLINT
  // Copying the bytes out is always spelled out.
  explicit operator std::string() const { return std::string(view_); }

  // The whole string this slice keeps alive (null for an empty default
  // slice); host-memory accounting counts each owner once.
  const std::string* owner() const { return owner_.get(); }

  // Bytes [offset, offset + len) of this slice, clamped to its end,
  // sharing its owner.
  SharedBytes Slice(size_t offset, size_t len) const {
    SharedBytes out;
    out.owner_ = owner_;
    out.view_ = view_.substr(std::min(offset, view_.size()), len);
    return out;
  }

  friend bool operator==(const SharedBytes& a, std::string_view b) {
    return a.view_ == b;
  }
  friend std::ostream& operator<<(std::ostream& os, const SharedBytes& b) {
    return os << b.view_;
  }

 private:
  friend class CowBuffer;

  std::shared_ptr<const std::string> owner_;
  std::string_view view_;
};

class CowBuffer {
 public:
  size_t size() const { return bytes_ == nullptr ? 0 : bytes_->size(); }
  // Valid until the next mutation; a reader that keeps bytes takes a Slice.
  std::string_view view() const {
    return bytes_ == nullptr ? std::string_view() : std::string_view(*bytes_);
  }
  // Bytes [offset, offset + len), clamped to the end, aliasing the buffer.
  SharedBytes Slice(size_t offset, size_t len) const {
    SharedBytes out;
    out.owner_ = bytes_;
    out.view_ = view().substr(std::min(offset, size()), len);
    return out;
  }

  // pwrite: writes `data` at `offset`, zero-filling any gap past the end.
  void Write(size_t offset, std::string_view data) {
    std::string& bytes = Mutable(offset + data.size());
    if (bytes.size() < offset + data.size()) {
      bytes.resize(offset + data.size(), '\0');
    }
    bytes.replace(offset, data.size(), data);
  }
  void Clear() {
    if (Shared()) {
      bytes_.reset();
    } else if (bytes_ != nullptr) {
      bytes_->clear();  // keeps the capacity, as std::string::clear does
    }
  }
  void Assign(std::string bytes) {
    bytes_ = std::make_shared<std::string>(std::move(bytes));
  }
  // Empties the buffer and returns its string, capacity included, when no
  // slice shares it; a shared string stays with its slices and an empty
  // one is returned.
  std::string Release() {
    std::string out;
    if (bytes_ != nullptr && !Shared()) {
      out.swap(*bytes_);
    }
    bytes_.reset();
    return out;
  }

 private:
  // True while a slice (or a copy of this buffer) references the bytes.
  bool Shared() const { return bytes_ != nullptr && bytes_.use_count() > 1; }

  // The string to mutate, about to hold at least `reserve` bytes: copied
  // first when shared, so outstanding slices keep the bytes they viewed.
  // The copy keeps the source's capacity, so appends after a copy grow it
  // as they would have grown the source instead of copying it again.
  std::string& Mutable(size_t reserve) {
    if (bytes_ == nullptr) {
      bytes_ = std::make_shared<std::string>();
    } else if (Shared()) {
      auto copy = std::make_shared<std::string>();
      copy->reserve(std::max(reserve, bytes_->capacity()));
      copy->append(*bytes_);
      bytes_ = std::move(copy);
    }
    return *bytes_;
  }

  std::shared_ptr<std::string> bytes_;
};

}  // namespace splitft

#endif  // SRC_COMMON_SHARED_BYTES_H_
