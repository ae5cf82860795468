// CRC32C (Castagnoli). Used by the WAL / SSTable / AOF formats to detect
// torn or partial writes — POSIX applications expect non-atomic writes and
// guard records with checksums (§4.5.1 of the paper).
#ifndef SRC_COMMON_CRC32C_H_
#define SRC_COMMON_CRC32C_H_

#include <cstddef>
#include <cstdint>
#include <string_view>

namespace splitft {

// Returns the CRC32C of data[0..n-1], extending `init_crc` (0 for a fresh
// computation). Runs the SSE4.2 CRC32 instruction when the CPU has it and
// a portable slicing-by-8 table kernel otherwise; both produce identical
// results.
uint32_t Crc32c(uint32_t init_crc, const void* data, size_t n);

// The kernels Crc32c chooses between, exposed so tests can check each one.
// A kernel folds data[0..n-1] into the raw CRC register `crc` (Crc32c
// applies the pre/post inversion around it).
namespace crc32c_internal {
using Kernel = uint32_t (*)(uint32_t crc, const void* data, size_t n);
uint32_t Portable(uint32_t crc, const void* data, size_t n);
// The hardware kernel, or nullptr when the build target or the CPU lacks
// SSE4.2.
Kernel Hardware();
}  // namespace crc32c_internal

inline uint32_t Crc32c(std::string_view data) {
  return Crc32c(0, data.data(), data.size());
}

// Masked CRC a la LevelDB: storing a CRC of data that itself contains CRCs
// can produce coincidental matches; masking avoids that.
inline uint32_t MaskCrc(uint32_t crc) {
  return ((crc >> 15) | (crc << 17)) + 0xa282ead8u;
}

inline uint32_t UnmaskCrc(uint32_t masked) {
  uint32_t rot = masked - 0xa282ead8u;
  return (rot >> 17) | (rot << 15);
}

}  // namespace splitft

#endif  // SRC_COMMON_CRC32C_H_
