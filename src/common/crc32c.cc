#include "src/common/crc32c.h"

#include <array>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <nmmintrin.h>
#define SPLITFT_CRC32C_HAVE_SSE42 1
#endif

namespace splitft {
namespace {

// Slicing-by-8 tables for the Castagnoli polynomial (reflected form
// 0x82f63b78), built at compile time. kTables[0] is the classic bytewise
// table; kTables[k][b] is the CRC of byte b followed by k zero bytes, so
// eight table lookups fold one 64-bit word.
using Crc32cTables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32cTables MakeTables() {
  Crc32cTables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0x82f63b78u ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t prev = t[k - 1][i];
      t[k][i] = (prev >> 8) ^ t[0][prev & 0xff];
    }
  }
  return t;
}

constexpr Crc32cTables kTables = MakeTables();

// Little-endian 64-bit load at any alignment, on any host byte order.
inline uint64_t LoadLe64(const uint8_t* p) {
  uint64_t v = 0;
  for (int i = 7; i >= 0; --i) {
    v = (v << 8) | p[i];
  }
  return v;
}

#ifdef SPLITFT_CRC32C_HAVE_SSE42
// The SSE4.2 CRC32 instruction computes exactly CRC32C. Compiled for
// SSE4.2 regardless of the build's target flags; only called after the
// runtime CPU check in crc32c_internal::Hardware().
__attribute__((target("sse4.2"))) uint32_t Sse42Kernel(uint32_t crc,
                                                       const void* data,
                                                       size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n > 0 && (reinterpret_cast<uintptr_t>(p) & 7) != 0) {
    crc = _mm_crc32_u8(crc, *p++);
    --n;
  }
  uint64_t wide = crc;
  while (n >= 8) {
    uint64_t v;
    std::memcpy(&v, p, sizeof(v));
    wide = _mm_crc32_u64(wide, v);
    p += 8;
    n -= 8;
  }
  crc = static_cast<uint32_t>(wide);
  while (n-- > 0) {
    crc = _mm_crc32_u8(crc, *p++);
  }
  return crc;
}
#endif

}  // namespace

namespace crc32c_internal {

uint32_t Portable(uint32_t crc, const void* data, size_t n) {
  const auto* p = static_cast<const uint8_t*>(data);
  while (n >= 8) {
    uint64_t v = LoadLe64(p) ^ crc;
    crc = kTables[7][v & 0xff] ^ kTables[6][(v >> 8) & 0xff] ^
          kTables[5][(v >> 16) & 0xff] ^ kTables[4][(v >> 24) & 0xff] ^
          kTables[3][(v >> 32) & 0xff] ^ kTables[2][(v >> 40) & 0xff] ^
          kTables[1][(v >> 48) & 0xff] ^ kTables[0][v >> 56];
    p += 8;
    n -= 8;
  }
  while (n-- > 0) {
    crc = kTables[0][(crc ^ *p++) & 0xff] ^ (crc >> 8);
  }
  return crc;
}

Kernel Hardware() {
  static const Kernel kernel = []() -> Kernel {
#ifdef SPLITFT_CRC32C_HAVE_SSE42
    __builtin_cpu_init();  // may run before constructors (static callers)
    if (__builtin_cpu_supports("sse4.2")) {
      return Sse42Kernel;
    }
#endif
    return nullptr;
  }();
  return kernel;
}

}  // namespace crc32c_internal

uint32_t Crc32c(uint32_t init_crc, const void* data, size_t n) {
  static const crc32c_internal::Kernel kernel = [] {
    crc32c_internal::Kernel hw = crc32c_internal::Hardware();
    return hw != nullptr ? hw : crc32c_internal::Portable;
  }();
  return kernel(init_crc ^ 0xffffffffu, data, n) ^ 0xffffffffu;
}

}  // namespace splitft
