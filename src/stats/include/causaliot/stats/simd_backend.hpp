// Capability-dispatched SIMD backend for the CI-test word loops.
//
// Every conditional-independence test in TemporalPC bottoms out in three
// uint64 word-loop primitives (see stats/ci_context.hpp and
// stats/batch_ci.hpp):
//
//   * and_popcount(a, b)      — popcount of the AND of two columns,
//   * marginal_pass           — the level-0 multi-parent sweep that counts
//                               P(col) and P(col & y) for up to
//                               kMarginalPassMaxColumns parents while the
//                               y loads are shared,
//   * masked_pass             — the BatchCiContext counting pass: AND a
//                               prefix mask with one more column,
//                               optionally store the result (in place
//                               while a new set's prefix is rebuilt), and
//                               count P(mask) / P(mask & y) in the same
//                               sweep.
//
// This header is the stable facade over their per-ISA implementations
// (the HinaCloth sim::query_chosen pattern): the widest backend the CPU
// supports is probed once at startup and published as a single function-
// pointer table, so callers pay one pointer load + indirect call with no
// per-call dispatch branching. Every backend computes exact integer
// popcounts, so all of them are bit-identical by construction — which
// also means swapping the table mid-run (force_backend) can never change
// a statistic.
//
// Selection order: AVX-512 (VPOPCNTDQ) > AVX2 (VPSHUFB nibble-LUT) >
// NEON (CNT + pairwise ADD) > scalar. The CAUSALIOT_SIMD environment
// variable (scalar|avx2|avx512|neon) or force_backend() pins a specific
// backend; an unsupported request is refused (env: warn + keep the auto
// choice, force_backend: return false) so the process always runs a
// kernel set the hardware can execute. Backends whose ISA the compiler
// cannot target are compiled out entirely and report as unavailable.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

namespace causaliot::stats {

/// Word-buffer alignment (bytes) and stride (uint64 words) every SIMD
/// kernel may assume: buffers are 64-byte aligned and their word counts
/// are padded up to a multiple of kSimdWordStride with zero words, so a
/// 512-bit load never straddles the end of an allocation and no kernel
/// needs a scalar tail loop. Zero padding is count-neutral for all three
/// primitives (popcounts of padding are 0).
inline constexpr std::size_t kSimdWordAlign = 64;
inline constexpr std::size_t kSimdWordStride = 8;

/// Words rounded up to the padded storage size of the SIMD contract.
constexpr std::size_t padded_word_count(std::size_t words) {
  return (words + kSimdWordStride - 1) / kSimdWordStride * kSimdWordStride;
}

/// A 64-byte-aligned, zero-initialized uint64 buffer whose capacity is
/// padded to a multiple of kSimdWordStride. size() is the *padded* word
/// count; callers track their own logical length. Copies preserve the
/// padding contents (all zero unless a caller wrote into them).
class AlignedWords {
 public:
  AlignedWords() = default;
  /// Allocates padded_word_count(words) zeroed words.
  explicit AlignedWords(std::size_t words);
  AlignedWords(const AlignedWords& other);
  AlignedWords(AlignedWords&& other) noexcept;
  AlignedWords& operator=(const AlignedWords& other);
  AlignedWords& operator=(AlignedWords&& other) noexcept;
  ~AlignedWords();

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  std::uint64_t* data() { return data_; }
  const std::uint64_t* data() const { return data_; }
  std::uint64_t& operator[](std::size_t i) { return data_[i]; }
  const std::uint64_t& operator[](std::size_t i) const { return data_[i]; }

 private:
  std::uint64_t* data_ = nullptr;
  std::size_t size_ = 0;
};

namespace simd {

enum class Backend : std::uint8_t { kScalar, kAvx2, kAvx512, kNeon };

/// Parents a single marginal_pass call can count (accumulator pairs the
/// widest kernels keep live in registers per sweep).
inline constexpr std::size_t kMarginalPassMaxColumns = 4;

/// The three word-loop primitives. `words` must be a multiple of
/// kSimdWordStride and every pointer kSimdWordAlign-aligned (AlignedWords
/// and PackedColumn storage guarantee both).
struct Kernels {
  /// Returns popcount(a & b) over `words` words.
  std::uint64_t (*and_popcount)(const std::uint64_t* a, const std::uint64_t* b,
                                std::size_t words);
  /// For i < k (k <= kMarginalPassMaxColumns):
  ///   p[i] = popcount(cols[i]), p_y[i] = popcount(cols[i] & y),
  /// sharing the y loads across all k columns in one sweep.
  void (*marginal_pass)(const std::uint64_t* const* cols, std::size_t k,
                        const std::uint64_t* y, std::size_t words,
                        std::uint64_t* p, std::uint64_t* p_y);
  /// m[w] = prefix[w] & last[w] per word; stores m into `mask_out` when it
  /// is non-null (it may alias `prefix`: ANDing in place is allowed);
  /// accumulates *p = popcount(m), *p_y = popcount(m & y).
  void (*masked_pass)(const std::uint64_t* prefix, const std::uint64_t* last,
                      const std::uint64_t* y, std::uint64_t* mask_out,
                      std::size_t words, std::uint64_t* p, std::uint64_t* p_y);
};

/// The active kernel table: one relaxed pointer load, then indirect calls.
const Kernels& kernels();

/// The backend the active table implements.
Backend chosen();

/// Canonical lowercase name ("scalar", "avx2", "avx512", "neon").
std::string_view backend_name(Backend backend);

/// Inverse of backend_name; nullopt for anything else (the CAUSALIOT_SIMD
/// and --simd parser).
std::optional<Backend> parse_backend(std::string_view name);

/// True when the backend's translation unit was compiled in.
bool backend_compiled(Backend backend);

/// True when the backend is compiled in *and* the host CPU (and OS, for
/// AVX state) can execute it. kScalar is always supported.
bool backend_supported(Backend backend);

/// Every supported backend, widest first (the auto-selection order).
std::vector<Backend> available_backends();

/// Repoints the active table. Returns false (and changes nothing) when
/// the backend is not supported. Safe to call while kernels are in
/// flight: every backend is bit-identical, so any interleaving of old and
/// new tables computes the same counts.
bool force_backend(Backend backend);

/// The backend auto-selection would pick (ignoring any force/env pin).
Backend auto_backend();

}  // namespace simd

}  // namespace causaliot::stats
