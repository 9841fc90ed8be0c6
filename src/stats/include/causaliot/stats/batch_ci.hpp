// Batched multi-subset conditional-independence counting.
//
// TemporalPC's level-l loop tests the same (parent x, child y) pair
// against many conditioning subsets Z drawn from one candidate pool, and
// the per-subset kernels (stats/ci_context.hpp) re-scan every column for
// each subset. This context removes the rescans by working in the subset
// lattice instead: every cell of every stratum table is an integer
// combination of plain intersection counts
//
//   P(S) = #rows where all columns in S are 1,
//
// and the 2^|Z| stratum tables follow from the quads
// (P(T), P(T∪{y}), P(T∪{x}), P(T∪{x,y})) for T ⊆ Z by Möbius inversion
// over the lattice — exact integer arithmetic, so the assembled tables
// (and every statistic computed from them) are bit-identical to direct
// counting. The context memoizes the pair (P(S), P(S∪{y})) by column
// set, which is where the batching pays off:
//
//   * Lattice marginalization: a level-l test usually only has to count
//     its two top sets Z and Z∪{x} — every strict subset quad was already
//     counted by an earlier level or an earlier subset of the batch, and
//     marginalizing down is table arithmetic, not a column scan. A set
//     that is not memoized yet is counted by ANDing its columns into one
//     reused scratch mask (|S| - 1 word passes); masks are never stored.
//   * Multi-key accumulation: prepare_marginals() counts the level-0
//     tables of many parents per pass over the words, keeping one
//     accumulator pair per parent live while the y column loads are
//     shared.
//
// A test costs O(2^|Z|) memo lookups plus its new sets' word passes,
// against the per-row kernel's O(|Z| * rows), so the lattice serves every
// |Z| <= kBatchConditioningLimit. Under the miner's small-sample guard a
// counted test has 2^|Z| <= rows / guard, which bounds the lookups by
// the trace length; on the 28-day paper-scale trace every level the
// miner reaches (<= 10) is inside the limit.
//
// One context per (child, worker): it binds y once and is not
// thread-safe. Memoization spans levels, so a context must live for a
// whole Algorithm 1 run to realize the cross-level sharing.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "causaliot/stats/ci_context.hpp"
#include "causaliot/stats/cmh.hpp"
#include "causaliot/stats/gsquare.hpp"

namespace causaliot::stats {

/// Index of a packed column in the universe a BatchCiContext is bound to.
using ColumnId = std::uint32_t;

/// Largest conditioning-set size count_strata accepts. Measured per test
/// on 150k random rows (the paper-scale trace has ~157k; AVX-512 host):
/// the lattice takes 46 us vs the per-row kernel's 2.2 ms at |Z| = 7,
/// 359 us vs 2.6 ms at 10, 2.0 vs 4.5 ms at 12, and loses past that
/// (5.9 vs 4.9 ms at 13) as the 2^|Z| memo lookups dominate.
inline constexpr std::size_t kBatchConditioningLimit = 12;

class BatchCiContext {
 public:
  /// Binds to a shared universe of equally-sized packed columns and the
  /// outcome column y (the miner's present-time child). The universe must
  /// outlive the context.
  BatchCiContext(std::span<const PackedColumn> universe, ColumnId y);

  std::size_t sample_count() const { return n_; }
  ColumnId y() const { return y_; }

  /// Word passes executed so far: one full sweep over the packed words
  /// per multi-key chunk, per new memo entry's counting pass, and per
  /// column ANDed into the scratch prefix mask on the way there (masks
  /// are rebuilt, not stored). Monotone; feeds the
  /// mining_ci_batch_passes_total counter.
  std::size_t pass_count() const { return passes_; }

  /// Multi-key marginal sweep: counts the level-0 (empty conditioning
  /// set) tables for every listed parent that is not cached yet,
  /// kMarginalBatch parents per pass over the words. Purely a batching
  /// accelerator — count_strata computes the same values on demand.
  void prepare_marginals(std::span<const ColumnId> xs);

  /// Stratum-major contingency counts for x ⟂ y | {universe[z]...}:
  /// counts[key * 4 + xv * 2 + yv] with key bit j = value of column z[j],
  /// exactly as CiTestContext::count_strata produces (always dense). The
  /// view is valid until the next call. |z| <= kBatchConditioningLimit;
  /// ids must be distinct and exclude x.
  std::span<const std::uint64_t> count_strata(ColumnId x,
                                              std::span<const ColumnId> z);

  /// Drops every memoized intersection count (bench/test hook for
  /// measuring cold batches).
  void reset_cache();

 private:
  // Memoized intersection of one column set S: p = P(S),
  // p_y = P(S ∪ {y}).
  struct Entry {
    bool ready = false;
    std::uint64_t p = 0;
    std::uint64_t p_y = 0;
  };
  struct KeyHash {
    std::size_t operator()(const std::vector<ColumnId>& key) const noexcept {
      std::size_t h = 1469598103934665603ULL;
      for (const ColumnId id : key) {
        h = (h ^ id) * 1099511628211ULL;
      }
      return h;
    }
  };

  Entry& locate(std::span<const ColumnId> ids);
  const Entry& ensure_counts(std::span<const ColumnId> ids);
  const std::uint64_t* words(ColumnId id) const {
    return universe_[id].padded_words().data();
  }

  std::span<const PackedColumn> universe_;
  ColumnId y_ = 0;
  std::size_t n_ = 0;
  std::size_t padded_words_ = 0;  // SIMD-contract sweep length
  std::uint64_t p_y_ = 0;
  std::size_t passes_ = 0;

  std::vector<Entry> singles_;  // by column id
  // |S| == 2, indexed [min][max]; rows allocated on first use.
  std::vector<std::unique_ptr<std::vector<Entry>>> pairs_;
  std::unordered_map<std::vector<ColumnId>, Entry, KeyHash> higher_;

  // Scratch AND of a new set's columns but the last, in SIMD-contract
  // storage (aligned + stride-padded, see stats/simd_backend.hpp) because
  // it feeds the counting pass as an input; its padding stays zero since
  // it is the AND of zero-padded columns.
  AlignedWords prefix_;
  std::vector<std::uint64_t> table_;      // assembled stratum-major counts
  std::vector<std::uint32_t> order_;      // scratch: z positions by id
  std::vector<ColumnId> t_ids_;           // scratch: ids of the lattice term
  std::vector<ColumnId> u_ids_;           // scratch: term ids ∪ {x}
  std::vector<ColumnId> key_;             // scratch: map lookup key
  std::vector<ColumnId> pending_;         // scratch: prepare_marginals
};

/// Batched equivalent of the packed-kernel g_square_test: bit-identical
/// statistic, dof, p-value, and skip behaviour. y is the context's bound
/// column.
GSquareResult g_square_test(BatchCiContext& batch, ColumnId x,
                            std::span<const ColumnId> z,
                            const GSquareOptions& options = {});

/// Batched equivalent of the packed-kernel cmh_test.
CmhResult cmh_test(BatchCiContext& batch, ColumnId x,
                   std::span<const ColumnId> z);

}  // namespace causaliot::stats
