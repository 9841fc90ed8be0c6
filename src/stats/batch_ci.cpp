#include "causaliot/stats/batch_ci.hpp"

#include <algorithm>

#include "causaliot/util/check.hpp"
#include "ci_from_counts.hpp"

namespace causaliot::stats {

// All word passes below go through the capability-dispatched SIMD facade
// (stats/simd_backend.hpp). Parents per prepare_marginals pass therefore
// match the kernel contract's kMarginalPassMaxColumns: enough accumulator
// pairs to hide the popcount latency chain, few enough to stay in
// registers on every backend.

BatchCiContext::BatchCiContext(std::span<const PackedColumn> universe,
                               ColumnId y)
    : universe_(universe), y_(y) {
  CAUSALIOT_CHECK_MSG(!universe.empty(), "empty column universe");
  CAUSALIOT_CHECK_MSG(y < universe.size(), "y column out of range");
  n_ = universe[y].size();
  padded_words_ = universe_[y].padded_words().size();
  for (const PackedColumn& column : universe_) {
    CAUSALIOT_CHECK_MSG(column.size() == n_, "column length mismatch");
  }
  singles_.resize(universe_.size());
  pairs_.resize(universe_.size());
  prefix_ = AlignedWords(padded_words_);
  p_y_ = simd::kernels().and_popcount(words(y_), words(y_), padded_words_);
  passes_ = 1;
}

void BatchCiContext::reset_cache() {
  std::fill(singles_.begin(), singles_.end(), Entry{});
  std::fill(pairs_.begin(), pairs_.end(), nullptr);
  higher_.clear();
}

BatchCiContext::Entry& BatchCiContext::locate(std::span<const ColumnId> ids) {
  if (ids.size() == 1) return singles_[ids[0]];
  if (ids.size() == 2) {
    auto& row = pairs_[ids[0]];
    if (!row) row = std::make_unique<std::vector<Entry>>(universe_.size());
    return (*row)[ids[1]];
  }
  key_.assign(ids.begin(), ids.end());
  return higher_[key_];
}

// Counts P(S) and P(S ∪ {y}) for the sorted, non-empty id set S on first
// use. Memo references stay valid across inserts (node-based map, fixed
// singles_ vector, heap-allocated pair rows).
const BatchCiContext::Entry& BatchCiContext::ensure_counts(
    std::span<const ColumnId> ids) {
  Entry& entry = locate(ids);
  if (entry.ready) return entry;
  const simd::Kernels& kernels = simd::kernels();
  const std::uint64_t* y_words = words(y_);
  if (ids.size() == 1) {
    const std::uint64_t* cols[1] = {words(ids[0])};
    kernels.marginal_pass(cols, 1, y_words, padded_words_, &entry.p,
                          &entry.p_y);
  } else {
    // AND every column but the last into the scratch prefix (in place),
    // then count the last column's pass against it.
    const std::uint64_t* prefix = words(ids[0]);
    for (std::size_t i = 1; i + 1 < ids.size(); ++i) {
      std::uint64_t unused_p = 0;
      std::uint64_t unused_p_y = 0;
      kernels.masked_pass(prefix, words(ids[i]), y_words, prefix_.data(),
                          padded_words_, &unused_p, &unused_p_y);
      prefix = prefix_.data();
      ++passes_;
    }
    kernels.masked_pass(prefix, words(ids.back()), y_words, nullptr,
                        padded_words_, &entry.p, &entry.p_y);
  }
  entry.ready = true;
  ++passes_;
  return entry;
}

void BatchCiContext::prepare_marginals(std::span<const ColumnId> xs) {
  pending_.clear();
  for (const ColumnId x : xs) {
    CAUSALIOT_CHECK_MSG(x < universe_.size(), "column id out of range");
    if (!singles_[x].ready) pending_.push_back(x);
  }
  constexpr std::size_t kBatch = simd::kMarginalPassMaxColumns;
  for (std::size_t base = 0; base < pending_.size(); base += kBatch) {
    const std::size_t k = std::min(kBatch, pending_.size() - base);
    const std::uint64_t* cols[kBatch] = {};
    std::uint64_t p[kBatch] = {};
    std::uint64_t p_y[kBatch] = {};
    for (std::size_t i = 0; i < k; ++i) cols[i] = words(pending_[base + i]);
    simd::kernels().marginal_pass(cols, k, words(y_), padded_words_, p, p_y);
    for (std::size_t i = 0; i < k; ++i) {
      Entry& entry = singles_[pending_[base + i]];
      entry.p = p[i];
      entry.p_y = p_y[i];
      entry.ready = true;
    }
    ++passes_;
  }
}

std::span<const std::uint64_t> BatchCiContext::count_strata(
    ColumnId x, std::span<const ColumnId> z) {
  const std::size_t l = z.size();
  CAUSALIOT_CHECK_MSG(l <= kBatchConditioningLimit,
                      "conditioning set too large for the batched kernel");
  CAUSALIOT_CHECK_MSG(x < universe_.size(), "column id out of range");
  for (const ColumnId id : z) {
    CAUSALIOT_CHECK_MSG(id < universe_.size(), "column id out of range");
    CAUSALIOT_CHECK_MSG(id != x, "conditioning set contains x");
  }
  // Positions of z in ascending id order: walking them keeps every
  // lattice term's id list sorted (the memo key) without a per-term sort.
  order_.resize(l);
  for (std::uint32_t j = 0; j < l; ++j) order_[j] = j;
  std::sort(order_.begin(), order_.end(),
            [&](std::uint32_t a, std::uint32_t b) { return z[a] < z[b]; });
  for (std::size_t k = 1; k < l; ++k) {
    CAUSALIOT_CHECK_MSG(z[order_[k - 1]] != z[order_[k]],
                        "duplicate conditioning column");
  }

  const std::size_t stratum_count = std::size_t{1} << l;
  table_.resize(stratum_count * 4);

  // Superset pass: table_[t] gets the quad of lattice term T =
  // {z[j] : bit j of t}, expressed as 2x2 cells of (x, y) within the rows
  // where all of T is 1. Unsigned wrap-around in the subtractions is
  // fine — every final cell is an exact non-negative count.
  for (std::size_t t = 0; t < stratum_count; ++t) {
    std::uint64_t p_t;
    std::uint64_t p_ty;
    std::uint64_t p_tx;
    std::uint64_t p_txy;
    if (t == 0) {
      const ColumnId x_ids[1] = {x};
      const Entry& ex = ensure_counts(x_ids);
      p_t = n_;
      p_ty = p_y_;
      p_tx = ex.p;
      p_txy = ex.p_y;
    } else {
      t_ids_.clear();
      u_ids_.clear();
      bool x_placed = false;
      for (const std::uint32_t j : order_) {
        if ((t >> j & 1U) == 0) continue;
        if (!x_placed && x < z[j]) {
          u_ids_.push_back(x);
          x_placed = true;
        }
        t_ids_.push_back(z[j]);
        u_ids_.push_back(z[j]);
      }
      if (!x_placed) u_ids_.push_back(x);
      const Entry& et = ensure_counts(t_ids_);
      const Entry& eu = ensure_counts(u_ids_);
      p_t = et.p;
      p_ty = et.p_y;
      p_tx = eu.p;
      p_txy = eu.p_y;
    }
    const std::uint64_t c01 = p_ty - p_txy;
    table_[t * 4 + 0] = (p_t - p_tx) - c01;
    table_[t * 4 + 1] = c01;
    table_[t * 4 + 2] = p_tx - p_txy;
    table_[t * 4 + 3] = p_txy;
  }

  // Möbius inversion over the lattice turns superset quads into exact
  // per-stratum counts in place: after processing bit j, table_[t] counts
  // rows matching T on every processed coordinate instead of dominating
  // it.
  for (std::size_t j = 0; j < l; ++j) {
    const std::size_t bit = std::size_t{1} << j;
    for (std::size_t t = 0; t < stratum_count; ++t) {
      if ((t & bit) != 0) continue;
      for (std::size_t c = 0; c < 4; ++c) {
        table_[t * 4 + c] -= table_[(t | bit) * 4 + c];
      }
    }
  }
  return table_;
}

GSquareResult g_square_test(BatchCiContext& batch, ColumnId x,
                            std::span<const ColumnId> z,
                            const GSquareOptions& options) {
  GSquareResult result;
  if (internal::g_square_preamble(batch.sample_count(), z.size(), options,
                                  result)) {
    return result;
  }
  const std::span<const std::uint64_t> counts = batch.count_strata(x, z);
  return internal::g_square_from_counts({counts, {}, true},
                                        batch.sample_count());
}

CmhResult cmh_test(BatchCiContext& batch, ColumnId x,
                   std::span<const ColumnId> z) {
  if (batch.sample_count() == 0) return {};
  const std::span<const std::uint64_t> counts = batch.count_strata(x, z);
  return internal::cmh_from_counts({counts, {}, true}, batch.sample_count());
}

}  // namespace causaliot::stats
