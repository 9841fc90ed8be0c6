// Property tests for the batched multi-subset CI kernel: the batched
// path must be *bit-identical* to the per-subset kernels (packed and
// byte), because the miner's pruning decisions compare p-values against
// alpha and the determinism suite diffs whole DIGs.
#include "causaliot/stats/batch_ci.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "causaliot/stats/cmh.hpp"
#include "causaliot/stats/gsquare.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/rng.hpp"

namespace causaliot::stats {
namespace {

using Column = std::vector<std::uint8_t>;

std::vector<Column> random_columns(std::size_t count, std::size_t n,
                                   util::Rng& rng, double ones_fraction) {
  std::vector<Column> columns(count, Column(n));
  for (auto& column : columns) {
    for (auto& value : column) {
      value = static_cast<std::uint8_t>(rng.bernoulli(ones_fraction));
    }
  }
  return columns;
}

std::vector<PackedColumn> pack_all(const std::vector<Column>& columns) {
  std::vector<PackedColumn> packed;
  packed.reserve(columns.size());
  for (const Column& column : columns) packed.emplace_back(column);
  return packed;
}

// Exhaustive bit-for-bit comparison of batched vs per-subset results for
// every (x, Z) drawn from a pool of `candidates` columns besides y, every
// |Z| = 0..candidates-1, one statistic. The packed kernel is compared up
// to kPackedConditioningLimit, the byte kernel at every depth.
void expect_batched_matches_per_subset(std::size_t n, std::uint64_t seed,
                                       bool use_cmh,
                                       std::size_t candidates = 7,
                                       double guard = 0.0) {
  util::Rng rng(seed);
  const std::size_t column_count = candidates + 1;  // y + candidates
  const std::vector<Column> columns =
      random_columns(column_count, n, rng, 0.35);
  const std::vector<PackedColumn> packed = pack_all(columns);
  const ColumnId y = 0;
  const GSquareOptions options{guard};

  BatchCiContext batch({packed.data(), packed.size()}, y);
  CiTestContext context;

  for (std::size_t level = 0; level + 2 <= column_count; ++level) {
    for (ColumnId x = 1; x < column_count; ++x) {
      // All |level|-subsets of the remaining columns, encoded as a bitmask
      // over {1..candidates} \ {x}.
      std::vector<ColumnId> others;
      for (ColumnId c = 1; c < column_count; ++c) {
        if (c != x) others.push_back(c);
      }
      std::vector<bool> take(others.size(), false);
      std::fill(take.begin(), take.begin() + static_cast<long>(level), true);
      // Iterate combinations via prev_permutation over the selector.
      do {
        std::vector<ColumnId> z_ids;
        std::vector<const PackedColumn*> z_packed;
        std::vector<std::span<const std::uint8_t>> z_raw;
        for (std::size_t i = 0; i < others.size(); ++i) {
          if (!take[i]) continue;
          z_ids.push_back(others[i]);
          z_packed.push_back(&packed[others[i]]);
          z_raw.push_back(columns[others[i]]);
        }
        const bool packed_fits = level <= kPackedConditioningLimit;
        if (use_cmh) {
          const CmhResult batched = cmh_test(batch, x, z_ids);
          std::vector<CmhResult> references = {
              cmh_test(columns[x], columns[y], z_raw, context)};
          if (packed_fits) {
            references.push_back(
                cmh_test(packed[x], packed[y], z_packed, context));
          }
          for (const CmhResult& other : references) {
            EXPECT_EQ(batched.statistic, other.statistic) << "l=" << level;
            EXPECT_EQ(batched.p_value, other.p_value);
            EXPECT_EQ(batched.sample_count, other.sample_count);
            EXPECT_EQ(batched.informative_strata, other.informative_strata);
          }
        } else {
          const GSquareResult batched =
              g_square_test(batch, x, z_ids, options);
          std::vector<GSquareResult> references = {
              g_square_test(columns[x], columns[y], z_raw, options, context)};
          if (packed_fits) {
            references.push_back(g_square_test(
                packed[x], packed[y], z_packed, options, context));
          }
          for (const GSquareResult& other : references) {
            EXPECT_EQ(batched.statistic, other.statistic) << "l=" << level;
            EXPECT_EQ(batched.dof, other.dof);
            EXPECT_EQ(batched.p_value, other.p_value);
            EXPECT_EQ(batched.sample_count, other.sample_count);
            EXPECT_EQ(batched.skipped_insufficient_data,
                      other.skipped_insufficient_data);
          }
        }
      } while (std::prev_permutation(take.begin(), take.end()));
    }
  }
}

TEST(BatchCi, GSquareMatchesPerSubsetBitForBit) {
  // Odd length exercises the partial tail word of the packed columns.
  expect_batched_matches_per_subset(997, 11, /*use_cmh=*/false);
  expect_batched_matches_per_subset(2048, 12, /*use_cmh=*/false);
}

TEST(BatchCi, CmhMatchesPerSubsetBitForBit) {
  expect_batched_matches_per_subset(997, 21, /*use_cmh=*/true);
  expect_batched_matches_per_subset(1500, 22, /*use_cmh=*/true);
}

// Past the packed kernel's depth the lattice is compared against the
// per-row byte kernel, whose tables turn sparse above 256 strata: every
// subset of 10 candidates, so |Z| runs to 10.
TEST(BatchCi, DeepGSquareMatchesByteKernelBitForBit) {
  expect_batched_matches_per_subset(997, 13, /*use_cmh=*/false,
                                    /*candidates=*/11);
}

TEST(BatchCi, DeepCmhMatchesByteKernelBitForBit) {
  expect_batched_matches_per_subset(997, 23, /*use_cmh=*/true,
                                    /*candidates=*/11);
}

// A guard of 10 samples per dof skips |Z| >= 7 at n = 997: the skips at
// depth must match the byte kernel's.
TEST(BatchCi, DeepGuardSkipsMatchByteKernel) {
  expect_batched_matches_per_subset(997, 14, /*use_cmh=*/false,
                                    /*candidates=*/11, /*guard=*/10.0);
}

// Column ids past 63: memo keys must not assume a 64-column universe.
TEST(BatchCi, WideUniverseMatchesByteKernelAtDepth) {
  util::Rng rng(15);
  constexpr std::size_t kColumns = 80;
  const std::vector<Column> columns = random_columns(kColumns, 1200, rng, 0.4);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  CiTestContext context;
  const std::vector<ColumnId> pool = {64, 3,  79, 65, 40, 71,
                                      66, 68, 10, 77, 63, 1};
  for (const ColumnId x : {ColumnId{70}, ColumnId{2}, ColumnId{64}}) {
    for (std::size_t level = 0; level <= kBatchConditioningLimit; ++level) {
      std::vector<ColumnId> z_ids;
      std::vector<std::span<const std::uint8_t>> z_raw;
      for (const ColumnId id : pool) {
        if (z_ids.size() == level) break;
        if (id == x) continue;
        z_ids.push_back(id);
        z_raw.push_back(columns[id]);
      }
      if (z_ids.size() < level) break;
      const GSquareResult batched = g_square_test(batch, x, z_ids);
      const GSquareResult direct =
          g_square_test(columns[x], columns[0], z_raw, {}, context);
      EXPECT_EQ(batched.statistic, direct.statistic) << "l=" << level;
      EXPECT_EQ(batched.dof, direct.dof) << "l=" << level;
      EXPECT_EQ(batched.p_value, direct.p_value) << "l=" << level;
      const CmhResult batched_cmh = cmh_test(batch, x, z_ids);
      const CmhResult direct_cmh =
          cmh_test(columns[x], columns[0], z_raw, context);
      EXPECT_EQ(batched_cmh.statistic, direct_cmh.statistic) << "l=" << level;
      EXPECT_EQ(batched_cmh.p_value, direct_cmh.p_value) << "l=" << level;
      EXPECT_EQ(batched_cmh.informative_strata, direct_cmh.informative_strata);
    }
  }
}

// Satellite (PR 6): the exhaustive batched-vs-per-subset equivalence must
// hold under every compiled-in SIMD backend the host can execute, for
// both statistics — the wide kernels sit under both code paths.
TEST(BatchCi, EquivalenceHoldsUnderEverySimdBackend) {
  const simd::Backend before = simd::chosen();
  for (const simd::Backend backend : simd::available_backends()) {
    SCOPED_TRACE(std::string("backend ") +
                 std::string(simd::backend_name(backend)));
    ASSERT_TRUE(simd::force_backend(backend));
    expect_batched_matches_per_subset(997, 11, /*use_cmh=*/false);
    expect_batched_matches_per_subset(997, 21, /*use_cmh=*/true);
  }
  ASSERT_TRUE(simd::force_backend(before));
}

// Every (x, Z) sweep statistic, serialized for cross-backend comparison.
std::vector<double> sweep_statistics(std::size_t n, std::uint64_t seed) {
  util::Rng rng(seed);
  constexpr std::size_t kColumns = 8;
  const std::vector<Column> columns = random_columns(kColumns, n, rng, 0.35);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  CiTestContext context;
  std::vector<double> out;
  for (std::size_t level = 0; level <= 3; ++level) {
    for (ColumnId x = 1; x < kColumns; ++x) {
      std::vector<ColumnId> others;
      for (ColumnId c = 1; c < kColumns; ++c) {
        if (c != x) others.push_back(c);
      }
      std::vector<bool> take(others.size(), false);
      std::fill(take.begin(), take.begin() + static_cast<long>(level), true);
      do {
        std::vector<ColumnId> z_ids;
        std::vector<const PackedColumn*> z_packed;
        for (std::size_t i = 0; i < others.size(); ++i) {
          if (!take[i]) continue;
          z_ids.push_back(others[i]);
          z_packed.push_back(&packed[others[i]]);
        }
        const GSquareResult batched = g_square_test(batch, x, z_ids, {});
        const GSquareResult direct =
            g_square_test(packed[x], packed[0], z_packed, {}, context);
        out.push_back(batched.statistic);
        out.push_back(batched.p_value);
        out.push_back(static_cast<double>(batched.sample_count));
        out.push_back(direct.statistic);
        out.push_back(direct.p_value);
      } while (std::prev_permutation(take.begin(), take.end()));
    }
  }
  return out;
}

// Cross-backend bit-identity: the full statistic stream computed under a
// wide backend must equal the scalar stream exactly (EXPECT_EQ on
// doubles — not approximate), because miner pruning compares p-values
// against alpha and any drift would change skeletons.
TEST(BatchCi, SimdBackendsProduceBitIdenticalStatistics) {
  const simd::Backend before = simd::chosen();
  ASSERT_TRUE(simd::force_backend(simd::Backend::kScalar));
  const std::vector<double> reference = sweep_statistics(1023, 81);
  for (const simd::Backend backend : simd::available_backends()) {
    SCOPED_TRACE(std::string("backend ") +
                 std::string(simd::backend_name(backend)));
    ASSERT_TRUE(simd::force_backend(backend));
    EXPECT_EQ(sweep_statistics(1023, 81), reference);
  }
  ASSERT_TRUE(simd::force_backend(before));
}

TEST(BatchCi, SmallSampleGuardSkipsWithoutCounting) {
  util::Rng rng(31);
  const std::vector<Column> columns = random_columns(12, 100, rng, 0.5);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  const std::size_t passes_before = batch.pass_count();
  const GSquareOptions guard{100.0};  // 100 samples per dof: |Z|=2 needs 400
  const ColumnId z_ids[2] = {2, 3};
  const GSquareResult result = g_square_test(batch, 1, z_ids, guard);
  EXPECT_TRUE(result.skipped_insufficient_data);
  // The preamble must fire before any counting happens — at depth too.
  const ColumnId deep_ids[10] = {2, 3, 4, 5, 6, 7, 8, 9, 10, 11};
  EXPECT_TRUE(
      g_square_test(batch, 1, deep_ids, {1.0}).skipped_insufficient_data);
  EXPECT_EQ(batch.pass_count(), passes_before);
}

TEST(BatchCi, MemoizationSharesPassesAcrossSubsets) {
  util::Rng rng(41);
  const std::vector<Column> columns = random_columns(6, 512, rng, 0.4);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);

  std::vector<ColumnId> xs = {1, 2, 3, 4, 5};
  batch.prepare_marginals(xs);
  const std::size_t after_prepare = batch.pass_count();
  // All five marginal tables in two multi-key passes (batch width 4)
  // plus the constructor's y pass.
  EXPECT_EQ(after_prepare, 3u);

  // Level-0 tests consume the warm singles: no further passes.
  for (const ColumnId x : xs) {
    (void)batch.count_strata(x, {});
  }
  EXPECT_EQ(batch.pass_count(), after_prepare);

  // A level-1 test needs exactly one fused pass for the new pair {z, x}.
  const ColumnId z_one[1] = {2};
  (void)batch.count_strata(1, z_one);
  EXPECT_EQ(batch.pass_count(), after_prepare + 1);
  // Repeating it is free, and so is the symmetric orientation {x, z}
  // (P-sets are unordered).
  (void)batch.count_strata(1, z_one);
  const ColumnId z_sym[1] = {1};
  (void)batch.count_strata(2, z_sym);
  EXPECT_EQ(batch.pass_count(), after_prepare + 1);

  // reset_cache drops the memo: the same test pays its passes again.
  batch.reset_cache();
  (void)batch.count_strata(1, z_one);
  EXPECT_GT(batch.pass_count(), after_prepare + 1);
}

TEST(BatchCi, NewSetsRebuildTheirPrefixMask) {
  // Masks are not memoized: counting a new set S ANDs |S| - 1 columns
  // into the scratch prefix (|S| - 2 passes) and counts in one more.
  util::Rng rng(43);
  const std::vector<Column> columns = random_columns(6, 512, rng, 0.4);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  std::vector<ColumnId> xs = {1, 2, 3, 4};
  batch.prepare_marginals(xs);
  const std::size_t warm = batch.pass_count();
  // x = 1, Z = {2, 3, 4}: six pairs (1 pass each), four triples (2
  // each), one quadruple (3).
  const ColumnId z[3] = {4, 2, 3};
  (void)batch.count_strata(1, z);
  EXPECT_EQ(batch.pass_count(), warm + 6 + 4 * 2 + 3);
  // Every set is memoized now, in any z order.
  const ColumnId z_sorted[3] = {2, 3, 4};
  (void)batch.count_strata(1, z_sorted);
  EXPECT_EQ(batch.pass_count(), warm + 17);
}

TEST(BatchCi, ConditioningOrderPermutesStrataNotCounts) {
  // The stratum key follows the *given* z order (bit j = z[j]), exactly
  // like the per-subset kernels: permuting z permutes keys.
  util::Rng rng(51);
  const std::vector<Column> columns = random_columns(4, 700, rng, 0.45);
  const std::vector<PackedColumn> packed = pack_all(columns);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  CiTestContext context;

  const ColumnId forward[2] = {2, 3};
  const ColumnId backward[2] = {3, 2};
  const std::vector<std::uint64_t> counts_fwd(
      batch.count_strata(1, forward).begin(),
      batch.count_strata(1, forward).end());
  const std::vector<std::uint64_t> counts_bwd(
      batch.count_strata(1, backward).begin(),
      batch.count_strata(1, backward).end());
  const PackedColumn* z_fwd[2] = {&packed[2], &packed[3]};
  const StratumCounts direct =
      context.count_strata(packed[1], packed[0], z_fwd);
  ASSERT_TRUE(direct.dense);
  ASSERT_EQ(counts_fwd.size(), direct.counts.size());
  for (std::size_t i = 0; i < counts_fwd.size(); ++i) {
    EXPECT_EQ(counts_fwd[i], direct.counts[i]);
  }
  // Swapping z swaps key bits 0 and 1: key 1 <-> key 2.
  const std::size_t remap[4] = {0, 2, 1, 3};
  for (std::size_t key = 0; key < 4; ++key) {
    for (std::size_t cell = 0; cell < 4; ++cell) {
      EXPECT_EQ(counts_bwd[key * 4 + cell],
                counts_fwd[remap[key] * 4 + cell]);
    }
  }
}

// Satellite regression test: CiTestContext byte-kernel reuse across
// differently-sized conditioning sets. The sparse path (|Z| above the
// dense limit) stamps touched keys lazily instead of zero-filling all
// 4 * 2^|Z| cells; stale cells from a previous larger call must never
// leak into a later call's view.
TEST(CiTestContext, ByteKernelReuseAcrossSizesIsIdentical) {
  util::Rng rng(61);
  const std::size_t n = 3000;
  constexpr std::size_t kBig = 9;    // 512 strata: sparse path
  constexpr std::size_t kSmall = 2;  // 4 strata: dense path
  const std::vector<Column> columns = random_columns(kBig + 2, n, rng, 0.5);

  auto z_view = [&](std::size_t count) {
    std::vector<std::span<const std::uint8_t>> z;
    for (std::size_t i = 0; i < count; ++i) z.push_back(columns[2 + i]);
    return z;
  };

  // Reference: fresh context per call.
  auto snapshot = [](const StratumCounts& strata) {
    std::vector<std::uint64_t> flat;
    if (strata.dense) {
      flat.assign(strata.counts.begin(), strata.counts.end());
    } else {
      for (const std::uint32_t key : strata.keys) {
        flat.push_back(key);
        for (std::size_t c = 0; c < 4; ++c) {
          flat.push_back(strata.counts[static_cast<std::size_t>(key) * 4 + c]);
        }
      }
    }
    return flat;
  };

  CiTestContext reused;
  for (const std::size_t size : {kBig, kSmall, kBig, kSmall, kBig}) {
    CiTestContext fresh;
    const auto z = z_view(size);
    const auto expected = snapshot(fresh.count_strata(columns[0], columns[1],
                                                      z));
    const auto actual = snapshot(reused.count_strata(columns[0], columns[1],
                                                     z));
    EXPECT_EQ(expected, actual) << "size " << size;
  }

  // And the statistics built on top agree with a fresh context.
  CiTestContext fresh;
  const auto z = z_view(kBig);
  const GSquareResult a = g_square_test(columns[0], columns[1], z, {}, reused);
  const GSquareResult b = g_square_test(columns[0], columns[1], z, {}, fresh);
  EXPECT_EQ(a.statistic, b.statistic);
  EXPECT_EQ(a.dof, b.dof);
  EXPECT_EQ(a.p_value, b.p_value);
}

TEST(BatchCi, EmptyUniverseRejectedAndZeroSamplesShortCircuit) {
  Column empty_column;
  std::vector<PackedColumn> packed;
  packed.emplace_back(empty_column);
  packed.emplace_back(empty_column);
  BatchCiContext batch({packed.data(), packed.size()}, 0);
  EXPECT_EQ(batch.sample_count(), 0u);
  const GSquareResult g = g_square_test(batch, 1, {});
  EXPECT_EQ(g.sample_count, 0u);
  EXPECT_EQ(g.p_value, 1.0);
  const CmhResult m = cmh_test(batch, 1, {});
  EXPECT_EQ(m.sample_count, 0u);
}

}  // namespace
}  // namespace causaliot::stats
