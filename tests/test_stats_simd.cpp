// stats::simd — the capability-dispatched kernel backend.
//
// The correctness contract is bit-identity: every compiled-in backend the
// host can execute must return exactly the popcounts the scalar reference
// returns, for every primitive, on ragged logical lengths (padding in
// play) and with and without the mask store. The facade tests pin the
// name/parse round-trip, the storage alignment contract, and the
// force/restore semantics the test suites and benchmarks rely on.
#include "causaliot/stats/simd_backend.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "causaliot/util/rng.hpp"

namespace {

using namespace causaliot;
using stats::simd::Backend;

TEST(SimdStorage, PaddedWordCountRoundsUpToStride) {
  EXPECT_EQ(stats::padded_word_count(0), 0u);
  EXPECT_EQ(stats::padded_word_count(1), stats::kSimdWordStride);
  EXPECT_EQ(stats::padded_word_count(stats::kSimdWordStride),
            stats::kSimdWordStride);
  EXPECT_EQ(stats::padded_word_count(stats::kSimdWordStride + 1),
            2 * stats::kSimdWordStride);
}

TEST(SimdStorage, AlignedWordsIsAlignedPaddedAndZeroed) {
  const stats::AlignedWords words(11);
  EXPECT_EQ(words.size(), stats::padded_word_count(11));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(words.data()) %
                stats::kSimdWordAlign,
            0u);
  for (std::size_t i = 0; i < words.size(); ++i) EXPECT_EQ(words[i], 0u);
}

TEST(SimdStorage, AlignedWordsCopyAndMovePreserveContents) {
  stats::AlignedWords words(3);
  for (std::size_t i = 0; i < words.size(); ++i) {
    words[i] = 0x0123456789abcdefULL * (i + 1);
  }
  const stats::AlignedWords copy(words);
  ASSERT_EQ(copy.size(), words.size());
  for (std::size_t i = 0; i < words.size(); ++i) {
    EXPECT_EQ(copy[i], words[i]);
  }
  const std::uint64_t first = words[0];
  const stats::AlignedWords moved(std::move(words));
  EXPECT_EQ(moved[0], first);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(moved.data()) %
                stats::kSimdWordAlign,
            0u);
}

TEST(SimdFacade, NameParseRoundTrip) {
  for (const Backend backend :
       {Backend::kScalar, Backend::kAvx2, Backend::kAvx512, Backend::kNeon}) {
    const auto parsed =
        stats::simd::parse_backend(stats::simd::backend_name(backend));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, backend);
  }
  EXPECT_FALSE(stats::simd::parse_backend("sse9").has_value());
  EXPECT_FALSE(stats::simd::parse_backend("").has_value());
}

TEST(SimdFacade, ScalarAlwaysAvailableAndListedLast) {
  EXPECT_TRUE(stats::simd::backend_compiled(Backend::kScalar));
  EXPECT_TRUE(stats::simd::backend_supported(Backend::kScalar));
  const auto available = stats::simd::available_backends();
  ASSERT_FALSE(available.empty());
  EXPECT_EQ(available.back(), Backend::kScalar);
  // Widest-first: the auto pick is the head of the list.
  EXPECT_EQ(available.front(), stats::simd::auto_backend());
}

TEST(SimdFacade, SupportImpliesCompiled) {
  for (const Backend backend :
       {Backend::kScalar, Backend::kAvx2, Backend::kAvx512, Backend::kNeon}) {
    if (stats::simd::backend_supported(backend)) {
      EXPECT_TRUE(stats::simd::backend_compiled(backend));
    }
  }
}

TEST(SimdFacade, ForceBackendSwitchesAndRefusesUnsupported) {
  const Backend before = stats::simd::chosen();
  for (const Backend backend :
       {Backend::kScalar, Backend::kAvx2, Backend::kAvx512, Backend::kNeon}) {
    if (stats::simd::backend_supported(backend)) {
      EXPECT_TRUE(stats::simd::force_backend(backend));
      EXPECT_EQ(stats::simd::chosen(), backend);
    } else {
      EXPECT_FALSE(stats::simd::force_backend(backend));
      // A refused force leaves the previous choice in place.
      EXPECT_TRUE(stats::simd::backend_supported(stats::simd::chosen()));
    }
  }
  EXPECT_TRUE(stats::simd::force_backend(before));
}

// ---- bit-identity of every supported backend against scalar ------------

// Column whose logical bit length n leaves the padded tail partially
// used: bits [0, n) random, bits [n, 64 * padded) zero, exactly as
// PackedColumn builds its storage.
stats::AlignedWords random_column(std::size_t n, util::Rng& rng) {
  stats::AlignedWords words((n + 63) / 64);
  for (std::size_t i = 0; i < n; ++i) {
    if (rng.bernoulli(0.4)) {
      words[i / 64] |= std::uint64_t{1} << (i % 64);
    }
  }
  return words;
}

struct PrimitiveResults {
  std::uint64_t and_pop = 0;
  std::vector<std::uint64_t> marginal_p;
  std::vector<std::uint64_t> marginal_py;
  std::uint64_t masked_p = 0;
  std::uint64_t masked_py = 0;
  std::vector<std::uint64_t> mask;

  bool operator==(const PrimitiveResults&) const = default;
};

PrimitiveResults run_primitives(const stats::simd::Kernels& kernels,
                                const std::vector<stats::AlignedWords>& cols,
                                std::size_t padded, bool store_mask) {
  PrimitiveResults out;
  out.and_pop = kernels.and_popcount(cols[0].data(), cols[1].data(), padded);

  const std::size_t k =
      std::min(cols.size() - 1, stats::simd::kMarginalPassMaxColumns);
  std::vector<const std::uint64_t*> ptrs;
  for (std::size_t i = 1; i <= k; ++i) ptrs.push_back(cols[i].data());
  out.marginal_p.resize(k);
  out.marginal_py.resize(k);
  kernels.marginal_pass(ptrs.data(), k, cols[0].data(), padded,
                        out.marginal_p.data(), out.marginal_py.data());

  stats::AlignedWords mask(padded);
  kernels.masked_pass(cols[1].data(), cols[2].data(), cols[0].data(),
                      store_mask ? mask.data() : nullptr, padded,
                      &out.masked_p, &out.masked_py);
  if (store_mask) {
    out.mask.assign(mask.data(), mask.data() + mask.size());
  }
  return out;
}

TEST(SimdKernels, EveryBackendMatchesScalarBitForBit) {
  util::Rng rng(20230607);
  const Backend before = stats::simd::chosen();
  ASSERT_TRUE(stats::simd::force_backend(Backend::kScalar));
  const stats::simd::Kernels& scalar = stats::simd::kernels();

  // Ragged lengths spanning: sub-word, exact word, exact stride, stride+1
  // word, and a multi-stride column with a partial tail.
  for (const std::size_t n : {1ul, 63ul, 64ul, 511ul, 512ul, 513ul, 1000ul,
                              4096ul, 4097ul, 10007ul}) {
    std::vector<stats::AlignedWords> cols;
    for (std::size_t c = 0; c < 1 + stats::simd::kMarginalPassMaxColumns;
         ++c) {
      cols.push_back(random_column(n, rng));
    }
    const std::size_t padded = cols[0].size();
    for (const bool store_mask : {false, true}) {
      const PrimitiveResults reference =
          run_primitives(scalar, cols, padded, store_mask);
      for (const Backend backend : stats::simd::available_backends()) {
        ASSERT_TRUE(stats::simd::force_backend(backend));
        const PrimitiveResults got =
            run_primitives(stats::simd::kernels(), cols, padded, store_mask);
        EXPECT_EQ(got, reference)
            << "backend " << stats::simd::backend_name(backend) << " n=" << n
            << " store_mask=" << store_mask;
      }
      ASSERT_TRUE(stats::simd::force_backend(Backend::kScalar));
    }
  }
  ASSERT_TRUE(stats::simd::force_backend(before));
}

// BatchCiContext rebuilds a new set's prefix mask by ANDing columns into
// one scratch buffer in place (mask_out == prefix).
TEST(SimdKernels, MaskedPassMayStoreInPlace) {
  util::Rng rng(11);
  const Backend before = stats::simd::chosen();
  for (const std::size_t n : {64ul, 513ul, 4097ul}) {
    std::vector<stats::AlignedWords> cols;
    for (std::size_t c = 0; c < 3; ++c) cols.push_back(random_column(n, rng));
    const std::size_t padded = cols[0].size();
    for (const Backend backend : stats::simd::available_backends()) {
      ASSERT_TRUE(stats::simd::force_backend(backend));
      const stats::simd::Kernels& kernels = stats::simd::kernels();
      stats::AlignedWords expected(padded);
      std::uint64_t p = 0;
      std::uint64_t p_y = 0;
      kernels.masked_pass(cols[1].data(), cols[2].data(), cols[0].data(),
                          expected.data(), padded, &p, &p_y);
      stats::AlignedWords in_place = cols[1];
      std::uint64_t q = 0;
      std::uint64_t q_y = 0;
      kernels.masked_pass(in_place.data(), cols[2].data(), cols[0].data(),
                          in_place.data(), padded, &q, &q_y);
      EXPECT_EQ(q, p) << stats::simd::backend_name(backend);
      EXPECT_EQ(q_y, p_y) << stats::simd::backend_name(backend);
      EXPECT_TRUE(std::equal(in_place.data(), in_place.data() + padded,
                             expected.data()))
          << stats::simd::backend_name(backend) << " n=" << n;
    }
  }
  ASSERT_TRUE(stats::simd::force_backend(before));
}

TEST(SimdKernels, MarginalPassCountsEveryBatchWidth) {
  util::Rng rng(7);
  const std::size_t n = 777;
  std::vector<stats::AlignedWords> cols;
  for (std::size_t c = 0; c < 1 + stats::simd::kMarginalPassMaxColumns; ++c) {
    cols.push_back(random_column(n, rng));
  }
  const std::size_t padded = cols[0].size();
  for (const Backend backend : stats::simd::available_backends()) {
    ASSERT_TRUE(stats::simd::force_backend(backend));
    const stats::simd::Kernels& kernels = stats::simd::kernels();
    for (std::size_t k = 1; k <= stats::simd::kMarginalPassMaxColumns; ++k) {
      std::vector<const std::uint64_t*> ptrs;
      for (std::size_t i = 1; i <= k; ++i) ptrs.push_back(cols[i].data());
      std::vector<std::uint64_t> p(k), p_y(k);
      kernels.marginal_pass(ptrs.data(), k, cols[0].data(), padded, p.data(),
                            p_y.data());
      for (std::size_t i = 0; i < k; ++i) {
        EXPECT_EQ(p[i],
                  kernels.and_popcount(cols[i + 1].data(), cols[i + 1].data(),
                                       padded));
        EXPECT_EQ(p_y[i], kernels.and_popcount(cols[i + 1].data(),
                                               cols[0].data(), padded));
      }
    }
  }
  ASSERT_TRUE(stats::simd::force_backend(Backend::kScalar));
}

}  // namespace
