// Process-wide metric registry.
//
// A Registry owns named, labeled metric instances (Counter / Gauge /
// Histogram) and serializes them to JSON (one compact object, suitable
// for JSONL streaming) and to the Prometheus text exposition format
// (`# HELP` / `# TYPE` + one sample line per instance; histograms are
// exposed as summaries with quantile labels).
//
// Lookup (counter() / gauge() / histogram()) takes the registry mutex;
// the returned reference is stable for the registry's lifetime, so a hot
// path resolves its handles once at setup and afterwards touches only
// the relaxed atomics inside the metric. Requesting the same (name,
// labels) pair again returns the same instance; requesting an existing
// family with a different kind is a programming error and aborts.
//
// Registry::global() is the process-wide default used by the CLI and the
// mining instrumentation; subsystems that need isolation (a
// DetectionService under test, a bench loop) construct their own.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "causaliot/obs/metrics.hpp"

namespace causaliot::obs {

/// Label key/value pairs; canonicalized (sorted by key) at registration,
/// so the same set in any order names the same instance.
using Labels = std::vector<std::pair<std::string, std::string>>;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// `help` is recorded on first registration of the family and emitted
  /// as the Prometheus `# HELP` line (later calls may omit it).
  Counter& counter(std::string_view name, Labels labels = {},
                   std::string_view help = {});
  Gauge& gauge(std::string_view name, Labels labels = {},
               std::string_view help = {});
  Histogram& histogram(std::string_view name, Labels labels = {},
                       std::string_view help = {});

  /// One compact JSON object:
  ///   {"metrics": [{"name": ..., "labels": {...}, "kind": "counter",
  ///                 "value": 12}, ...]}
  /// Histogram entries carry count/sum/p50/p95/p99/max instead of value.
  ///
  /// Export order is a CONTRACT, not an accident: families appear in
  /// sorted name order and instances within a family in sorted label
  /// order (labels themselves are canonicalized at registration), so
  /// two exports of the same registry state are byte-identical and
  /// snapshot diffs / CI greps stay stable regardless of registration
  /// order. to_prometheus() and visit_scalars() honor the same order.
  std::string to_json() const;

  /// Prometheus text exposition (version 0.0.4): # HELP / # TYPE per
  /// family, label values escaped (\\, \", \n), histograms as summaries.
  /// Same deterministic (sorted name, sorted labels) order as to_json().
  std::string to_prometheus() const;

  /// Visits every counter and gauge instance (histograms are skipped —
  /// they have no single scalar value) in the deterministic exposition
  /// order, passing the current value as a double. The callback runs
  /// under the registry mutex and therefore must not call back into
  /// this registry. Benchmarks use it to read counters back without
  /// parsing an export.
  using ScalarVisitor = std::function<void(
      const std::string& name, const Labels& labels, MetricKind kind,
      double value)>;
  void visit_scalars(const ScalarVisitor& visit) const;

  /// Families registered so far (diagnostics / tests).
  std::size_t family_count() const;

  /// Drops every registered family. FOR TEST SETUP ONLY: all references
  /// previously returned by counter()/gauge()/histogram() dangle after
  /// this, so it must never run while any other thread (or cached
  /// handle) can still touch the registry. It exists so suites that
  /// assert exact values against the process-global registry are
  /// isolated from whatever earlier tests in the same binary recorded.
  void reset_for_test();

  static Registry& global();

 private:
  struct Instance {
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Gauge> gauge;
    std::unique_ptr<Histogram> histogram;
  };
  struct Family {
    MetricKind kind = MetricKind::kCounter;
    std::string help;
    std::map<Labels, Instance> instances;
  };

  Instance& resolve(std::string_view name, Labels labels,
                    std::string_view help, MetricKind kind);

  mutable std::mutex mutex_;
  std::map<std::string, Family, std::less<>> families_;
};

}  // namespace causaliot::obs
