// Entry point and shared utilities of the end-to-end benchmark.
//
//   perfbench --workload train-28d|serve-saturate --seed N
//             --seconds S --trace 0|1 --work-dir DIR --result FILE
//             [--trace-out FILE]
//
// Writes one JSON result (metrics, provenance, correctness ledger) to
// --result and, for traced runs, Chrome trace-event JSON to --trace-out.
// run.py builds this binary and turns the result into the final line.
#include "perfbench.hpp"

#include <sys/resource.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <numeric>
#include <string>
#include <thread>
#include <tuple>

#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/log.hpp"
#include "causaliot/util/strings.hpp"

namespace perfbench {

// --- spans ----------------------------------------------------------------

namespace {

struct SpanEvent {
  std::string name;
  std::uint64_t tid = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;
};

/// The complete ("X") events `tracer` recorded, read back from its Chrome
/// export, the only view obs::Tracer gives of single events. Each is one
/// flat object, {"name": N, "cat": C, "ph": "X", "ts": T, "dur": D,
/// "pid": 1, "tid": I}, with ts and dur in microseconds to the
/// nanosecond; benchmark span names are literals with nothing to escape.
std::vector<SpanEvent> complete_events(const Tracer& tracer) {
  constexpr std::string_view kOpen = "{\"name\": \"";
  const std::string json = tracer.export_chrome_json();
  const auto field = [](std::string_view object, std::string_view key) {
    const std::size_t at = object.find(key);
    return at == std::string_view::npos
               ? 0.0
               : std::strtod(object.data() + at + key.size(), nullptr);
  };
  std::vector<SpanEvent> events;
  for (std::size_t at = json.find(kOpen); at != std::string::npos;) {
    const std::size_t next = json.find(kOpen, at + 1);
    const std::string_view object(
        json.data() + at, (next == std::string::npos ? json.size() : next) - at);
    at = next;
    if (object.find("\"ph\": \"X\"") == std::string_view::npos) continue;
    SpanEvent event;
    event.name = std::string(object.substr(
        kOpen.size(), object.find('"', kOpen.size()) - kOpen.size()));
    event.tid = static_cast<std::uint64_t>(field(object, "\"tid\": "));
    event.start_ns =
        static_cast<std::uint64_t>(std::llround(field(object, "\"ts\": ") * 1e3));
    event.dur_ns = static_cast<std::uint64_t>(
        std::llround(field(object, "\"dur\": ") * 1e3));
    events.push_back(std::move(event));
  }
  return events;
}

}  // namespace

std::map<std::string, SpanTotals> span_totals(const Tracer& tracer) {
  std::vector<SpanEvent> events = complete_events(tracer);
  // An enclosing span sorts before the spans inside it: by thread, then
  // start, then longest first.
  std::sort(events.begin(), events.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return std::tie(a.tid, a.start_ns, b.dur_ns) <
                     std::tie(b.tid, b.start_ns, a.dur_ns);
            });
  std::vector<std::uint64_t> child_ns(events.size(), 0);
  std::vector<std::size_t> open;  // spans enclosing events[i], innermost last
  for (std::size_t i = 0; i < events.size(); ++i) {
    while (!open.empty()) {
      const SpanEvent& outer = events[open.back()];
      if (outer.tid == events[i].tid &&
          events[i].start_ns < outer.start_ns + outer.dur_ns) {
        break;
      }
      open.pop_back();
    }
    if (!open.empty()) child_ns[open.back()] += events[i].dur_ns;
    open.push_back(i);
  }
  std::map<std::string, SpanTotals> totals;
  for (std::size_t i = 0; i < events.size(); ++i) {
    const SpanEvent& event = events[i];
    SpanTotals& total = totals[event.name];
    ++total.count;
    total.self_s +=
        static_cast<double>(event.dur_ns - std::min(child_ns[i], event.dur_ns)) /
        1e9;
    total.max_s = std::max(total.max_s, static_cast<double>(event.dur_ns) / 1e9);
  }
  return totals;
}

// --- Result ---------------------------------------------------------------

void Result::set(const std::string& name, double value,
                 const std::string& unit) {
  for (Metric& metric : metrics) {
    if (metric.name == name) {
      metric.value = value;
      metric.unit = unit;
      return;
    }
  }
  metrics.push_back({name, value, unit});
}

void Result::note(const std::string& key, const std::string& value) {
  provenance.emplace_back(key, value);
}

void Result::check(std::uint64_t operations, std::uint64_t failures_seen,
                   const std::string& what) {
  attempted += operations;
  failed += failures_seen;
  if (failures_seen > 0) {
    failures.push_back(causaliot::util::format(
        "%s (%" PRIu64 " of %" PRIu64 ")", what.c_str(), failures_seen,
        operations));
    std::fprintf(stderr, "perfbench: FAILED %s\n", failures.back().c_str());
  }
}

std::string Result::to_json() const {
  using causaliot::util::format;
  using causaliot::util::json_escape;
  std::string out = "{\"correct\": ";
  out += failed == 0 && attempted > 0 ? "true" : "false";
  out += format(", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64,
                attempted, failed);
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double value = std::isfinite(metrics[i].value) ? metrics[i].value
                                                         : 0.0;
    out += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", json_escape(metrics[i].name).c_str(),
                  value, json_escape(metrics[i].unit).c_str());
  }
  out += "}, \"provenance\": {";
  for (std::size_t i = 0; i < provenance.size(); ++i) {
    out += format("%s\"%s\": \"%s\"", i == 0 ? "" : ", ",
                  json_escape(provenance[i].first).c_str(),
                  json_escape(provenance[i].second).c_str());
  }
  out += "}, \"failures\": [";
  for (std::size_t i = 0; i < failures.size(); ++i) {
    out += format("%s\"%s\"", i == 0 ? "" : ", ",
                  json_escape(failures[i]).c_str());
  }
  out += "]}";
  return out;
}

// --- statistics -------------------------------------------------------------

double median(std::vector<double> values) { return percentile(values, 50.0); }

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const double rank = std::ceil(q / 100.0 * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(
      std::clamp(rank, 1.0, static_cast<double>(values.size()))) - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double best_time(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::min_element(values.begin(), values.end());
}

double best_rate(const std::vector<double>& values) {
  return values.empty() ? 0.0 : *std::max_element(values.begin(), values.end());
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void release_free_memory() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t hash) {
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

std::uint64_t mix_seed(std::uint64_t seed) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::string hex64(std::uint64_t value) {
  return causaliot::util::format("%016" PRIx64, value);
}

}  // namespace perfbench

namespace {

using namespace perfbench;

bool write_file(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out << text;
  return static_cast<bool>(out);
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload train-28d|serve-saturate "
               "--seed N [--trace-seed N] --seconds S --trace 0|1 "
               "--work-dir DIR --result FILE [--trace-out FILE]\n");
  return 2;
}

/// The tracer's Chrome trace-event JSON with, under "otherData", each
/// span name's count, self time and longest span, and the run's result.
std::string chrome_trace(const Tracer& tracer, const std::string& result) {
  std::string spans;
  for (const auto& [name, totals] : span_totals(tracer)) {
    spans += causaliot::util::format(
        "%s\"%s\": {\"count\": %zu, \"self_s\": %.9f, \"max_s\": %.9f}",
        spans.empty() ? "" : ", ", name.c_str(), totals.count, totals.self_s,
        totals.max_s);
  }
  std::string trace = tracer.export_chrome_json();
  trace.pop_back();  // reopen the top-level object
  return trace + ", \"otherData\": {\"spans\": {" + spans +
         "}, \"result\": " + result + "}}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--trace-seed") {
      options.trace_seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else if (key == "--result") {
      options.result_path = value;
    } else if (key == "--trace-out") {
      options.trace_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 != 1 || options.result_path.empty() ||
      !(options.seconds > 0.0)) {
    return usage();
  }
  causaliot::util::set_log_level(causaliot::util::LogLevel::kWarn);

  Tracer tracer;
  tracer.set_enabled(options.trace);
  Result result;
  result.note("workload", options.workload);
  result.note("seed", std::to_string(options.seed));
  result.note("trace_seed", std::to_string(options.trace_seed));
  result.note("seconds", causaliot::util::format("%g", options.seconds));
  result.note("trace", options.trace ? "1" : "0");
  result.note("build_type", PERFBENCH_BUILD_TYPE);
  result.note("simd_backend",
              std::string(causaliot::stats::simd::backend_name(
                  causaliot::stats::simd::chosen())));
  result.note("nproc", std::to_string(std::thread::hardware_concurrency()));
  result.note("pool_threads", std::to_string(pool_threads()));
  result.note("compiler", __VERSION__);

  if (options.workload == "train-28d") {
    run_train_workload(options, tracer, result);
  } else if (options.workload == "serve-saturate") {
    run_serve_workload(options, tracer, result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", options.workload.c_str());
    return usage();
  }
  result.set("peak_rss_mb", peak_rss_mb(), "MB");

  const std::string json = result.to_json();
  if (!write_file(options.result_path, json + "\n")) {
    std::fprintf(stderr, "cannot write %s\n", options.result_path.c_str());
    return 1;
  }
  if (options.trace && !options.trace_path.empty() &&
      !write_file(options.trace_path, chrome_trace(tracer, json))) {
    std::fprintf(stderr, "cannot write %s\n", options.trace_path.c_str());
    return 1;
  }
  return result.failed == 0 ? 0 : 1;
}
