#include "causaliot/graph/dig.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "causaliot/util/strings.hpp"

namespace causaliot::graph {

InteractionGraph::InteractionGraph(std::size_t device_count,
                                   std::size_t max_lag)
    : max_lag_(max_lag), cpts_(device_count) {
  CAUSALIOT_CHECK_MSG(max_lag >= 1, "max_lag must be >= 1");
}

void InteractionGraph::set_causes(telemetry::DeviceId child,
                                  std::vector<LaggedNode> causes) {
  CAUSALIOT_CHECK(child < cpts_.size());
  for (const LaggedNode& cause : causes) {
    CAUSALIOT_CHECK_MSG(cause.device < cpts_.size(),
                        "cause device out of range");
    CAUSALIOT_CHECK_MSG(cause.lag >= 1 && cause.lag <= max_lag_,
                        "cause lag out of range");
  }
  std::sort(causes.begin(), causes.end());
  CAUSALIOT_CHECK_MSG(
      std::adjacent_find(causes.begin(), causes.end()) == causes.end(),
      "duplicate cause");
  cpts_[child] = Cpt(std::move(causes));
}

const std::vector<LaggedNode>& InteractionGraph::causes(
    telemetry::DeviceId child) const {
  return cpt(child).causes();
}

const Cpt& InteractionGraph::cpt(telemetry::DeviceId child) const {
  CAUSALIOT_CHECK(child < cpts_.size());
  return cpts_[child];
}

Cpt& InteractionGraph::cpt(telemetry::DeviceId child) {
  CAUSALIOT_CHECK(child < cpts_.size());
  return cpts_[child];
}

std::vector<Edge> InteractionGraph::edges() const {
  std::vector<Edge> all;
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    for (const LaggedNode& cause : causes(child)) {
      all.push_back({cause, child});
    }
  }
  return all;
}

std::size_t InteractionGraph::edge_count() const {
  std::size_t count = 0;
  for (const Cpt& cpt : cpts_) count += cpt.cause_count();
  return count;
}

bool InteractionGraph::has_edge(telemetry::DeviceId cause_device,
                                std::uint32_t lag,
                                telemetry::DeviceId child) const {
  const LaggedNode target{cause_device, lag};
  const auto& child_causes = causes(child);
  return std::find(child_causes.begin(), child_causes.end(), target) !=
         child_causes.end();
}

bool InteractionGraph::has_interaction(telemetry::DeviceId cause_device,
                                       telemetry::DeviceId child) const {
  const auto& child_causes = causes(child);
  return std::any_of(child_causes.begin(), child_causes.end(),
                     [&](const LaggedNode& c) {
                       return c.device == cause_device;
                     });
}

std::vector<telemetry::DeviceId> InteractionGraph::children(
    telemetry::DeviceId device) const {
  std::vector<telemetry::DeviceId> out;
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    if (has_interaction(device, child)) out.push_back(child);
  }
  return out;
}

std::size_t InteractionGraph::approx_bytes() const {
  std::size_t bytes = 0;
  for (const Cpt& cpt : cpts_) bytes += cpt.approx_bytes();
  return bytes;
}

std::string InteractionGraph::to_dot(
    const telemetry::DeviceCatalog& catalog) const {
  CAUSALIOT_CHECK(catalog.size() == device_count());
  std::ostringstream out;
  out << "digraph DIG {\n  rankdir=LR;\n  node [shape=box];\n";
  for (telemetry::DeviceId id = 0; id < device_count(); ++id) {
    out << "  d" << id << " [label=\"" << catalog.info(id).name << "\"];\n";
  }
  for (const Edge& edge : edges()) {
    out << "  d" << edge.cause.device << " -> d" << edge.child
        << " [label=\"lag " << edge.cause.lag << "\"];\n";
  }
  out << "}\n";
  return out.str();
}

util::Status InteractionGraph::save(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return util::Error::io_error("cannot open " + path);
  out << "dig v1 " << device_count() << ' ' << max_lag() << '\n';
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    const Cpt& cpt = this->cpt(child);
    out << "child " << child << ' ' << cpt.cause_count() << '\n';
    for (const LaggedNode& cause : cpt.causes()) {
      out << "  cause " << cause.device << ' ' << cause.lag << '\n';
    }
    // Sort entries for a byte-stable file.
    std::vector<std::pair<std::uint64_t, std::array<double, 2>>> entries(
        cpt.counts().begin(), cpt.counts().end());
    std::sort(entries.begin(), entries.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    out << "  entries " << entries.size() << '\n';
    for (const auto& [key, counts] : entries) {
      out << "    " << key << ' ' << counts[0] << ' ' << counts[1] << '\n';
    }
  }
  if (!out) return util::Error::io_error("write failed: " + path);
  return util::Status::ok_status();
}

util::Result<InteractionGraph> InteractionGraph::load(
    const std::string& path) {
  // Far beyond any mined tau; bounds the monitor's (max_lag + 1)-deep
  // state ring that a loaded model sizes.
  constexpr std::size_t kMaxLag = 65535;
  // A CPT key packs one bit per cause into a util::BitKey.
  constexpr std::size_t kMaxCauses = 64;

  std::ifstream in(path);
  if (!in) return util::Error::io_error("cannot open " + path);
  std::string tag;
  std::string version;
  std::size_t device_count = 0;
  std::size_t max_lag = 0;
  if (!(in >> tag >> version >> device_count >> max_lag) || tag != "dig" ||
      version != "v1") {
    return util::Error::parse_error("bad DIG header in " + path);
  }
  if (max_lag < 1 || max_lag > kMaxLag) {
    return util::Error::parse_error(
        util::format("DIG max_lag %zu outside [1, %zu]", max_lag, kMaxLag));
  }
  // Every record is validated before it reaches a Cpt, and the tables
  // grow with the records actually read — never with the header's
  // device_count — so no input can trip a CHECK or exhaust memory.
  std::vector<Cpt> cpts;
  for (std::size_t child = 0; child < device_count; ++child) {
    std::size_t record = 0;
    std::size_t cause_count = 0;
    if (!(in >> tag >> record >> cause_count) || tag != "child" ||
        record != child) {
      return util::Error::parse_error(
          util::format("bad child record (expected child %zu)", child));
    }
    if (cause_count > kMaxCauses) {
      return util::Error::parse_error(util::format(
          "child %zu: %zu causes exceed the %zu-cause CPT key", child,
          cause_count, kMaxCauses));
    }
    std::vector<LaggedNode> causes;
    for (std::size_t c = 0; c < cause_count; ++c) {
      LaggedNode node;
      if (!(in >> tag >> node.device >> node.lag) || tag != "cause") {
        return util::Error::parse_error("bad cause record");
      }
      if (node.device >= device_count || node.lag < 1 || node.lag > max_lag) {
        return util::Error::parse_error(util::format(
            "child %zu: cause %u at lag %u out of range", child,
            static_cast<unsigned>(node.device),
            static_cast<unsigned>(node.lag)));
      }
      causes.push_back(node);
    }
    std::sort(causes.begin(), causes.end());
    if (std::adjacent_find(causes.begin(), causes.end()) != causes.end()) {
      return util::Error::parse_error(
          util::format("child %zu: duplicate cause", child));
    }
    Cpt cpt(std::move(causes));
    std::size_t entry_count = 0;
    if (!(in >> tag >> entry_count) || tag != "entries") {
      return util::Error::parse_error("bad entries record");
    }
    for (std::size_t e = 0; e < entry_count; ++e) {
      std::uint64_t key = 0;
      double count0 = 0.0;
      double count1 = 0.0;
      if (!(in >> key >> count0 >> count1)) {
        return util::Error::parse_error("bad CPT entry");
      }
      if (!(count0 >= 0.0 && count1 >= 0.0)) {
        return util::Error::parse_error(
            util::format("child %zu: negative CPT count", child));
      }
      if (cause_count < kMaxCauses && (key >> cause_count) != 0) {
        return util::Error::parse_error(util::format(
            "child %zu: CPT key %llu has bits beyond %zu causes", child,
            static_cast<unsigned long long>(key), cause_count));
      }
      if (cpt.counts().contains(key)) {
        return util::Error::parse_error(
            util::format("child %zu: duplicate CPT entry", child));
      }
      cpt.set_counts(key, count0, count1);
    }
    cpts.push_back(std::move(cpt));
  }
  InteractionGraph graph(0, max_lag);
  graph.cpts_ = std::move(cpts);
  return graph;
}

}  // namespace causaliot::graph
