#include "causaliot/graph/dig.hpp"

#include <algorithm>
#include <fstream>
#include <sstream>

#include "causaliot/util/strings.hpp"

namespace causaliot::graph {

InteractionGraph::InteractionGraph(std::size_t device_count,
                                   std::size_t max_lag)
    : max_lag_(max_lag), dense_(device_count) {
  CAUSALIOT_CHECK_MSG(max_lag >= 1, "max_lag must be >= 1");
}

InteractionGraph::InteractionGraph(const InteractionGraph& other)
    : max_lag_(other.max_lag_),
      dense_(other.dense_),
      skeleton_(other.skeleton_),
      base_(other.base_) {
  // The skeleton and base stay shared (copying a tenant's graph is the
  // cheap personalization path); only the delta is deep-copied.
  delta_.resize(other.delta_.size());
  for (std::size_t i = 0; i < other.delta_.size(); ++i) {
    if (other.delta_[i] != nullptr) {
      delta_[i] = std::make_unique<Cpt>(*other.delta_[i]);
    }
  }
}

InteractionGraph& InteractionGraph::operator=(const InteractionGraph& other) {
  if (this == &other) return *this;
  InteractionGraph copy(other);
  *this = std::move(copy);
  return *this;
}

InteractionGraph InteractionGraph::from_template(SkeletonRef skeleton,
                                                 CptPayloadRef base) {
  CAUSALIOT_CHECK_MSG(skeleton != nullptr && base != nullptr,
                      "from_template needs a skeleton and a base payload");
  CAUSALIOT_CHECK_MSG(base->size() == skeleton->device_count(),
                      "base payload / skeleton device-count mismatch");
  for (telemetry::DeviceId child = 0; child < base->size(); ++child) {
    CAUSALIOT_CHECK_MSG((*base)[child].causes() == skeleton->causes(child),
                        "base CPT layout disagrees with skeleton");
  }
  InteractionGraph graph;
  graph.skeleton_ = std::move(skeleton);
  graph.base_ = std::move(base);
  graph.delta_.resize(graph.skeleton_->device_count());
  return graph;
}

void InteractionGraph::set_causes(telemetry::DeviceId child,
                                  std::vector<LaggedNode> causes) {
  CAUSALIOT_CHECK_MSG(skeleton_ == nullptr,
                      "cannot restructure a template-shared graph; "
                      "clone_private() first");
  CAUSALIOT_CHECK(child < dense_.size());
  for (const LaggedNode& cause : causes) {
    CAUSALIOT_CHECK_MSG(cause.device < dense_.size(),
                        "cause device out of range");
    CAUSALIOT_CHECK_MSG(cause.lag >= 1 && cause.lag <= max_lag_,
                        "cause lag out of range");
  }
  std::sort(causes.begin(), causes.end());
  CAUSALIOT_CHECK_MSG(
      std::adjacent_find(causes.begin(), causes.end()) == causes.end(),
      "duplicate cause");
  dense_[child] = Cpt(std::move(causes));
}

const std::vector<LaggedNode>& InteractionGraph::causes(
    telemetry::DeviceId child) const {
  if (skeleton_ != nullptr) return skeleton_->causes(child);
  CAUSALIOT_CHECK(child < dense_.size());
  return dense_[child].causes();
}

const Cpt& InteractionGraph::cpt(telemetry::DeviceId child) const {
  if (skeleton_ != nullptr) {
    CAUSALIOT_CHECK(child < delta_.size());
    const Cpt* overridden = delta_[child].get();
    return overridden != nullptr ? *overridden : (*base_)[child];
  }
  CAUSALIOT_CHECK(child < dense_.size());
  return dense_[child];
}

Cpt& InteractionGraph::cpt(telemetry::DeviceId child) {
  if (skeleton_ != nullptr) {
    CAUSALIOT_CHECK(child < delta_.size());
    if (delta_[child] == nullptr) {
      delta_[child] = std::make_unique<Cpt>((*base_)[child]);
    }
    return *delta_[child];
  }
  CAUSALIOT_CHECK(child < dense_.size());
  return dense_[child];
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
  if (skeleton_ != nullptr) return skeleton_->edge_count();
  std::size_t count = 0;
  for (const Cpt& cpt : dense_) count += cpt.cause_count();
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

std::size_t InteractionGraph::delta_count() const {
  std::size_t count = 0;
  for (const std::unique_ptr<Cpt>& entry : delta_) {
    if (entry != nullptr) ++count;
  }
  return count;
}

const Cpt* InteractionGraph::delta_cpt(telemetry::DeviceId child) const {
  if (skeleton_ == nullptr) return nullptr;
  CAUSALIOT_CHECK(child < delta_.size());
  return delta_[child].get();
}

SkeletonRef InteractionGraph::freeze_skeleton() const {
  if (skeleton_ != nullptr) return skeleton_;
  std::vector<std::vector<LaggedNode>> all_causes;
  all_causes.reserve(dense_.size());
  for (const Cpt& cpt : dense_) all_causes.push_back(cpt.causes());
  return std::make_shared<const Skeleton>(max_lag_, std::move(all_causes));
}

CptPayloadRef InteractionGraph::freeze_cpts() const {
  auto payload = std::make_shared<CptPayload>();
  payload->reserve(device_count());
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    payload->push_back(cpt(child));
  }
  return payload;
}

InteractionGraph InteractionGraph::clone_private() const {
  if (skeleton_ == nullptr) return *this;
  InteractionGraph out(device_count(), max_lag());
  for (telemetry::DeviceId child = 0; child < device_count(); ++child) {
    out.dense_[child] = cpt(child);
  }
  return out;
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
  graph.dense_ = std::move(cpts);
  return graph;
}

}  // namespace causaliot::graph
