#include "causaliot/serve/template_registry.hpp"

namespace causaliot::serve {

std::shared_ptr<const ModelSnapshot> instantiate(const ModelTemplate& tpl) {
  return tpl.snapshot;
}

std::shared_ptr<const ModelTemplate> TemplateRegistry::publish(
    std::string name, const graph::InteractionGraph& graph,
    double score_threshold, double laplace_alpha, std::uint64_t version) {
  // Copy the graph outside the lock: publication-path work that must
  // not serialize against find() from ingest transports.
  auto tpl = std::make_shared<ModelTemplate>();
  tpl->name = name;
  tpl->snapshot =
      make_snapshot(graph, score_threshold, laplace_alpha, version);

  std::lock_guard<std::mutex> lock(mutex_);
  if (by_name_.count(name) != 0) return nullptr;
  std::shared_ptr<const ModelTemplate> published = std::move(tpl);
  by_name_.emplace(std::move(name), published);
  return published;
}

std::shared_ptr<const ModelTemplate> TemplateRegistry::find(
    std::string_view name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = by_name_.find(std::string(name));
  return it != by_name_.end() ? it->second : nullptr;
}

bool TemplateRegistry::evict(std::string_view name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_name_.erase(std::string(name)) != 0;
}

std::size_t TemplateRegistry::template_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return by_name_.size();
}

}  // namespace causaliot::serve
