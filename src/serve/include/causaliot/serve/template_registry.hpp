// Process-wide model-template store for fleet-scale model sharing.
//
// Fleet deployments ship homes with identical device inventories, so the
// serving plane should pay for one model per *template*, not one per
// tenant. The Event Monitor (paper §V-D) only reads a DIG's cause lists
// and CPTs, and a published ModelSnapshot is immutable, so a template is
// simply a name bound to one shared snapshot: publish() builds it once,
// and instantiate() hands every tenant the same pointer.
//
// The add_tenant control verb references templates by name
// ({"op": "add_tenant", "tenant": "home-9", "template": "default"}).
// Personalizing one tenant (copy the graph, update_cpts, swap_model)
// publishes a new snapshot for that tenant alone; the template's
// snapshot is never written. Evicting a template drops only the name —
// the snapshot frees once its last tenant is gone.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "causaliot/serve/model_snapshot.hpp"

namespace causaliot::serve {

struct ModelTemplate {
  std::string name;
  std::shared_ptr<const ModelSnapshot> snapshot;
};

/// The template's snapshot itself: every call returns the same pointer.
std::shared_ptr<const ModelSnapshot> instantiate(const ModelTemplate& tpl);

class TemplateRegistry {
 public:
  TemplateRegistry() = default;
  TemplateRegistry(const TemplateRegistry&) = delete;
  TemplateRegistry& operator=(const TemplateRegistry&) = delete;

  /// Copies `graph` into one immutable snapshot registered under `name`.
  /// Returns nullptr when the name is taken.
  std::shared_ptr<const ModelTemplate> publish(std::string name,
                                               const graph::InteractionGraph& graph,
                                               double score_threshold,
                                               double laplace_alpha,
                                               std::uint64_t version);

  /// nullptr when unknown.
  std::shared_ptr<const ModelTemplate> find(std::string_view name) const;

  /// Drops the name. Live tenants keep serving from their refs; the
  /// snapshot frees once the last one drops. False if unknown.
  bool evict(std::string_view name);

  /// Registered templates.
  std::size_t template_count() const;

 private:
  mutable std::mutex mutex_;
  std::unordered_map<std::string, std::shared_ptr<const ModelTemplate>>
      by_name_;
};

}  // namespace causaliot::serve
