// Standard introspection routes for a running DetectionService.
//
// attach_introspection() registers the whole scrape plane on an
// obs::HttpServer:
//
//   /metrics  Prometheus text of the service registry (queue-depth and
//             model-health gauges refreshed per scrape)
//   /healthz  liveness — 200 as long as the process answers
//   /readyz   200 once start() has spawned every shard (each tenant
//             holds a loaded model snapshot by construction); 503
//             before start() and again once shutdown() begins
//   /statusz  JSON: service summary + per-tenant model health (+ the
//             watchdog's per-shard verdicts when one is attached)
//   /tracez   JSON: recent span stage totals from the global tracer
//   /rootcausez  JSON (or ?format=text): fleet root-cause blame
//
// With a watchdog attached, /metrics and /statusz refresh it before
// rendering, so the serve_watchdog_* gauges are fresh on every scrape.
//
// Call it between constructing the server and server.start(), and only
// start the server once every tenant is registered — the handlers walk
// the service's tenant tables, which are lock-free because they are
// immutable after registration. The service must outlive the server
// (stop the server first on the way down — the handlers read the
// service from worker threads).
#pragma once

#include <string>

#include "causaliot/obs/http_server.hpp"
#include "causaliot/serve/service.hpp"
#include "causaliot/serve/watchdog.hpp"

namespace causaliot::serve {

struct IntrospectionOptions {
  /// Free-form build/deployment label echoed in /statusz.
  std::string build_label = "causaliot";
  /// When set, /metrics and /statusz refresh it per scrape and
  /// /statusz gains a "watchdog" object. Must outlive the server.
  Watchdog* watchdog = nullptr;
};

void attach_introspection(obs::HttpServer& server, DetectionService& service,
                          IntrospectionOptions options = {});

}  // namespace causaliot::serve
