#include "causaliot/serve/introspection.hpp"

#include "causaliot/obs/query.hpp"
#include "causaliot/obs/trace.hpp"
#include "causaliot/stats/simd_backend.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::serve {

void attach_introspection(obs::HttpServer& server, DetectionService& service,
                          IntrospectionOptions options) {
  server.handle("/metrics", [&service, options](const obs::HttpRequest&) {
    if (options.watchdog != nullptr) {
      options.watchdog->refresh(obs::Tracer::now_ns());
    }
    return obs::HttpResponse::text(service.prometheus(),
                                   obs::kContentTypePrometheus);
  });
  server.handle("/healthz", [](const obs::HttpRequest&) {
    return obs::HttpResponse::text("ok\n");
  });
  server.handle("/readyz", [&service](const obs::HttpRequest&) {
    if (service.ready()) return obs::HttpResponse::text("ready\n");
    obs::HttpResponse out;
    out.status = 503;
    out.body = "not ready: detection service is not running\n";
    return out;
  });
  server.handle(
      "/statusz", [&service, options](const obs::HttpRequest& request) {
        // Per-tenant window (?offset=&limit=): /statusz stays bounded on
        // 10k-home fleets, the default window shows the first 100.
        const std::string offset_text =
            obs::query_param(request.query, "offset", "0");
        const std::string limit_text = obs::query_param(
            request.query, "limit",
            std::to_string(DetectionService::kDefaultTenantWindow));
        const util::Result<std::int64_t> offset =
            util::parse_int(offset_text);
        const util::Result<std::int64_t> limit = util::parse_int(limit_text);
        if (!offset.ok() || *offset < 0 || !limit.ok() || *limit < 0) {
          obs::HttpResponse out;
          out.status = 400;
          out.body = "bad offset/limit: expected non-negative integers\n";
          return out;
        }
        std::string body =
            service.status_json(static_cast<std::size_t>(*offset),
                                static_cast<std::size_t>(*limit));
        // Splice the deployment facts into the top-level object: the
        // service knows nothing about its build label or which SIMD
        // kernel backend the capability probe selected, the process does.
        if (options.watchdog != nullptr) {
          const std::uint64_t now_ns = obs::Tracer::now_ns();
          options.watchdog->refresh(now_ns);
          body.insert(1,
                      "\"watchdog\": " + options.watchdog->json(now_ns) + ", ");
        }
        body.insert(
            1, util::format(
                   "\"build\": \"%s\", \"simd_backend\": \"%s\", ",
                   util::json_escape(options.build_label).c_str(),
                   std::string(stats::simd::backend_name(stats::simd::chosen()))
                       .c_str()));
        return obs::HttpResponse::json(std::move(body));
      });
  server.handle("/tracez", [](const obs::HttpRequest&) {
    return obs::HttpResponse::json(
        obs::Tracer::global().stage_totals_json());
  });
  server.handle("/rootcausez", [&service](const obs::HttpRequest& request) {
    const std::string format =
        obs::query_param(request.query, "format", "json");
    if (format != "json" && format != "text") {
      obs::HttpResponse out;
      out.status = 400;
      out.body = "bad format: expected json or text\n";
      return out;
    }
    const std::string tenant = obs::query_param(request.query, "tenant");
    if (format == "text") {
      return obs::HttpResponse::text(service.blame().to_text(tenant));
    }
    return obs::HttpResponse::json(service.blame().to_json(tenant));
  });
}

}  // namespace causaliot::serve
