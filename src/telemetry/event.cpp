#include "causaliot/telemetry/event.hpp"

#include <algorithm>

#include "causaliot/util/csv.hpp"
#include "causaliot/util/strings.hpp"

namespace causaliot::telemetry {

void EventLog::append(DeviceEvent event) {
  CAUSALIOT_CHECK_MSG(event.device < catalog_.size(),
                      "event references unknown device");
  events_.push_back(event);
}

double EventLog::mean_inter_event_seconds() const {
  if (events_.size() < 2) return 0.0;
  const double span = events_.back().timestamp - events_.front().timestamp;
  return span / static_cast<double>(events_.size() - 1);
}

bool EventLog::is_time_ordered() const {
  return std::is_sorted(events_.begin(), events_.end(),
                        [](const DeviceEvent& a, const DeviceEvent& b) {
                          return a.timestamp < b.timestamp;
                        });
}

void EventLog::sort_by_time() {
  std::stable_sort(events_.begin(), events_.end(),
                   [](const DeviceEvent& a, const DeviceEvent& b) {
                     return a.timestamp < b.timestamp;
                   });
}

util::Status EventLog::save_csv(const std::string& path) const {
  std::vector<util::CsvRow> rows;
  rows.reserve(events_.size());
  for (const DeviceEvent& e : events_) {
    rows.push_back({util::format("%.3f", e.timestamp),
                    catalog_.info(e.device).name,
                    util::format("%.6g", e.value)});
  }
  return util::write_csv_file(path, rows, {"timestamp", "device", "value"});
}

util::Result<EventLog> EventLog::load_csv(const std::string& path,
                                          DeviceCatalog catalog) {
  auto rows = util::read_csv_file(path, /*skip_header=*/true);
  if (!rows.ok()) return rows.error();
  EventLog log(std::move(catalog));
  for (const util::CsvRow& row : rows.value()) {
    if (row.size() != 3) {
      return util::Error::parse_error("expected 3 fields per event row");
    }
    auto ts = util::parse_double(row[0]);
    if (!ts.ok()) {
      return util::Error::parse_error("timestamp: " + ts.error().message);
    }
    auto device = log.catalog().find(row[1]);
    if (!device.ok()) return device.error();
    auto value = util::parse_double(row[2]);
    if (!value.ok()) {
      return util::Error::parse_error("value: " + value.error().message);
    }
    log.append({ts.value(), device.value(), value.value()});
  }
  return log;
}

}  // namespace causaliot::telemetry
