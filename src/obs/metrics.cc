#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "obs/shard_stats.h"
#include "util/clock.h"
#include "util/strings.h"

namespace zen::obs {

#ifndef ZEN_OBS_DISABLED
ScopedTimerNs::ScopedTimerNs(Histo& histo) noexcept
    : histo_(histo), start_ns_(util::wall_nanos()) {}

ScopedTimerNs::~ScopedTimerNs() {
  histo_.record(static_cast<double>(util::wall_nanos() - start_ns_));
}
#endif

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

namespace {

std::string series_key(std::string_view name, std::string_view labels) {
  std::string key(name);
  key.push_back('\0');
  key.append(labels);
  return key;
}

// Formats a double the way Prometheus expects: integral values without a
// fraction, everything else with enough digits to round-trip.
std::string format_value(double v) {
  if (v == static_cast<double>(static_cast<long long>(v)) &&
      std::abs(v) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%lld", static_cast<long long>(v));
    return buf;
  }
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

}  // namespace

MetricsRegistry::Entry& MetricsRegistry::find_or_create(
    Series::Kind kind, std::string_view name, std::string_view labels,
    std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = entries_.try_emplace(series_key(name, labels));
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    entry.help = help;
    switch (kind) {
      case Series::Kind::Counter:
        entry.counter = std::make_unique<Counter>();
        break;
      case Series::Kind::Gauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case Series::Kind::Histo:
        entry.histo = std::make_unique<Histo>();
        break;
    }
  }
  return entry;
}

Counter& MetricsRegistry::counter(std::string_view name,
                                  std::string_view labels,
                                  std::string_view help) {
  return *find_or_create(Series::Kind::Counter, name, labels, help).counter;
}

Gauge& MetricsRegistry::gauge(std::string_view name, std::string_view labels,
                              std::string_view help) {
  return *find_or_create(Series::Kind::Gauge, name, labels, help).gauge;
}

Histo& MetricsRegistry::histo(std::string_view name, std::string_view labels,
                              std::string_view help) {
  return *find_or_create(Series::Kind::Histo, name, labels, help).histo;
}

void MetricsRegistry::register_shard(ShardStats* shard) {
  std::lock_guard<std::mutex> lock(shards_mu_);
  shards_.push_back(shard);
}

void MetricsRegistry::unregister_shard(ShardStats* shard) {
  std::lock_guard<std::mutex> lock(shards_mu_);
  std::erase(shards_, shard);
}

void MetricsRegistry::flush_shards() const {
  std::lock_guard<std::mutex> lock(shards_mu_);
  for (ShardStats* shard : shards_) shard->flush();
}

const MetricsRegistry::Series* MetricsRegistry::Snapshot::find(
    std::string_view name, std::string_view labels) const noexcept {
  for (const Series& s : series) {
    if (s.name == name && s.labels == labels) return &s;
  }
  return nullptr;
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  flush_shards();
  Snapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  snap.series.reserve(entries_.size());
  for (const auto& [key, entry] : entries_) {
    Series s;
    const auto sep = key.find('\0');
    s.name = key.substr(0, sep);
    s.labels = key.substr(sep + 1);
    s.kind = entry.kind;
    switch (entry.kind) {
      case Series::Kind::Counter:
        s.value = static_cast<double>(entry.counter->value());
        break;
      case Series::Kind::Gauge:
        s.value = entry.gauge->value();
        break;
      case Series::Kind::Histo:
        s.hist = entry.histo->snapshot();
        break;
    }
    snap.series.push_back(std::move(s));
  }
  return snap;
}

std::string MetricsRegistry::render_prometheus() const {
  flush_shards();
  std::string out;
  std::lock_guard<std::mutex> lock(mu_);
  std::string last_family;
  for (const auto& [key, entry] : entries_) {
    const auto sep = key.find('\0');
    const std::string name = key.substr(0, sep);
    const std::string labels = key.substr(sep + 1);
    const std::string braced = labels.empty() ? "" : "{" + labels + "}";
    if (name != last_family) {
      last_family = name;
      if (!entry.help.empty())
        out += "# HELP " + name + " " + entry.help + "\n";
      const char* type = entry.kind == Series::Kind::Counter ? "counter"
                         : entry.kind == Series::Kind::Gauge ? "gauge"
                                                             : "summary";
      out += "# TYPE " + name + " " + type + "\n";
    }
    switch (entry.kind) {
      case Series::Kind::Counter:
        out += name + braced + " " +
               format_value(static_cast<double>(entry.counter->value())) + "\n";
        break;
      case Series::Kind::Gauge:
        out += name + braced + " " + format_value(entry.gauge->value()) + "\n";
        break;
      case Series::Kind::Histo: {
        const util::Histogram h = entry.histo->snapshot();
        const std::string comma = labels.empty() ? "" : ",";
        for (const auto& [q, label] :
             {std::pair{0.5, "0.5"}, {0.9, "0.9"}, {0.99, "0.99"}}) {
          out += name + "{" + labels + comma + "quantile=\"" + label + "\"} " +
                 format_value(h.percentile(q)) + "\n";
        }
        out += name + "_sum" + braced + " " +
               format_value(h.mean() * static_cast<double>(h.count())) + "\n";
        out += name + "_count" + braced + " " +
               format_value(static_cast<double>(h.count())) + "\n";
        break;
      }
    }
  }
  return out;
}

std::string MetricsRegistry::render_json() const {
  const Snapshot snap = snapshot();
  std::string out = "{\"series\":[";
  bool first = true;
  for (const Series& s : snap.series) {
    if (!first) out.push_back(',');
    first = false;
    out += "{\"name\":\"" + util::json_escape(s.name) + "\"";
    if (!s.labels.empty())
      out += ",\"labels\":\"" + util::json_escape(s.labels) + "\"";
    switch (s.kind) {
      case Series::Kind::Counter:
        out += ",\"type\":\"counter\",\"value\":" + format_value(s.value);
        break;
      case Series::Kind::Gauge:
        out += ",\"type\":\"gauge\",\"value\":" + format_value(s.value);
        break;
      case Series::Kind::Histo:
        out += ",\"type\":\"histogram\",\"count\":" +
               format_value(static_cast<double>(s.hist.count())) +
               ",\"mean\":" + format_value(s.hist.mean()) +
               ",\"p50\":" + format_value(s.hist.percentile(0.5)) +
               ",\"p90\":" + format_value(s.hist.percentile(0.9)) +
               ",\"p99\":" + format_value(s.hist.percentile(0.99)) +
               ",\"max\":" + format_value(s.hist.max());
        break;
    }
    out.push_back('}');
  }
  out += "]}\n";
  return out;
}

void MetricsRegistry::reset_values() {
  flush_shards();
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [key, entry] : entries_) {
    switch (entry.kind) {
      case Series::Kind::Counter: entry.counter->reset(); break;
      case Series::Kind::Gauge: entry.gauge->reset(); break;
      case Series::Kind::Histo: entry.histo->reset(); break;
    }
  }
}

std::size_t MetricsRegistry::series_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace zen::obs
