#include "dataplane/explain.h"

#include "util/strings.h"

namespace zen::dataplane {

namespace {

std::string mask_summary(const ExplainStep& step) {
  std::string out;
  int probed = 0, pruned = 0;
  for (const auto& m : step.masks) {
    if (m.pruned) ++pruned;
    else ++probed;
  }
  out = util::format("probed %d/%zu masks", probed, step.masks.size());
  if (pruned > 0) out += util::format(" (%d pruned by priority)", pruned);
  return out;
}

}  // namespace

const char* to_string(ExplainStepKind kind) noexcept {
  switch (kind) {
    case ExplainStepKind::kMegaflow: return "megaflow";
    case ExplainStepKind::kTableMatch: return "table_match";
    case ExplainStepKind::kTableMiss: return "table_miss";
    case ExplainStepKind::kMeter: return "meter";
    case ExplainStepKind::kGroup: return "group";
    case ExplainStepKind::kRewrite: return "rewrite";
    case ExplainStepKind::kOutput: return "output";
    case ExplainStepKind::kPacketIn: return "packet_in";
    case ExplainStepKind::kDrop: return "drop";
  }
  return "?";
}

std::string ExplainTrace::to_text() const {
  std::string out = util::format("switch %llu (in_port=%u)\n",
                                 static_cast<unsigned long long>(dpid),
                                 in_port);
  for (const auto& s : steps) {
    std::string line;
    switch (s.kind) {
      case ExplainStepKind::kMegaflow:
        line = util::format("megaflow: %s", s.cache_hit ? "hit" : "miss");
        break;
      case ExplainStepKind::kTableMatch:
        line = util::format(
            "table %u: %s -> match priority=%u cookie=0x%llx importance=%u",
            s.table_id, mask_summary(s).c_str(), s.priority,
            static_cast<unsigned long long>(s.cookie), s.importance);
        break;
      case ExplainStepKind::kTableMiss:
        line = util::format("table %u: %s -> no match", s.table_id,
                            mask_summary(s).c_str());
        break;
      case ExplainStepKind::kMeter:
        line = util::format("meter %u: %s", s.meter_id,
                            s.allowed ? "pass" : "drop (rate exceeded)");
        break;
      case ExplainStepKind::kGroup:
        if (s.bucket >= 0)
          line = util::format("group %u: bucket %d (hash point %llu of %llu)",
                              s.group_id, s.bucket,
                              static_cast<unsigned long long>(s.hash_point),
                              static_cast<unsigned long long>(s.total_weight));
        else
          line = util::format("group %u", s.group_id);
        break;
      case ExplainStepKind::kRewrite:
        line = "rewrite:";
        break;
      case ExplainStepKind::kOutput:
        line = util::format("output: port %u queue %u", s.port, s.queue_id);
        break;
      case ExplainStepKind::kPacketIn:
        line = util::format("packet_in: table %u", s.table_id);
        break;
      case ExplainStepKind::kDrop:
        line = "drop:";
        break;
    }
    if (!s.detail.empty()) line += " " + s.detail;
    out += "  " + line + "\n";
  }
  return out;
}

std::string ExplainTrace::to_json() const {
  std::string out = util::format("{\"dpid\":%llu,\"in_port\":%u,\"steps\":[",
                                 static_cast<unsigned long long>(dpid),
                                 in_port);
  bool first_step = true;
  for (const auto& s : steps) {
    if (!first_step) out += ',';
    first_step = false;
    out += util::format("{\"kind\":\"%s\",\"table\":%u",
                        to_string(s.kind), s.table_id);
    if (!s.masks.empty()) {
      out += ",\"masks\":[";
      bool first_mask = true;
      for (const auto& m : s.masks) {
        if (!first_mask) out += ',';
        first_mask = false;
        out += util::format(
            "{\"fields\":%d,\"max_priority\":%u,\"hit\":%s,\"pruned\":%s}",
            m.fields, m.max_priority, m.hit ? "true" : "false",
            m.pruned ? "true" : "false");
      }
      out += ']';
    }
    switch (s.kind) {
      case ExplainStepKind::kMegaflow:
        out += util::format(",\"hit\":%s", s.cache_hit ? "true" : "false");
        break;
      case ExplainStepKind::kTableMatch:
        out += util::format(",\"priority\":%u,\"cookie\":%llu,\"importance\":%u",
                            s.priority,
                            static_cast<unsigned long long>(s.cookie),
                            s.importance);
        break;
      case ExplainStepKind::kMeter:
        out += util::format(",\"meter\":%u,\"allowed\":%s", s.meter_id,
                            s.allowed ? "true" : "false");
        break;
      case ExplainStepKind::kGroup:
        out += util::format(
            ",\"group\":%u,\"bucket\":%d,\"hash_point\":%llu,"
            "\"total_weight\":%llu",
            s.group_id, s.bucket,
            static_cast<unsigned long long>(s.hash_point),
            static_cast<unsigned long long>(s.total_weight));
        break;
      case ExplainStepKind::kOutput:
      case ExplainStepKind::kPacketIn:
        out += util::format(",\"port\":%u,\"queue\":%u", s.port, s.queue_id);
        break;
      default:
        break;
    }
    if (!s.detail.empty())
      out += ",\"detail\":\"" + util::json_escape(s.detail) + "\"";
    out += '}';
  }
  out += "]}";
  return out;
}

}  // namespace zen::dataplane
