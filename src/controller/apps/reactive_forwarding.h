// ReactiveForwarding: on-demand path installation (the ONOS "fwd" app).
//
// Unlike L3Routing (which proactively installs routes for every known host
// on every switch), this app reacts to each PacketIn: it computes the
// shortest path for that (src, dst) pair, installs idle-timing-out rules
// along it — on every switch of the path at once — and forwards the
// triggering packet. Rule state thus tracks the active traffic matrix
// rather than the host population: fewer rules, more controller load.
#pragma once

#include "controller/controller.h"

namespace zen::controller::apps {

class ReactiveForwarding : public App {
 public:
  struct Options {
    std::uint16_t rule_priority = 120;
    std::uint16_t idle_timeout_s = 10;
    std::uint8_t table_id = 0;
    bool match_l4 = false;  // true: per-5-tuple rules instead of per-pair
  };

  ReactiveForwarding() : ReactiveForwarding(Options()) {}
  explicit ReactiveForwarding(Options options) : options_(options) {}

  std::string name() const override { return "reactive_forwarding"; }
  void on_switch_up(Dpid dpid, const openflow::FeaturesReply&) override;
  bool on_packet_in(const PacketInEvent& event) override;

  std::uint64_t paths_installed() const noexcept { return paths_installed_; }

 private:
  Options options_;
  std::uint64_t paths_installed_ = 0;
};

}  // namespace zen::controller::apps
