// Failure injection: the simulator's version of the paper's bash script that
// brings an interface down on the target node and records the instant (the
// convergence-time start mark, Section VI.B).
#pragma once

#include <optional>
#include <stdexcept>

#include "net/network.hpp"
#include "topo/clos.hpp"

namespace mrmtp::topo {

class FailureInjector {
 public:
  FailureInjector(net::Network& network, const ClosBlueprint& blueprint)
      : network_(network), blueprint_(blueprint) {}

  /// Schedules the TC's interface to go down at `at`. The failure point is
  /// captured by value: a later schedule_failure() cannot retarget callbacks
  /// already queued.
  void schedule_failure(TestCase tc, sim::Time at) {
    point_ = blueprint_.failure_point(tc);
    FailurePoint fp = *point_;
    network_.find(fp.device).ctx().sched.schedule_at(at, [this, fp] {
      net::Node& node = network_.find(fp.device);
      failed_at_ = node.ctx().now();
      node.set_interface_down(fp.port);
    });
  }

  /// Schedules the failed interface to come back up at `at` (flap studies).
  /// Requires a prior schedule_failure(); throws instead of dereferencing an
  /// empty failure point.
  void schedule_recovery(sim::Time at) {
    if (!point_.has_value()) {
      throw std::logic_error(
          "FailureInjector::schedule_recovery before schedule_failure");
    }
    FailurePoint fp = *point_;
    network_.find(fp.device).ctx().sched.schedule_at(at, [this, fp] {
      network_.find(fp.device).set_interface_up(fp.port);
    });
  }

  /// Whole-router failure (§IX "extended failure test cases"): every
  /// interface of `device` goes down at `at`, like a crashed/rebooted node.
  void schedule_node_failure(const std::string& device, sim::Time at) {
    network_.find(device).ctx().sched.schedule_at(at, [this, device] {
      net::Node& node = network_.find(device);
      failed_at_ = node.ctx().now();
      for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
        node.set_interface_down(p);
      }
    });
  }

  void schedule_node_recovery(const std::string& device, sim::Time at) {
    network_.find(device).ctx().sched.schedule_at(at, [this, device] {
      net::Node& node = network_.find(device);
      for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
        node.set_interface_up(p);
      }
    });
  }

  /// The recorded failure instant; empty until the failure fires.
  [[nodiscard]] std::optional<sim::Time> failure_time() const { return failed_at_; }
  [[nodiscard]] const std::optional<FailurePoint>& point() const { return point_; }

 private:
  net::Network& network_;
  const ClosBlueprint& blueprint_;
  std::optional<FailurePoint> point_;
  std::optional<sim::Time> failed_at_;
};

}  // namespace mrmtp::topo
