// LifecycleEngine: scripted production maintenance on a live deployment.
//
// Production Clos fabrics are never static: routers get rolling firmware
// upgrades, new pods are wired in while traffic flows, and operators fat-
// finger configs. The engine scripts those events against a running
// Deployment the same way ChaosEngine scripts gray failures:
//
//   * rolling_upgrade(): per-router drain (graceful cost-out) -> grace
//     period for in-flight traffic -> power-off with a full control-plane
//     state wipe -> cold rejoin -> re-convergence audit, serially over an
//     operator-chosen set (all spines, one pod, a canary);
//   * expand_pod(): powers a dark-wired pod (DeployOptions::deferred_pods)
//     into the running fabric and audits the merge;
//   * misconfig_asymmetric_down(): the classic one-sided "shutdown" — the
//     far end keeps believing in the link until its dead timer fires.
//
// Every phase declares a reconvergence window on the FabricAuditor;
// violations outside any declared window are hard failures, and violations
// attributed to a router *while it drains* are failures too — a draining
// router is healthy by definition, and the auditor must be able to tell
// "draining" from "broken".
//
// Events are logged as topo::ChaosEventRecord so a run mixing chaos and
// lifecycle reads as one chronology (attach_chaos shares the timeline).
//
// Lifetime: scheduled events capture `this`; the engine must outlive the
// scheduler run it armed.
#pragma once

#include <string>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/deploy.hpp"
#include "topo/chaos.hpp"

namespace mrmtp::harness {

/// One scripted maintenance action and its audit bookkeeping.
struct LifecyclePhase {
  std::string name;    // "upgrade S-1-1", "expand pod 8", ...
  std::string device;  // primary device (empty for pod-wide actions)
  sim::Time start;         // drain begins / pod powers on / misconfig lands
  sim::Time drain_until;   // end of the graceful cost-out (== start if none)
  sim::Time window_end;    // declared reconvergence deadline
  sim::Time reconverged;   // first instant converged() held again (unset: never)
  bool saw_reconverge = false;
};

class LifecycleEngine {
 public:
  struct Options {
    /// Drain -> power-off gap: how long in-flight traffic may keep using
    /// the costed-out router while neighbors shift away.
    sim::Duration drain_grace = sim::Duration::millis(250);
    /// Power-off -> cold-boot gap (the "firmware flash").
    sim::Duration reboot_hold = sim::Duration::millis(150);
    /// Declared re-convergence window after the disruptive step.
    sim::Duration reconverge_window = sim::Duration::seconds(2);
    /// Convergence polling cadence inside a window.
    sim::Duration poll = sim::Duration::millis(10);
  };

  LifecycleEngine(Deployment& dep, FabricAuditor& auditor);
  LifecycleEngine(Deployment& dep, FabricAuditor& auditor, Options opts);

  /// Mirrors every lifecycle event into the chaos engine's timeline.
  void attach_chaos(topo::ChaosEngine& chaos) { chaos_ = &chaos; }

  // --- target sets ---
  /// Every non-leaf router (pod spines, top spines, super spines).
  [[nodiscard]] std::vector<std::uint32_t> all_spines() const;
  /// Leaves and pod spines of one global pod (1-based).
  [[nodiscard]] std::vector<std::uint32_t> pod_routers(
      std::uint32_t global_pod) const;
  /// The canary: the fabric's first pod spine.
  [[nodiscard]] std::vector<std::uint32_t> canary() const;

  // --- scripted actions (schedule now, run inside the simulation) ---
  /// Serial rolling upgrade over `devices` starting at `at`: each router is
  /// drained, powered off after drain_grace, cold-booted after reboot_hold,
  /// then given reconverge_window to rejoin before the next router starts.
  void rolling_upgrade(const std::vector<std::uint32_t>& devices, sim::Time at);
  /// Powers the deferred pod into the fabric at `at` and audits the merge.
  void expand_pod(std::uint32_t global_pod, sim::Time at);
  /// One-sided admin-down of `device`'s `port` (the peer is not told — it
  /// must notice via its own dead timer). The fabric is expected to route
  /// around the misconfiguration within the declared window.
  void misconfig_asymmetric_down(std::uint32_t device, std::uint32_t port,
                                 sim::Time at);

  // --- post-run assertions ---
  [[nodiscard]] const std::vector<LifecyclePhase>& phases() const {
    return phases_;
  }
  [[nodiscard]] const std::vector<topo::ChaosEventRecord>& events() const {
    return events_;
  }
  /// True once every scheduled phase re-converged inside its window.
  [[nodiscard]] bool all_reconverged() const;
  /// Auditor violations outside every declared window (must be empty).
  [[nodiscard]] std::vector<Violation> out_of_window_violations() const {
    return auditor_.violations_outside_windows();
  }
  /// Violations attributed to a router during its own drain interval — a
  /// draining router is healthy by definition, so this must be empty even
  /// though the interval lies inside a declared window.
  [[nodiscard]] std::vector<Violation> drain_violations() const;

 private:
  void schedule_upgrade(std::uint32_t device, sim::Time t0);
  /// Self-rescheduling convergence poll for phase `idx` until `deadline`.
  void poll_phase(std::size_t idx, sim::Time deadline);
  void record(sim::Time at, topo::GrayKind kind, topo::ChaosPhase phase,
              std::string description);

  Deployment& dep_;
  FabricAuditor& auditor_;
  Options opts_;
  topo::ChaosEngine* chaos_ = nullptr;
  std::vector<LifecyclePhase> phases_;
  std::vector<topo::ChaosEventRecord> events_;
};

}  // namespace mrmtp::harness
