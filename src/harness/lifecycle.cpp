#include "harness/lifecycle.hpp"

#include <stdexcept>

namespace mrmtp::harness {

LifecycleEngine::LifecycleEngine(Deployment& dep, FabricAuditor& auditor)
    : LifecycleEngine(dep, auditor, Options{}) {}

LifecycleEngine::LifecycleEngine(Deployment& dep, FabricAuditor& auditor,
                                 Options opts)
    : dep_(dep), auditor_(auditor), opts_(opts) {}

std::vector<std::uint32_t> LifecycleEngine::all_spines() const {
  std::vector<std::uint32_t> out;
  const auto& devices = dep_.blueprint().devices();
  for (std::uint32_t d = 0; d < devices.size(); ++d) {
    if (devices[d].role != topo::Role::kLeaf) out.push_back(d);
  }
  return out;
}

std::vector<std::uint32_t> LifecycleEngine::pod_routers(
    std::uint32_t global_pod) const {
  std::vector<std::uint32_t> out;
  const auto& bp = dep_.blueprint();
  for (std::uint32_t d = 0; d < bp.devices().size(); ++d) {
    const auto& spec = bp.device(d);
    if (spec.role != topo::Role::kLeaf && spec.role != topo::Role::kPodSpine) {
      continue;
    }
    if ((spec.cluster - 1) * bp.params().pods + spec.pod == global_pod) {
      out.push_back(d);
    }
  }
  return out;
}

std::vector<std::uint32_t> LifecycleEngine::canary() const {
  const auto& devices = dep_.blueprint().devices();
  for (std::uint32_t d = 0; d < devices.size(); ++d) {
    if (devices[d].role == topo::Role::kPodSpine) return {d};
  }
  throw std::logic_error("LifecycleEngine: fabric has no pod spine");
}

void LifecycleEngine::record(sim::Time at, topo::GrayKind kind,
                             topo::ChaosPhase phase, std::string description) {
  topo::ChaosEventRecord rec{at, kind, phase, std::move(description)};
  events_.push_back(rec);
  if (chaos_ != nullptr) chaos_->append_event(std::move(rec));
}

void LifecycleEngine::rolling_upgrade(const std::vector<std::uint32_t>& devices,
                                      sim::Time at) {
  // Strictly serial: the next router only starts once the previous one's
  // reconvergence window closed — the paper-operational "one failure domain
  // at a time" rule that keeps the disruption budget per-router.
  sim::Time t0 = at;
  for (std::uint32_t d : devices) {
    schedule_upgrade(d, t0);
    t0 = t0 + opts_.drain_grace + opts_.reboot_hold + opts_.reconverge_window;
  }
}

void LifecycleEngine::schedule_upgrade(std::uint32_t device, sim::Time t0) {
  const std::string name = dep_.router(device).name();
  const sim::Time t_stop = t0 + opts_.drain_grace;
  const sim::Time t_boot = t_stop + opts_.reboot_hold;
  const sim::Time t_end = t_boot + opts_.reconverge_window;

  const std::size_t idx = phases_.size();
  phases_.push_back(
      LifecyclePhase{"upgrade " + name, name, t0, t_stop, t_end, {}, false});
  auditor_.declare_window(t0, t_end);

  sim::Scheduler& sched = dep_.router(device).ctx().sched;
  sched.schedule_at(t0, [this, device, t0, name] {
    record(t0, topo::GrayKind::kMaintenance, topo::ChaosPhase::kOnset,
           name + " draining (cost-out)");
    dep_.drain_router(device);
  });
  sched.schedule_at(t_stop, [this, device, t_stop, name] {
    record(t_stop, topo::GrayKind::kMaintenance, topo::ChaosPhase::kOnset,
           name + " powered off (state wiped)");
    dep_.stop_router(device);
  });
  sched.schedule_at(t_boot, [this, device, t_boot, t_end, idx, name] {
    record(t_boot, topo::GrayKind::kMaintenance, topo::ChaosPhase::kOnset,
           name + " cold-booting (rejoin)");
    dep_.restart_router(device);
    poll_phase(idx, t_end);
  });
}

void LifecycleEngine::expand_pod(std::uint32_t global_pod, sim::Time at) {
  const sim::Time t_end = at + opts_.reconverge_window;
  const std::size_t idx = phases_.size();
  phases_.push_back(LifecyclePhase{"expand pod " + std::to_string(global_pod),
                                   "", at, at, t_end, {}, false});
  auditor_.declare_window(at, t_end);
  dep_.ctx().sched.schedule_at(at, [this, global_pod, at, t_end, idx] {
    record(at, topo::GrayKind::kExpansion, topo::ChaosPhase::kOnset,
           "pod " + std::to_string(global_pod) + " powered into the fabric");
    dep_.activate_pod(global_pod);
    poll_phase(idx, t_end);
  });
}

void LifecycleEngine::misconfig_asymmetric_down(std::uint32_t device,
                                                std::uint32_t port,
                                                sim::Time at) {
  const std::string name = dep_.router(device).name();
  const sim::Time t_end = at + opts_.reconverge_window;
  const std::size_t idx = phases_.size();
  phases_.push_back(LifecyclePhase{
      "misconfig " + name + ":" + std::to_string(port), name, at, at, t_end,
      {}, false});
  auditor_.declare_window(at, t_end);
  sim::Scheduler& sched = dep_.router(device).ctx().sched;
  sched.schedule_at(at, [this, device, port, at, t_end, idx, name] {
    record(at, topo::GrayKind::kMisconfig, topo::ChaosPhase::kOnset,
           name + ":" + std::to_string(port) +
               " admin-down one-sided (peer not notified)");
    dep_.admin_down_port(device, port);
    poll_phase(idx, t_end);
  });
}

void LifecycleEngine::poll_phase(std::size_t idx, sim::Time deadline) {
  if (dep_.converged()) {
    LifecyclePhase& ph = phases_[idx];
    ph.reconverged = dep_.ctx().now();
    ph.saw_reconverge = true;
    record(ph.reconverged, topo::GrayKind::kMaintenance,
           topo::ChaosPhase::kHeal, ph.name + " reconverged");
    return;
  }
  sim::Time next = dep_.ctx().now() + opts_.poll;
  if (next > deadline) return;  // window closed without convergence
  dep_.ctx().sched.schedule_at(next,
                               [this, idx, deadline] { poll_phase(idx, deadline); });
}

bool LifecycleEngine::all_reconverged() const {
  for (const LifecyclePhase& ph : phases_) {
    if (!ph.saw_reconverge) return false;
  }
  return true;
}

std::vector<Violation> LifecycleEngine::drain_violations() const {
  std::vector<Violation> out;
  for (const LifecyclePhase& ph : phases_) {
    if (ph.device.empty() || !(ph.start < ph.drain_until)) continue;
    for (const Violation& v : auditor_.violations()) {
      if (v.device == ph.device && v.at >= ph.start && v.at <= ph.drain_until) {
        out.push_back(v);
      }
    }
  }
  return out;
}

}  // namespace mrmtp::harness
