#include "harness/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "harness/auditor.hpp"
#include "topo/chaos.hpp"

namespace mrmtp::harness {

namespace {

/// Sums transmitted L2 bytes of one traffic class over every fabric port.
struct ByteSnapshot {
  std::uint64_t raw = 0;
  std::uint64_t padded = 0;
};

ByteSnapshot bgp_update_bytes(Deployment& dep) {
  ByteSnapshot snap;
  for (std::size_t d = 0; d < dep.router_count(); ++d) {
    net::Node& node = dep.router(static_cast<std::uint32_t>(d));
    for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
      const auto& c =
          node.port(p).tx_stats().of(net::TrafficClass::kBgpUpdate);
      snap.raw += c.bytes;
      snap.padded += c.padded_bytes;
    }
  }
  return snap;
}

ByteSnapshot mtp_update_bytes(Deployment& dep) {
  ByteSnapshot snap;
  for (std::size_t d = 0; d < dep.router_count(); ++d) {
    const auto& stats =
        dep.mtp(static_cast<std::uint32_t>(d)).mtp_stats();
    snap.raw += stats.update_bytes_raw;
    snap.padded += stats.update_bytes_padded;
  }
  return snap;
}

ByteSnapshot update_bytes(Deployment& dep) {
  return dep.proto() == Proto::kMtp ? mtp_update_bytes(dep)
                                    : bgp_update_bytes(dep);
}

/// Per-flow roll-up of the probe traffic between one sender/receiver pair.
/// The probe stream is open-ended (no total-count header), so instead of a
/// schedule join the FCT samples are delivery spans: first to last arrival.
traffic::FlowStats probe_flow_stats(const traffic::Host& sender,
                                    const traffic::Host& receiver) {
  traffic::FlowStats st;
  st.flows_started = sender.flows_started();
  st.packets_sent = sender.packets_sent();
  std::vector<double> spans;
  spans.reserve(receiver.flow_records().size());
  double sum = 0;
  for (const auto& [id, rec] : receiver.flow_records()) {
    ++st.flows_delivered;
    st.packets_delivered += rec.received;
    st.unique_delivered += rec.unique;
    st.duplicates += rec.duplicates;
    st.out_of_order += rec.out_of_order;
    st.ancient += rec.ancient;
    st.bytes_delivered += rec.bytes;
    if (rec.complete()) {
      ++st.flows_completed;
    } else {
      ++st.flows_incomplete;
    }
    const double ms = (rec.last_arrival - rec.first_arrival).to_millis();
    spans.push_back(ms);
    sum += ms;
  }
  std::sort(spans.begin(), spans.end());
  st.fct_samples = spans.size();
  if (!spans.empty()) {
    st.fct_p50_ms = traffic::quantile_sorted(spans, 0.50);
    st.fct_p99_ms = traffic::quantile_sorted(spans, 0.99);
    st.fct_p999_ms = traffic::quantile_sorted(spans, 0.999);
    st.fct_mean_ms = sum / static_cast<double>(spans.size());
    st.fct_min_ms = spans.front();
    st.fct_max_ms = spans.back();
  }
  return st;
}

}  // namespace

ExperimentResult run_failure_experiment(const ExperimentSpec& spec) {
  topo::ClosBlueprint blueprint(spec.topo);
  net::SimContext ctx(spec.seed);
  Deployment dep(ctx, blueprint, spec.proto, spec.options);

  const sim::Time t_traffic = sim::Time::zero() + spec.settle;
  const sim::Time t_fail = t_traffic + spec.traffic_lead;
  const sim::Time t_end = t_fail + spec.post_failure;
  const sim::Time t_run_end = t_end + sim::Duration::millis(200);

  // --- instrumentation (armed at t_fail - 1ns, after the pre-failure
  // snapshot, so it precedes every event at t_fail) ---
  struct Track {
    bool changed_any = false;
    bool changed_remote = false;
  };
  std::vector<Track> tracks(dep.router_count());
  sim::Time last_update = sim::Time::zero();
  std::uint64_t update_events = 0;
  std::optional<sim::Time> first_detect;
  bool armed = false;

  auto note_update = [&armed, &last_update, &update_events](sim::Time at) {
    if (!armed) return;
    last_update = std::max(last_update, at);
    ++update_events;
  };
  auto note_detection = [&armed, &first_detect](sim::Time at) {
    if (armed && !first_detect) first_detect = at;
  };
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    Track& track = tracks[d];
    if (spec.proto == Proto::kMtp) {
      auto& router = dep.mtp(d);
      router.on_update_activity = note_update;
      router.on_table_change = [&track, &armed](sim::Time, bool from_update) {
        if (!armed) return;
        track.changed_any = true;
        if (from_update) track.changed_remote = true;
      };
      router.on_neighbor_down = [note_detection](sim::Time at, std::uint32_t,
                                                 bool local_detect) {
        if (local_detect) note_detection(at);
      };
    } else {
      auto& router = dep.bgp(d);
      router.on_update_activity = note_update;
      router.on_session_down = [note_detection](sim::Time at, ip::Ipv4Addr,
                                                std::string_view) {
        note_detection(at);
      };
      router.on_rib_change = [&track, &armed](sim::Time) {
        if (!armed) return;
        track.changed_any = true;
        track.changed_remote = true;
      };
    }
  }

  dep.start();

  // --- traffic ---
  traffic::Host* sender = nullptr;
  traffic::Host* receiver = nullptr;
  if (spec.with_traffic && dep.host_count() >= 2) {
    std::uint32_t first = 0;
    auto last = static_cast<std::uint32_t>(dep.host_count() - 1);
    sender = &dep.host(spec.reverse_flow ? last : first);
    receiver = &dep.host(spec.reverse_flow ? first : last);
    receiver->listen();
    ctx.sched.schedule_at(t_traffic, [&, sender, receiver] {
      traffic::FlowConfig flow;
      flow.dst = receiver->addr();
      flow.src_port = spec.traffic_src_port;
      flow.gap = spec.traffic_gap;
      flow.payload_size = spec.payload_size;
      sender->start_flow(flow);
    });
    ctx.sched.schedule_at(t_end, [sender] { sender->stop_flow(); });
  }

  // --- failure ---
  ExperimentResult result;
  ByteSnapshot before;
  const topo::FailurePoint fp = blueprint.failure_point(spec.tc);
  topo::FailureInjector injector(dep.network(), blueprint);
  topo::ChaosEngine chaos(dep.network(), blueprint, spec.seed);
  using GrayKind = ExperimentSpec::GraySpec::Kind;
  switch (spec.gray.kind) {
    case GrayKind::kNone:
      injector.schedule_failure(spec.tc, t_fail);
      break;
    case GrayKind::kUnidirBlackhole:
      chaos.blackhole_one_way(fp, spec.gray.toward_device, t_fail);
      break;
    case GrayKind::kUnidirLoss:
      chaos.loss_one_way(fp, spec.gray.toward_device, spec.gray.loss, t_fail);
      break;
    case GrayKind::kFlapStorm:
      chaos.flap_storm(fp, t_fail, spec.gray.flaps, spec.gray.flap_period);
      break;
  }

  std::optional<FabricAuditor> auditor;
  if (spec.audit) auditor.emplace(dep);
  AuditedEngine run(ctx.sched, auditor ? &*auditor : nullptr, t_traffic,
                    spec.audit_period, t_run_end);

  auto wall_start = std::chrono::steady_clock::now();
  run.run_until(t_fail - sim::Duration::nanos(1));
  result.initial_converged = dep.converged();
  before = update_bytes(dep);
  armed = true;
  run.run_until(t_run_end);
  result.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  result.update_events = update_events;
  if (update_events > 0) result.convergence = last_update - t_fail;
  if (first_detect) {
    result.failure_detected = true;
    result.detection_latency = *first_detect - t_fail;
  }

  if (auditor) {
    result.final_sweep_violations = auditor->sweep();
    result.audit_sweeps = auditor->sweeps();
    result.audit_violations =
        auditor->violations().size() - result.final_sweep_violations;
  }

  std::uint32_t owner = blueprint.device_index(fp.device);
  std::uint32_t peer = blueprint.device_index(fp.peer);
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    if (tracks[d].changed_any) ++result.blast_any;
    bool remote = tracks[d].changed_remote && d != owner && d != peer;
    if (remote) {
      ++result.blast_remote;
      if (blueprint.device(d).role == topo::Role::kLeaf) {
        ++result.blast_leaf_remote;
      }
    }
  }

  ByteSnapshot after = update_bytes(dep);
  result.ctrl_bytes_raw = after.raw - before.raw;
  result.ctrl_bytes_padded = after.padded - before.padded;

  result.events_fired = ctx.sched.events_fired();
  result.queue_high_water = ctx.sched.queue_high_water();
  result.sched_reschedules = ctx.sched.reschedules();
  result.sched_compactions = ctx.sched.compactions();
  if (spec.proto == Proto::kMtp) {
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      const auto& ms = dep.mtp(d).mtp_stats();
      result.allocs_avoided += ms.allocs_avoided;
      result.up_cache_hits += ms.up_cache_hits;
      result.up_cache_misses += ms.up_cache_misses;
    }
  } else {
    for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
      const auto& ss = dep.bgp(d).routes().select_stats();
      result.allocs_avoided += ss.allocs_avoided;
      result.up_cache_hits += ss.cache_hits;
      result.up_cache_misses += ss.cache_misses;
    }
  }

  for (const auto& link : dep.network().links()) {
    const net::Link::Stats& ls = link->stats();
    for (const net::Link::DirStats* ds : {&ls.ab, &ls.ba}) {
      result.ctrl_queue_drops += ds->dropped_queue_control;
      result.data_queue_drops +=
          ds->dropped_queue_full - ds->dropped_queue_control;
      result.ctrl_backlog_hw_ns =
          std::max(result.ctrl_backlog_hw_ns, ds->control_backlog_hw_ns);
      result.data_backlog_hw_ns =
          std::max(result.data_backlog_hw_ns, ds->data_backlog_hw_ns);
      result.ecn_marked += ds->ecn_marked_data + ds->ecn_marked_ctrl;
      result.pause_tx += ds->pause_tx;
      result.pause_rx += ds->pause_rx;
      result.buffer_drops += ds->dropped_buffer;
      result.flowlet_reroutes += ds->flowlet_reroutes;
      result.wcmp_weight_updates += ds->wcmp_weight_updates;
    }
  }

  if (sender != nullptr && receiver != nullptr) {
    result.packets_sent = sender->packets_sent();
    const auto& sink = receiver->sink_stats();
    result.packets_lost = sink.lost(result.packets_sent);
    result.duplicates = sink.duplicates;
    result.out_of_order = sink.out_of_order;
    result.outage = sink.max_gap;
    result.flow_stats = probe_flow_stats(*sender, *receiver);
  }

  return result;
}

AveragedResult run_averaged(ExperimentSpec spec,
                            const std::vector<std::uint64_t>& seeds) {
  AveragedResult avg;
  double cache_hits = 0;
  double cache_misses = 0;
  for (std::uint64_t seed : seeds) {
    spec.seed = seed;
    ExperimentResult r = run_failure_experiment(spec);
    avg.convergence_ms += r.convergence.to_millis();
    avg.blast_any += static_cast<double>(r.blast_any);
    avg.blast_remote += static_cast<double>(r.blast_remote);
    avg.blast_leaf_remote += static_cast<double>(r.blast_leaf_remote);
    avg.ctrl_bytes_raw += static_cast<double>(r.ctrl_bytes_raw);
    avg.ctrl_bytes_padded += static_cast<double>(r.ctrl_bytes_padded);
    avg.packets_lost += static_cast<double>(r.packets_lost);
    avg.duplicates += static_cast<double>(r.duplicates);
    avg.out_of_order += static_cast<double>(r.out_of_order);
    avg.outage_ms += r.outage.to_millis();
    avg.audit_violations += static_cast<double>(r.audit_violations);
    avg.final_violations += static_cast<double>(r.final_sweep_violations);
    if (r.wall_seconds > 0) {
      avg.events_per_sec +=
          static_cast<double>(r.events_fired) / r.wall_seconds;
    }
    avg.queue_high_water = std::max(
        avg.queue_high_water, static_cast<double>(r.queue_high_water));
    avg.allocs_avoided += static_cast<double>(r.allocs_avoided);
    avg.ctrl_queue_drops += static_cast<double>(r.ctrl_queue_drops);
    avg.data_queue_drops += static_cast<double>(r.data_queue_drops);
    avg.ecn_marked += static_cast<double>(r.ecn_marked);
    avg.pause_tx += static_cast<double>(r.pause_tx);
    avg.pause_rx += static_cast<double>(r.pause_rx);
    avg.buffer_drops += static_cast<double>(r.buffer_drops);
    avg.ctrl_backlog_hw_ns = std::max(
        avg.ctrl_backlog_hw_ns, static_cast<double>(r.ctrl_backlog_hw_ns));
    avg.data_backlog_hw_ns = std::max(
        avg.data_backlog_hw_ns, static_cast<double>(r.data_backlog_hw_ns));
    cache_hits += static_cast<double>(r.up_cache_hits);
    cache_misses += static_cast<double>(r.up_cache_misses);
    avg.convergence_dist.add(r.convergence.to_millis());
    avg.loss_dist.add(static_cast<double>(r.packets_lost));
    avg.ctrl_bytes_dist.add(static_cast<double>(r.ctrl_bytes_raw));
    if (r.failure_detected) {
      ++avg.detected_runs;
      avg.detection_ms += r.detection_latency.to_millis();
      avg.detection_dist.add(r.detection_latency.to_millis());
    }
    ++avg.runs;
    if (r.initial_converged) ++avg.converged_runs;
  }
  if (avg.detected_runs > 0) avg.detection_ms /= avg.detected_runs;
  if (avg.runs > 0) {
    double n = avg.runs;
    avg.convergence_ms /= n;
    avg.blast_any /= n;
    avg.blast_remote /= n;
    avg.blast_leaf_remote /= n;
    avg.ctrl_bytes_raw /= n;
    avg.ctrl_bytes_padded /= n;
    avg.packets_lost /= n;
    avg.duplicates /= n;
    avg.out_of_order /= n;
    avg.outage_ms /= n;
    avg.audit_violations /= n;
    avg.final_violations /= n;
    avg.events_per_sec /= n;
    avg.allocs_avoided /= n;
    avg.ctrl_queue_drops /= n;
    avg.data_queue_drops /= n;
    avg.ecn_marked /= n;
    avg.pause_tx /= n;
    avg.pause_rx /= n;
    avg.buffer_drops /= n;
  }
  if (cache_hits + cache_misses > 0) {
    avg.cache_hit_rate = cache_hits / (cache_hits + cache_misses);
  }
  return avg;
}

}  // namespace mrmtp::harness
