// Benchmark driver for the MR-MTP / BGP folded-Clos fabric simulator.
//
//   fabric_bench --workload NAME --seed N --seconds S --trace 0|1
//
// Prints one JSON record per line; perfbench/run.py turns them into metrics,
// checks the simulated outputs, and prints the benchmark's result line.
//
// Untraced mode (--trace 0) repeats the workload for S seconds through the
// simulator's public entry points (harness::run_failure_experiment,
// run_workload), with a batch of deployment-construction timings before each
// iteration. Every simulated run and every construction timing runs in a
// child process forked from the measuring process, which builds nothing
// itself; a websearch campaign's child is stopped at a CPU budget, because at
// some seeds run_workload livelocks.
// Traced mode (--trace 1) runs one untraced iteration as the reference, then
// drives the same scenario step by step with a span around each call, and
// reads every layer's counters from the public stats accessors.
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "harness/auditor.hpp"
#include "harness/experiment.hpp"
#include "harness/workload.hpp"
#include "util/json.hpp"

namespace {

using namespace mrmtp;
using harness::Proto;
using util::Json;
using util::JsonArray;
using util::JsonObject;
using Clock = std::chrono::steady_clock;

// Engine pinning, the one place it is set: every workload runs on the
// per-entity-RNG engine at one shard. Only this engine's simulated results
// do not depend on the shard count, and it is the layout the simulator is
// converging on, so an engine refactor must not move any simulated outcome.
constexpr std::uint32_t kShards = 1;

template <typename Spec>
void pin_engine(Spec& spec) {
  spec.threads = kShards;
  spec.force_parallel_engine = true;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Seeds handed to the simulator: small positive integers derived from the
/// workload seed, so a run is reproducible from (workload, seed) alone.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  return 1 + splitmix64(seed * 1000003ull + index) % 1'000'000'000ull;
}

Json num(std::uint64_t v) { return Json(static_cast<std::int64_t>(v)); }

// ---------------------------------------------------------------------------
// Workload definitions
// ---------------------------------------------------------------------------

enum class Kind { kFailure, kWebsearch };

struct Workload {
  const char* name;
  Kind kind;
  Proto proto;
};

constexpr Workload kWorkloads[] = {
    {"clos64_bgpbfd_tc1", Kind::kFailure, Proto::kBgpBfd},
    {"websearch_asym8", Kind::kWebsearch, Proto::kMtp},
};

/// 64-PoD fabric (392 routers) failing at TC1 — the scale where control-plane
/// cost decides host time — with the auditor at its 250 ms default period.
harness::ExperimentSpec clos64_spec(Proto proto, std::uint64_t seed) {
  harness::ExperimentSpec spec;
  spec.topo = {64, 2, 4, 8, 1};
  spec.proto = proto;
  spec.tc = topo::TestCase::kTC1;
  spec.seed = seed;
  spec.settle = sim::Duration::seconds(5);
  spec.audit = true;
  pin_engine(spec);
  return spec;
}

/// Websearch flows at 50% load on the 2:1 oversubscribed asymmetric 8-PoD
/// fabric under MR-MTP with WCMP + flowlets and finite ECN/PFC switch
/// buffers; TC1 fails 300 ms into a 6 s launch window. Edge and fabric
/// speeds follow bench_wcmp_sweep so the half-rate stripe really queues.
harness::WorkloadRunSpec websearch_spec(std::uint64_t seed) {
  harness::WorkloadRunSpec spec;
  spec.topo = topo::ClosParams::asymmetric_8pod_oversub();
  spec.proto = Proto::kMtp;
  spec.seed = seed;
  spec.options.host_link.bandwidth_bps = 100'000'000ull;
  spec.options.host_link.max_queue = sim::Duration::seconds(1);
  spec.options.link.bandwidth_bps = 250'000'000ull;
  spec.options.link.max_queue = sim::Duration::seconds(1);
  spec.options.path_select = util::PathSelect::kWcmpFlowlet;
  spec.options.switch_buffer = net::SwitchBufferParams{};
  spec.workload.cdf = traffic::FlowSizeCdf::websearch();
  spec.workload.load = 0.5;
  spec.workload.size_scale = 0.02;
  spec.workload.payload_size = 1000;
  spec.launch_window = sim::Duration::seconds(6);
  spec.inject_failure = true;
  spec.tc = topo::TestCase::kTC1;
  // One final sweep after the run: the PFC-deadlock verdict the output
  // check reads.
  spec.audit = true;
  pin_engine(spec);
  return spec;
}

/// Websearch campaigns per iteration. One campaign's host cost swings by
/// about half between seeds (its congestion, and so its event count, is
/// seed-dependent), so an iteration sums several: with three, the event
/// count of an iteration still moved by about a tenth between workload seeds.
constexpr std::size_t kWebsearchCampaigns = 6;

/// Simulator seeds of one iteration, all derived from the workload seed.
std::vector<std::uint64_t> sim_seeds(const Workload& w, std::uint64_t seed) {
  const std::size_t n = w.kind == Kind::kWebsearch ? kWebsearchCampaigns : 1;
  std::vector<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < n; ++i) seeds.push_back(derive_seed(seed, i));
  return seeds;
}

/// Simulated runs one iteration makes (the benchmark's operations).
std::size_t runs_per_iteration(const Workload& w) {
  return sim_seeds(w, 0).size();
}

// ---------------------------------------------------------------------------
// Simulated results as JSON (host-time fields left out: these records are
// compared bit for bit between runs)
// ---------------------------------------------------------------------------

Json flow_json(const traffic::FlowStats& f) {
  Json j;
  j["flows_started"] = num(f.flows_started);
  j["flows_delivered"] = num(f.flows_delivered);
  j["flows_completed"] = num(f.flows_completed);
  j["flows_incomplete"] = num(f.flows_incomplete);
  j["packets_sent"] = num(f.packets_sent);
  j["packets_delivered"] = num(f.packets_delivered);
  j["unique_delivered"] = num(f.unique_delivered);
  j["duplicates"] = num(f.duplicates);
  j["out_of_order"] = num(f.out_of_order);
  j["ancient"] = num(f.ancient);
  j["bytes_offered"] = num(f.bytes_offered);
  j["bytes_delivered"] = num(f.bytes_delivered);
  j["ecn_marked"] = num(f.ecn_marked);
  j["ecn_echoes"] = num(f.ecn_echoes);
  j["pause_blocked_ns"] = num(f.pause_blocked_ns);
  j["fct_samples"] = num(f.fct_samples);
  j["fct_p50_ms"] = f.fct_p50_ms;
  j["fct_p99_ms"] = f.fct_p99_ms;
  j["fct_p999_ms"] = f.fct_p999_ms;
  j["fct_mean_ms"] = f.fct_mean_ms;
  j["fct_max_ms"] = f.fct_max_ms;
  j["max_gap_ms"] = f.max_gap_ms;
  j["flowlet_reroutes"] = num(f.flowlet_reroutes);
  j["wcmp_weight_updates"] = num(f.wcmp_weight_updates);
  return j;
}

Json failure_json(const harness::ExperimentResult& r) {
  Json j;
  j["initial_converged"] = r.initial_converged;
  j["convergence_ms"] = r.convergence.to_millis();
  j["update_events"] = num(r.update_events);
  j["blast_any"] = num(r.blast_any);
  j["blast_remote"] = num(r.blast_remote);
  j["ctrl_bytes_raw"] = num(r.ctrl_bytes_raw);
  j["ctrl_bytes_padded"] = num(r.ctrl_bytes_padded);
  j["packets_sent"] = num(r.packets_sent);
  j["packets_lost"] = num(r.packets_lost);
  j["duplicates"] = num(r.duplicates);
  j["out_of_order"] = num(r.out_of_order);
  j["outage_ms"] = r.outage.to_millis();
  j["audit_sweeps"] = num(r.audit_sweeps);
  j["audit_violations"] = num(r.audit_violations);
  j["final_sweep_violations"] = num(r.final_sweep_violations);
  j["events_fired"] = num(r.events_fired);
  j["ctrl_queue_drops"] = num(r.ctrl_queue_drops);
  j["data_queue_drops"] = num(r.data_queue_drops);
  return j;
}

Json workload_json(const harness::WorkloadRunResult& r) {
  Json j;
  j["initial_converged"] = r.initial_converged;
  j["flows"] = flow_json(r.flows);
  j["events_fired"] = num(r.events_fired);
  j["data_queue_drops"] = num(r.data_queue_drops);
  j["ecn_marked"] = num(r.ecn_marked);
  j["pause_tx"] = num(r.pause_tx);
  j["pause_rx"] = num(r.pause_rx);
  j["buffer_drops"] = num(r.buffer_drops);
  j["ctrl_queue_drops"] = num(r.ctrl_queue_drops);
  j["occupancy_hw_ratio"] = r.occupancy_hw_ratio;
  j["pfc_deadlocks"] = num(r.pfc_deadlocks);
  j["audit_violations"] = num(r.audit_violations);
  return j;
}

// ---------------------------------------------------------------------------
// Tracing: spans kept in memory, written when the run ends
// ---------------------------------------------------------------------------

class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int parent = -1;
  };

  /// Times `fn` as a span named `name`, nested under the innermost open span.
  template <typename Fn>
  decltype(auto) span(const char* name, Fn&& fn) {
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(Span{name, now(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    struct Close {
      Tracer* t;
      int id;
      ~Close() {
        t->spans_[static_cast<std::size_t>(id)].end = t->now();
        t->open_.pop_back();
      }
    } close{this, id};
    return fn();
  }

  [[nodiscard]] Json json() const {
    JsonArray arr;
    for (const Span& s : spans_) {
      Json j;
      j["name"] = s.name;
      j["start"] = s.start;
      j["end"] = s.end;
      j["parent"] = s.parent;
      arr.push_back(std::move(j));
    }
    return Json(std::move(arr));
  }

 private:
  [[nodiscard]] double now() const { return seconds_since(t0_); }

  Clock::time_point t0_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Per-layer counters read from the public stats accessors, summed over
/// every run a traced iteration makes (high-water marks take the max).
struct Layers {
  JsonObject sum;
  JsonObject max;

  void add(const char* name, double v) {
    const Json* cur = sum.find(name);
    sum[name] = (cur == nullptr ? 0.0 : cur->as_double()) + v;
  }
  void add(const char* name, std::uint64_t v) {
    add(name, static_cast<double>(v));
  }
  void peak(const char* name, double v) {
    const Json* cur = max.find(name);
    max[name] = cur == nullptr ? v : std::max(cur->as_double(), v);
  }
};

void read_sim(harness::ShardedFabric& fabric, Layers& layers) {
  for (std::uint32_t s = 0; s < fabric.shard_count(); ++s) {
    const sim::Scheduler& sched = fabric.ctx(s).sched;
    layers.add("sim.events", sched.events_fired());
    layers.add("sim.compactions", sched.compactions());
    layers.add("sim.reschedules", sched.reschedules());
    layers.peak("sim.queue_high_water",
                static_cast<double>(sched.queue_high_water()));
  }
}

void read_routers(harness::Deployment& dep, Layers& layers) {
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    net::Node& node = dep.router(d);
    std::uint64_t bfd_frames = 0;
    for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
      const auto& tx = node.port(p).tx_stats();
      const auto bfd = tx.of(net::TrafficClass::kBfd).frames;
      bfd_frames += bfd;
      if (bfd > 0) layers.add("bfd.sessions", std::uint64_t{1});
      layers.add("mtp.control_frames",
                 tx.of(net::TrafficClass::kMtpControl).frames);
    }
    layers.add("bfd.packets_sent", bfd_frames);
    if (dep.proto() == Proto::kMtp) {
      const auto& ms = dep.mtp(d).mtp_stats();
      layers.add("mtp.hellos_sent", ms.hellos_sent);
      layers.add("mtp.updates_sent", ms.updates_sent);
      layers.add("mtp.update_bytes", ms.update_bytes_raw);
      layers.add("mtp.table_changes",
                 ms.table_changes_local + ms.table_changes_remote);
      layers.add("mtp.data_forwarded", ms.data_forwarded);
      layers.add("mtp.up_cache_hits", ms.up_cache_hits);
      layers.add("mtp.up_cache_misses", ms.up_cache_misses);
      layers.add("mtp.allocs_avoided", ms.allocs_avoided);
      layers.add("mtp.flowlet_reroutes", ms.flowlet_reroutes);
    } else {
      bgp::BgpRouter& r = dep.bgp(d);
      const auto& bs = r.bgp_stats();
      layers.add("bgp.updates_sent", bs.updates_sent);
      layers.add("bgp.updates_received", bs.updates_received);
      layers.add("bgp.keepalives_sent", bs.keepalives_sent);
      layers.add("bgp.rib_changes", bs.rib_changes);
      layers.add("bgp.sessions_flapped", bs.sessions_flapped);
      layers.add("bgp.established_sessions",
                 static_cast<std::uint64_t>(r.established_sessions()));
      const auto& ss = r.routes().select_stats();
      layers.add("ip.select_lookups", ss.lookups);
      layers.add("ip.select_hits", ss.cache_hits);
      layers.add("ip.select_misses", ss.cache_misses);
      layers.add("ip.allocs_avoided", ss.allocs_avoided);
      const auto& fs = r.forwarding_stats();
      layers.add("transport.forwarded", fs.forwarded);
      layers.add("transport.dropped_no_route", fs.dropped_no_route);
    }
    const net::SwitchBuffer* sb = node.switch_buffer();
    if (sb != nullptr && sb->params().pool_bytes > 0) {
      layers.peak("net.occupancy_hw_ratio",
                  static_cast<double>(sb->stats().occupancy_hw) /
                      static_cast<double>(sb->params().pool_bytes));
    }
  }
  for (const auto& link : dep.network().links()) {
    for (const net::Link::DirStats* ds :
         {&link->stats().ab, &link->stats().ba}) {
      layers.add("net.frames_delivered", ds->delivered);
      layers.add("net.drops_link_down",
                 ds->dropped_link_down + ds->dropped_dst_down);
      layers.add("net.drops_queue_full", ds->dropped_queue_full);
      layers.add("net.ctrl_queue_drops", ds->dropped_queue_control);
      layers.add("net.buffer_drops", ds->dropped_buffer);
      layers.add("net.ecn_marked", ds->ecn_marked());
      layers.add("net.pause_tx", ds->pause_tx);
    }
  }
}

void read_flows(const traffic::FlowStats& f, double campaign_s,
                Layers& layers) {
  layers.add("traffic.flows", f.flows_started);
  layers.add("traffic.packets_sent", f.packets_sent);
  layers.add("traffic.unique_delivered", f.unique_delivered);
  layers.add("traffic.duplicates", f.duplicates);
  layers.add("traffic.out_of_order", f.out_of_order);
  layers.add("traffic.ecn_echoes", f.ecn_echoes);
  layers.add("traffic.pause_blocked_ms",
             static_cast<double>(f.pause_blocked_ns) / 1e6);
  layers.peak("traffic.max_gap_ms", f.max_gap_ms);
  layers.peak("traffic.fct_p999_ms", f.fct_p999_ms);
  layers.add("traffic.bytes_delivered", f.bytes_delivered);
  layers.add("traffic.campaign_sim_s", campaign_s);
}

std::uint64_t vid_entries(harness::Deployment& dep) {
  std::uint64_t n = 0;
  if (dep.proto() != Proto::kMtp) return n;
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    n += dep.mtp(d).vid_table().size();
  }
  return n;
}

/// BGP UPDATE L2 bytes sent fabric-wide so far: {raw, padded}.
std::pair<std::uint64_t, std::uint64_t> update_bytes(harness::Deployment& dep) {
  std::pair<std::uint64_t, std::uint64_t> bytes{0, 0};
  for (std::uint32_t d = 0; d < dep.router_count(); ++d) {
    net::Node& node = dep.router(d);
    for (std::uint32_t p = 1; p <= node.port_count(); ++p) {
      const auto& c = node.port(p).tx_stats().of(net::TrafficClass::kBgpUpdate);
      bytes.first += c.bytes;
      bytes.second += c.padded_bytes;
    }
  }
  return bytes;
}

/// One failure experiment, step by step, with the same event timeline as the
/// one-shard engine path of harness::run_failure_experiment. Fills the
/// ExperimentResult fields failure_json reports, for the BGP stacks the
/// failure workload runs.
harness::ExperimentResult traced_failure(const harness::ExperimentSpec& spec,
                                         Tracer& tr, Layers& layers) {
  harness::ExperimentResult result;
  tr.span("harness.run", [&] {
    auto blueprint = tr.span("topo.blueprint", [&] {
      return std::make_unique<topo::ClosBlueprint>(spec.topo);
    });
    auto fabric = tr.span("harness.fabric", [&] {
      return std::make_unique<harness::ShardedFabric>(*blueprint, kShards,
                                                      spec.seed);
    });
    auto dep = tr.span("harness.deploy", [&] {
      return std::make_unique<harness::Deployment>(*fabric, spec.proto,
                                                   spec.options);
    });
    sim::ShardedEngine& engine = fabric->engine();

    const sim::Time t_traffic = sim::Time::zero() + spec.settle;
    const sim::Time t_fail = t_traffic + spec.traffic_lead;
    const sim::Time t_end = t_fail + spec.post_failure;
    const sim::Time t_run_end = t_end + sim::Duration::millis(200);

    // Per router: table changed after the failure, and changed by a
    // received update.
    std::vector<std::pair<bool, bool>> changed(dep->router_count());
    sim::Time last_update = sim::Time::zero();
    bool armed = false;
    for (std::uint32_t d = 0; d < dep->router_count(); ++d) {
      auto on_update = [&armed, &last_update, &result](sim::Time at) {
        if (!armed) return;
        last_update = std::max(last_update, at);
        ++result.update_events;
      };
      auto* mark = &changed[d];
      dep->bgp(d).on_update_activity = on_update;
      dep->bgp(d).on_rib_change = [&armed, mark](sim::Time) {
        if (armed) *mark = {true, true};
      };
    }

    tr.span("harness.start", [&] { dep->start(); });

    const auto last = static_cast<std::uint32_t>(dep->host_count() - 1);
    traffic::Host* sender = &dep->host(spec.reverse_flow ? last : 0);
    traffic::Host* receiver = &dep->host(spec.reverse_flow ? 0 : last);
    receiver->listen();
    sender->ctx().sched.schedule_at(t_traffic, [&spec, sender, receiver] {
      traffic::FlowConfig flow;
      flow.dst = receiver->addr();
      flow.src_port = spec.traffic_src_port;
      flow.gap = spec.traffic_gap;
      flow.payload_size = spec.payload_size;
      sender->start_flow(flow);
    });
    sender->ctx().sched.schedule_at(t_end, [sender] { sender->stop_flow(); });

    topo::FailureInjector injector(dep->network(), *blueprint);
    injector.schedule_failure(spec.tc, t_fail);

    std::optional<harness::FabricAuditor> auditor;
    std::vector<sim::Time> ticks;
    if (spec.audit) {
      auditor.emplace(*dep);
      for (sim::Time t = t_traffic + spec.audit_period; t <= t_run_end;
           t = t + spec.audit_period) {
        ticks.push_back(t);
      }
    }
    std::size_t next_tick = 0;
    auto run_to = [&](sim::Time target) {
      while (next_tick < ticks.size() && ticks[next_tick] <= target) {
        engine.run_until(ticks[next_tick]);
        tr.span("harness.audit_sweep", [&] { return auditor->sweep(); });
        ++next_tick;
      }
      engine.run_until(target);
    };

    tr.span("harness.converge", [&] { run_to(t_traffic); });
    tr.span("harness.steady",
            [&] { run_to(t_fail - sim::Duration::nanos(1)); });
    result.initial_converged =
        tr.span("harness.converged_check", [&] { return dep->converged(); });
    const auto bytes_before = update_bytes(*dep);
    armed = true;
    tr.span("harness.reconverge", [&] { run_to(t_run_end); });

    tr.span("harness.collect", [&] {
      if (result.update_events > 0) result.convergence = last_update - t_fail;
      if (auditor) {
        result.final_sweep_violations =
            tr.span("harness.audit_sweep", [&] { return auditor->sweep(); });
        result.audit_sweeps = auditor->sweeps();
        result.audit_violations =
            auditor->violations().size() - result.final_sweep_violations;
        layers.add("harness.audit_violations", result.audit_violations);
      }
      const topo::FailurePoint fp = blueprint->failure_point(spec.tc);
      const std::uint32_t owner = blueprint->device_index(fp.device);
      const std::uint32_t peer = blueprint->device_index(fp.peer);
      for (std::uint32_t d = 0; d < dep->router_count(); ++d) {
        if (changed[d].first) ++result.blast_any;
        if (changed[d].second && d != owner && d != peer) ++result.blast_remote;
      }
      const auto bytes_after = update_bytes(*dep);
      result.ctrl_bytes_raw = bytes_after.first - bytes_before.first;
      result.ctrl_bytes_padded = bytes_after.second - bytes_before.second;
      for (const auto& link : dep->network().links()) {
        for (const net::Link::DirStats* ds :
             {&link->stats().ab, &link->stats().ba}) {
          result.ctrl_queue_drops += ds->dropped_queue_control;
          result.data_queue_drops +=
              ds->dropped_queue_full - ds->dropped_queue_control;
        }
      }
      result.packets_sent = sender->packets_sent();
      const traffic::SinkStats& sink = receiver->sink_stats();
      result.packets_lost = sink.lost(result.packets_sent);
      result.duplicates = sink.duplicates;
      result.out_of_order = sink.out_of_order;
      result.outage = sink.max_gap;
      for (std::uint32_t s = 0; s < fabric->shard_count(); ++s) {
        result.events_fired += fabric->ctx(s).sched.events_fired();
      }
      read_sim(*fabric, layers);
      read_routers(*dep, layers);
      layers.add("traffic.flows", sender->flows_started());
      layers.add("traffic.packets_sent", result.packets_sent);
      layers.add("traffic.unique_delivered", sink.unique_received);
      layers.add("traffic.duplicates", sink.duplicates);
      layers.add("traffic.out_of_order", sink.out_of_order);
      layers.add("traffic.ecn_echoes", sender->ecn_echoes_rx());
      layers.add("traffic.pause_blocked_ms",
                 static_cast<double>(sender->gen_paused_ns()) / 1e6);
      layers.peak("traffic.max_gap_ms", sink.max_gap.to_millis());
    });
    tr.span("harness.teardown", [&] {
      auditor.reset();
      dep.reset();
      fabric.reset();
      blueprint.reset();
    });
  });
  return result;
}

/// At about one simulator seed in sixteen a websearch campaign livelocks:
/// MR-MTP loses trees after the TC1 failure, the affected hosts' NICs stay
/// PFC-paused, and every active flow re-polls its NIC every 10 us, so events
/// (and memory) grow without bound and harness::run_workload does not return
/// in useful time. Healthy campaigns fire 6-11 million events in a few host
/// seconds. A campaign past either limit below is stopped and counted as a
/// failed operation: the CPU budget of the child process that runs
/// run_workload in untraced iterations, and the event cap of the traced
/// step-by-step driver. The event count is deterministic, so a livelock
/// repeats at the same seed.
constexpr std::uint64_t kWebsearchEventCap = 30'000'000;
constexpr rlim_t kWebsearchCpuBudgetS = 15;
/// Address-space limit of a campaign's child process (healthy campaigns
/// stay under 100 MiB resident), so a livelock cannot exhaust host memory.
constexpr rlim_t kWebsearchMemLimit = rlim_t{2} << 30;

/// Peak resident memory of each simulated run's child process that
/// finished, in MiB.
std::vector<double> child_rss_mib;

/// What a child process made by in_child wrote, how it ended, and its peak
/// resident memory.
struct ChildResult {
  std::string out;
  int status = 0;
  double rss_mib = 0;

  [[nodiscard]] bool ok() const {
    return WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }
};

/// Runs `fn` (returning a string) in a forked child process, which starts
/// from this process's heap state and writes the string back through a pipe.
/// `setup` runs in the child first (resource limits).
template <typename Setup, typename Fn>
ChildResult in_child(Setup&& setup, Fn&& fn) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::fflush(stdout);
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    close(fds[0]);
    // Ends with its parent, so a stopped benchmark leaves no process behind.
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    setup();
    const std::string out = fn();
    for (std::size_t off = 0; off < out.size();) {
      const ssize_t n = write(fds[1], out.data() + off, out.size() - off);
      if (n <= 0) _exit(3);
      off += static_cast<std::size_t>(n);
    }
    _exit(0);
  }
  close(fds[1]);
  ChildResult r;
  char buf[1 << 16];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n > 0) {
      r.out.append(buf, static_cast<std::size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  rusage ru{};
  while (wait4(pid, &r.status, 0, &ru) < 0 && errno == EINTR) {
  }
  r.rss_mib = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB
  return r;
}

/// Runs `run` (returning a simulated run's record) in a child process made
/// by in_child. The child writes the record, or an {"error"} record if `run`
/// threw.
template <typename Setup, typename Run>
ChildResult run_in_child(Setup&& setup, Run&& run) {
  return in_child(std::forward<Setup>(setup), [&run] {
    try {
      return run().dump(false);
    } catch (const std::exception& e) {
      Json err;
      err["error"] = std::string(e.what());
      return err.dump(false);
    }
  });
}

/// The record a run_in_child child wrote, or an {"error"} record if the child
/// failed. Counts a finished run's memory in child_rss_mib.
Json child_record(const ChildResult& child) {
  Json rec;
  if (!child.ok() || child.out.empty()) {
    rec["error"] =
        "run process ended with status " + std::to_string(child.status);
    return rec;
  }
  rec = Json::parse(child.out);
  if (rec.find("error") == nullptr) {
    child_rss_mib.push_back(child.rss_mib);
  }
  return rec;
}

/// harness::run_workload on one campaign, in a child process stopped at the
/// CPU budget. Returns the campaign's record, a {"livelock"} record if the
/// budget ran out, or an {"error"} record if run_workload threw or the child
/// failed otherwise.
Json isolated_run_workload(const harness::WorkloadRunSpec& spec) {
  const ChildResult child = run_in_child(
      [] {
        const rlimit cpu{kWebsearchCpuBudgetS, kWebsearchCpuBudgetS + 1};
        const rlimit mem{kWebsearchMemLimit, kWebsearchMemLimit};
        const rlimit core{0, 0};
        setrlimit(RLIMIT_CPU, &cpu);
        setrlimit(RLIMIT_AS, &mem);
        setrlimit(RLIMIT_CORE, &core);
      },
      [&spec] { return workload_json(harness::run_workload(spec)); });
  if (WIFSIGNALED(child.status) && (WTERMSIG(child.status) == SIGXCPU ||
                                    WTERMSIG(child.status) == SIGKILL)) {
    Json rec;
    rec["livelock"]["cpu_budget_s"] = num(kWebsearchCpuBudgetS);
    return rec;
  }
  return child_record(child);
}

/// harness::run_failure_experiment in a child process. Throws if it threw or
/// the child failed, so the iteration is a failed one.
Json isolated_run_failure(const harness::ExperimentSpec& spec) {
  Json rec = child_record(run_in_child(
      [] {}, [&spec] {
        return failure_json(harness::run_failure_experiment(spec));
      }));
  if (const Json* err = rec.find("error")) {
    throw std::runtime_error(err->as_string());
  }
  return rec;
}

/// One websearch campaign, step by step, with the same event timeline as the
/// one-shard engine path of harness::run_workload, for the traced run. The
/// campaign phase runs in 100 ms slices so the event cap can be checked;
/// pausing the engine does not change the simulation.
Json websearch_campaign(const harness::WorkloadRunSpec& spec, Tracer& tr,
                        Layers& layers) {
  harness::WorkloadRunResult result;
  Json livelock;
  tr.span("harness.run", [&] {
    auto blueprint = tr.span("topo.blueprint", [&] {
      return std::make_unique<topo::ClosBlueprint>(spec.topo);
    });
    auto fabric = tr.span("harness.fabric", [&] {
      return std::make_unique<harness::ShardedFabric>(*blueprint, kShards,
                                                      spec.seed);
    });
    auto dep = tr.span("harness.deploy", [&] {
      return std::make_unique<harness::Deployment>(*fabric, spec.proto,
                                                   spec.options);
    });
    sim::ShardedEngine& engine = fabric->engine();
    const sim::Time t_launch = sim::Time::zero() + spec.settle;
    const sim::Time t_end = t_launch + spec.launch_window + spec.drain;

    tr.span("harness.start", [&] { dep->start(); });

    std::vector<traffic::Host*> hosts;
    for (std::uint32_t h = 0; h < dep->host_count(); ++h) {
      hosts.push_back(&dep->host(h));
    }
    traffic::WorkloadSpec w = spec.workload;
    if (w.edge_bw_bps == 0) {
      w.edge_bw_bps = spec.options.host_link.bandwidth_bps;
    }
    auto flows = tr.span("traffic.launch", [&] {
      auto e = std::make_unique<traffic::WorkloadEngine>(
          std::move(hosts), std::move(w), spec.seed);
      e->launch(t_launch, spec.launch_window);
      return e;
    });
    topo::FailureInjector injector(dep->network(), *blueprint);
    if (spec.inject_failure) {
      injector.schedule_failure(spec.tc, t_launch + spec.failure_after);
    }
    std::optional<harness::FabricAuditor> auditor;
    if (spec.audit) auditor.emplace(*dep);
    auto events = [&] {
      std::uint64_t n = 0;
      for (std::uint32_t s = 0; s < fabric->shard_count(); ++s) {
        n += fabric->ctx(s).sched.events_fired();
      }
      return n;
    };

    tr.span("harness.converge", [&] {
      engine.run_until(t_launch - sim::Duration::nanos(1));
    });
    result.initial_converged =
        tr.span("harness.converged_check", [&] { return dep->converged(); });
    layers.add("mtp.vid_entries", vid_entries(*dep));
    tr.span("harness.campaign", [&] {
      for (sim::Time t = t_launch; t < t_end;) {
        t = std::min(t_end, t + sim::Duration::millis(100));
        engine.run_until(t);
        if (events() > kWebsearchEventCap) {
          livelock["events"] = num(events());
          livelock["sim_ms"] = t.to_millis();
          return;
        }
      }
    });

    if (!livelock.is_null()) {
      // The scheduler did this work, so sim.ns_per_event stays per event.
      read_sim(*fabric, layers);
    } else {
      result.flows =
          tr.span("traffic.collect", [&] { return flows->collect(t_end); });
      // The same aggregation as harness::run_workload.
      tr.span("harness.collect", [&] {
        result.events_fired = events();
        for (const auto& link : dep->network().links()) {
          for (const net::Link::DirStats* ds :
               {&link->stats().ab, &link->stats().ba}) {
            result.data_queue_drops +=
                ds->dropped_queue_full - ds->dropped_queue_control;
            result.ecn_marked += ds->ecn_marked();
            result.pause_tx += ds->pause_tx;
            result.pause_rx += ds->pause_rx;
            result.buffer_drops += ds->dropped_buffer;
            result.ctrl_queue_drops += ds->dropped_queue_control;
            result.flows.flowlet_reroutes += ds->flowlet_reroutes;
            result.flows.wcmp_weight_updates += ds->wcmp_weight_updates;
          }
        }
        for (std::uint32_t d = 0; d < dep->router_count(); ++d) {
          const net::SwitchBuffer* sb = dep->router(d).switch_buffer();
          if (sb == nullptr || sb->params().pool_bytes == 0) continue;
          result.occupancy_hw_ratio =
              std::max(result.occupancy_hw_ratio,
                       static_cast<double>(sb->stats().occupancy_hw) /
                           static_cast<double>(sb->params().pool_bytes));
        }
        if (auditor) {
          tr.span("harness.audit_sweep", [&] { return auditor->sweep(); });
          result.pfc_deadlocks = auditor->pfc_deadlocks();
          result.audit_violations = auditor->violations().size();
          layers.add("harness.audit_violations", result.audit_violations);
        }
        read_sim(*fabric, layers);
        read_routers(*dep, layers);
        read_flows(result.flows,
                   (spec.launch_window + spec.drain).to_seconds(), layers);
      });
    }
    tr.span("harness.teardown", [&] {
      auditor.reset();
      flows.reset();
      dep.reset();
      fabric.reset();
      blueprint.reset();
    });
  });
  if (!livelock.is_null()) {
    Json j;
    j["livelock"] = std::move(livelock);
    return j;
  }
  return workload_json(result);
}

// ---------------------------------------------------------------------------
// Untraced iterations: the public entry points, as users and the figure
// benches call them
// ---------------------------------------------------------------------------

/// One untraced iteration, each simulated run in its own child process. For
/// websearch, `campaign_wall_s` receives each campaign's host seconds, so a
/// campaign stopped at the CPU budget can be left out of the timing.
Json run_untraced(const Workload& w, std::uint64_t seed,
                  Json* campaign_wall_s = nullptr) {
  const std::vector<std::uint64_t> seeds = sim_seeds(w, seed);
  switch (w.kind) {
    case Kind::kFailure:
      return isolated_run_failure(clos64_spec(w.proto, seeds[0]));
    case Kind::kWebsearch: {
      Json campaigns;
      for (std::uint64_t s : seeds) {
        const auto t0 = Clock::now();
        campaigns[std::to_string(s)] = isolated_run_workload(websearch_spec(s));
        if (campaign_wall_s != nullptr) {
          (*campaign_wall_s)[std::to_string(s)] = seconds_since(t0);
        }
      }
      return campaigns;
    }
  }
  throw std::logic_error("unknown workload kind");
}

/// Host seconds to construct the blueprint, fabric and Deployment of every
/// deployment one iteration builds (destruction is not timed).
double build_seconds(const Workload& w, std::uint64_t seed) {
  double total = 0;
  auto build = [&total](const topo::ClosParams& params, Proto proto,
                        std::uint64_t s, const harness::DeployOptions& opts) {
    const auto t0 = Clock::now();
    auto blueprint = std::make_unique<topo::ClosBlueprint>(params);
    auto fabric =
        std::make_unique<harness::ShardedFabric>(*blueprint, kShards, s);
    auto dep = std::make_unique<harness::Deployment>(*fabric, proto, opts);
    total += seconds_since(t0);
  };
  const std::vector<std::uint64_t> seeds = sim_seeds(w, seed);
  for (std::uint64_t s : seeds) {
    if (w.kind == Kind::kFailure) {
      const harness::ExperimentSpec spec = clos64_spec(w.proto, s);
      build(spec.topo, spec.proto, s, spec.options);
    } else if (w.kind == Kind::kWebsearch) {
      const harness::WorkloadRunSpec spec = websearch_spec(s);
      build(spec.topo, spec.proto, s, spec.options);
    }
  }
  return total;
}

/// Setup samples per measuring cycle: at least this many, for at least this
/// long (a BGP+BFD sample takes about 20 ms, fork and warm-up included).
constexpr std::size_t kSetupBatch = 8;
constexpr double kSetupBatchS = 0.2;

/// build_seconds in a fresh child process, after one untimed build and
/// teardown there: every sample starts from the same warm heap state, as a
/// campaign's later runs do. Timed in one process, consecutive builds reuse
/// freed memory in changing layouts and samples switch between regimes
/// almost a factor of two apart; timed cold, first-touch page faults (a cost
/// the hypervisor sets) double the figure.
double time_setup(const Workload& w, std::uint64_t seed) {
  const ChildResult child = in_child([] {}, [&] {
    build_seconds(w, seed);  // warm-up
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", build_seconds(w, seed));
    return std::string(buf);
  });
  if (!child.ok() || child.out.empty()) {
    throw std::runtime_error("setup process ended with status " +
                             std::to_string(child.status));
  }
  return std::stod(child.out);
}

/// Traced counterpart of run_untraced: returns the same record shape for the
/// fields the step-by-step driver reproduces.
Json run_traced(const Workload& w, std::uint64_t seed, Tracer& tr,
                Layers& layers) {
  const std::vector<std::uint64_t> seeds = sim_seeds(w, seed);
  switch (w.kind) {
    case Kind::kFailure:
      return failure_json(
          traced_failure(clos64_spec(w.proto, seeds[0]), tr, layers));
    case Kind::kWebsearch: {
      Json campaigns;
      for (std::uint64_t s : seeds) {
        campaigns[std::to_string(s)] =
            websearch_campaign(websearch_spec(s), tr, layers);
      }
      return campaigns;
    }
  }
  throw std::logic_error("unknown workload kind");
}

// ---------------------------------------------------------------------------

void emit(Json record) { std::printf("%s\n", record.dump(false).c_str()); }

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Args {
  const Workload* workload = nullptr;
  std::uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "fabric_bench: %s\n"
               "usage: fabric_bench --workload NAME --seed N --seconds S "
               "--trace 0|1\n",
               why);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* val = argv[i + 1];
    char* endp = nullptr;
    if (flag == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, val) == 0) a.workload = &w;
      }
      if (a.workload == nullptr) usage("unknown workload");
    } else if (flag == "--seed") {
      a.seed = std::strtoull(val, &endp, 10);
      have_seed = *endp == '\0';
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(val, &endp);
      if (*endp != '\0' || !(a.seconds > 0)) usage("bad --seconds");
    } else if (flag == "--trace") {
      a.trace = std::atoi(val);
      if (a.trace != 0 && a.trace != 1) usage("bad --trace");
    } else {
      usage("unknown flag");
    }
  }
  if (argc % 2 != 1 || a.workload == nullptr || !have_seed || a.seconds <= 0) {
    usage("missing arguments");
  }
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Workload& w = *args.workload;
  {
    Json prov;
    prov["rec"] = "provenance";
    prov["compiler"] = std::string("g++ ") + __VERSION__;
    prov["build_type"] = MRMTP_BENCH_BUILD_TYPE;
    prov["hardware_threads"] =
        static_cast<std::int64_t>(std::thread::hardware_concurrency());
    prov["engine_shards"] = static_cast<std::int64_t>(kShards);
    emit(std::move(prov));
  }

  // Every iteration repeats the same simulator seeds, so its simulated
  // record must match the first one bit for bit (checked by checks.py).
  auto iteration = [&](const char* kind, auto&& body) {
    Json rec;
    rec["rec"] = kind;
    rec["runs"] = static_cast<std::int64_t>(runs_per_iteration(w));
    const auto t0 = Clock::now();
    try {
      rec["sim"] = body();
    } catch (const std::exception& e) {
      rec["error"] = std::string(e.what());
    }
    rec["wall_s"] = seconds_since(t0);
    return rec;
  };

  if (args.trace == 0) {
    // This process builds nothing itself, so every child starts from the same
    // heap state. Each cycle takes a batch of setup samples, then one
    // iteration, so both medians cover the whole measuring time and the host
    // states it went through. A cycle starts only if the median one so far
    // still fits, and there are always two, so every run checks repeat
    // identity.
    const auto t0 = Clock::now();
    JsonArray setup_samples;
    std::vector<double> cycles;
    for (;;) {
      const auto t_cycle = Clock::now();
      const std::size_t batch_end = setup_samples.size() + kSetupBatch;
      while (setup_samples.size() < batch_end ||
             seconds_since(t_cycle) < kSetupBatchS) {
        setup_samples.push_back(time_setup(w, args.seed));
      }
      Json campaign_wall_s;
      Json rec = iteration("iteration", [&] {
        return run_untraced(w, args.seed, &campaign_wall_s);
      });
      if (!campaign_wall_s.is_null()) {
        rec["campaign_wall_s"] = std::move(campaign_wall_s);
      }
      emit(std::move(rec));
      cycles.push_back(seconds_since(t_cycle));
      if (cycles.size() >= 2 &&
          seconds_since(t0) + median(cycles) > args.seconds) {
        break;
      }
    }
    Json setup;
    setup["rec"] = "setup";
    setup["seconds"] = std::move(setup_samples);
    emit(std::move(setup));
    Json rss;
    rss["rec"] = "rss";
    // The median over the finished runs of each one's peak: a websearch
    // campaign's peak moves with its seed's congestion, and the largest of
    // an iteration's six ranged over 51-68 MiB between workload seeds.
    rss["peak_rss_mb"] =
        child_rss_mib.empty() ? peak_rss_mib() : median(child_rss_mib);
    emit(std::move(rss));
    return 0;
  }

  // Traced: an untraced reference iteration, then the traced one.
  Json ref = iteration("reference", [&] { return run_untraced(w, args.seed); });
  emit(std::move(ref));
  Tracer tr;
  Layers layers;
  Json rec = iteration(
      "traced", [&] { return run_traced(w, args.seed, tr, layers); });
  rec["layers_sum"] = Json(std::move(layers.sum));
  rec["layers_max"] = Json(std::move(layers.max));
  rec["spans"] = tr.json();
  emit(std::move(rec));
  return 0;
}
