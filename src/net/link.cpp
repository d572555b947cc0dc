#include "net/link.hpp"

#include <algorithm>
#include <array>
#include <stdexcept>
#include <utility>

#include "net/switch_buffer.hpp"

namespace mrmtp::net {

namespace {

/// Forks a link's two per-direction streams from one seed (a->b first).
std::array<sim::Rng, 2> fork_pair(std::uint64_t seed) {
  sim::Rng base(seed);
  sim::Rng ab = base.fork();
  return {ab, base.fork()};
}

}  // namespace

Link::Link(SimContext& ctx, Port& a, Port& b, Params params,
           std::uint64_t rng_seed)
    : ctx_(&ctx),
      a_(&a),
      b_(&b),
      params_(params),
      stats_(&ctx.stats.alloc_link()),
      rng_(fork_pair(rng_seed)) {
  if (a.link_ != nullptr || b.link_ != nullptr) {
    throw std::logic_error("Link: port already wired (" + a.str() + " / " +
                           b.str() + ")");
  }
  a.link_ = this;
  b.link_ = this;
}

void Link::set_loss(Dir dir, double p) {
  Impairments& im = impair_[static_cast<int>(dir)];
  im.loss = std::clamp(p, 0.0, 1.0);
  im.ramp_over = sim::Duration{};  // immediate: no ramp in progress
  im.ramp_from = im.loss;
}

void Link::set_blackhole(Dir dir, bool on) {
  impair_[static_cast<int>(dir)].blackhole = on;
}

void Link::ramp_loss(Dir dir, double target, sim::Duration over) {
  Impairments& im = impair_[static_cast<int>(dir)];
  im.ramp_from = effective_loss(dir);
  im.loss = std::clamp(target, 0.0, 1.0);
  im.ramp_start = ctx_->now();
  im.ramp_over = over;
}

void Link::clear_impairments() {
  impair_[0] = Impairments{};
  impair_[1] = Impairments{};
}

void Link::schedule_delivery(int dir, sim::Time at, sim::Scheduler::Callback fn) {
  const Port& from = sender(dir);
  std::uint64_t order =
      (static_cast<std::uint64_t>(from.owner().id()) << 48) |
      (static_cast<std::uint64_t>(from.number()) << 32) | tx_seq_[dir]++;
  ctx_->sched.schedule_at_ordered(at, order, std::move(fn));
}

double Link::effective_loss(Dir dir) const {
  const Impairments& im = impair_[static_cast<int>(dir)];
  if (im.ramp_over <= sim::Duration{}) return im.loss;
  sim::Duration elapsed = ctx_->now() - im.ramp_start;
  if (elapsed >= im.ramp_over) return im.loss;
  if (elapsed <= sim::Duration{}) return im.ramp_from;
  double f = static_cast<double>(elapsed.ns()) /
             static_cast<double>(im.ramp_over.ns());
  return im.ramp_from + (im.loss - im.ramp_from) * f;
}

sim::Duration Link::ser_time(const Frame& frame) const {
  // 20 bytes of preamble + inter-frame gap per frame, as on real Ethernet.
  std::uint64_t wire_bits = (frame.padded_wire_size() + 20) * 8;
  return sim::Duration::nanos(static_cast<std::int64_t>(
      (wire_bits * 1000000000ull) / params_.bandwidth_bps));
}

void Link::transmit(Port& from, Frame frame) {
  if (&from != a_ && &from != b_) {
    throw std::logic_error("Link::transmit from foreign port");
  }
  Dir direction = direction_from(from);
  DirStats& dstats = dir_stats(direction);

  if (!from.admin_up()) {
    ++dstats.dropped_link_down;
    return;
  }
  from.tx_stats().record(frame);

  int dir = static_cast<int>(direction);
  if (SwitchBuffer* sb = from.owner().switch_buffer()) {
    transmit_buffered(dir, std::move(frame), *sb);
    return;
  }
  if (params_.priority_queues) {
    transmit_priority(dir, std::move(frame));
    return;
  }

  // Shared FIFO: tail drop when the output queue (expressed as serialization
  // backlog) is full, i.e. the transmitter is more than max_queue behind.
  sim::Time now = ctx_->now();
  sim::Duration backlog =
      busy_until_[dir] > now ? busy_until_[dir] - now : sim::Duration{};
  if (backlog > params_.max_queue) {
    ++dstats.dropped_queue_full;
    if (is_control_class(frame.traffic_class)) ++dstats.dropped_queue_control;
    return;
  }
  auto& hw = is_control_class(frame.traffic_class)
                 ? dstats.control_backlog_hw_ns
                 : dstats.data_backlog_hw_ns;
  hw = std::max(hw, static_cast<std::uint64_t>(backlog.ns()));

  sim::Duration ser = ser_time(frame);
  serialize_and_send(dir, std::move(frame), ser);
}

void Link::transmit_priority(int dir, Frame frame) {
  DirStats& dstats = dir_stats(static_cast<Dir>(dir));
  bool control = is_control_class(frame.traffic_class);
  sim::Duration ser = ser_time(frame);

  sim::Time now = ctx_->now();
  sim::Duration residual =
      busy_until_[dir] > now ? busy_until_[dir] - now : sim::Duration{};

  // Fast path: idle transmitter and empty bands behave exactly like the
  // shared FIFO — one delivery event per frame, no queue churn. This is what
  // keeps steady-state event throughput unchanged by the priority feature.
  if (residual <= sim::Duration{} && bands_[dir][kControlBand].empty() &&
      bands_[dir][kDataBand].empty()) {
    serialize_and_send(dir, std::move(frame), ser);
    return;
  }

  // Band admission. A control frame only waits behind the frame already on
  // the wire plus other control frames (strict priority), so its depth limit
  // considers the control band alone — the guaranteed band. Data sees the
  // whole backlog, matching the shared FIFO's tail-drop bound.
  sim::Duration wait = control ? band_backlog_[dir][kControlBand]
                               : residual + band_backlog_[dir][kControlBand] +
                                     band_backlog_[dir][kDataBand];
  if (wait > (control ? params_.control_queue : params_.max_queue)) {
    ++dstats.dropped_queue_full;
    if (control) ++dstats.dropped_queue_control;
    return;
  }
  auto& hw = control ? dstats.control_backlog_hw_ns : dstats.data_backlog_hw_ns;
  hw = std::max(hw, static_cast<std::uint64_t>(wait.ns()));

  int band = control ? kControlBand : kDataBand;
  band_bytes_[dir][band] += frame.padded_wire_size();
  bands_[dir][band].push_back(Pending{std::move(frame), ser});
  band_backlog_[dir][band] = band_backlog_[dir][band] + ser;
  if (!drain_armed_[dir]) {
    drain_armed_[dir] = true;
    ctx_->sched.schedule_at(std::max(now, busy_until_[dir]),
                            [this, dir] { drain(dir); });
  }
}

void Link::transmit_buffered(int dir, Frame frame, SwitchBuffer& sb) {
  DirStats& dstats = dir_stats(static_cast<Dir>(dir));
  bool control = is_control_class(frame.traffic_class);
  sim::Duration ser = ser_time(frame);

  sim::Time now = ctx_->now();
  sim::Duration residual =
      busy_until_[dir] > now ? busy_until_[dir] - now : sim::Duration{};
  bool idle = residual <= sim::Duration{} &&
              bands_[dir][kControlBand].empty() &&
              bands_[dir][kDataBand].empty();

  if (control) {
    // The control band keeps its serialization-time carve-out from priority
    // mode and is never charged to the data pool — this is the invariant
    // that keeps hellos/ACKs deliverable at 100% data occupancy. A PAUSE
    // only stops the data band, so control also ignores paused_.
    if (idle) {
      serialize_and_send(dir, std::move(frame), ser);
      return;
    }
    sim::Duration wait = band_backlog_[dir][kControlBand];
    if (wait > params_.control_queue) {
      ++dstats.dropped_queue_full;
      ++dstats.dropped_queue_control;
      return;
    }
    dstats.control_backlog_hw_ns = std::max(
        dstats.control_backlog_hw_ns, static_cast<std::uint64_t>(wait.ns()));
    if (sb.params().ecn_ctrl_threshold > 0 &&
        band_bytes_[dir][kControlBand] + frame.padded_wire_size() >
            sb.params().ecn_ctrl_threshold &&
        mark_ce(frame)) {
      ++dstats.ecn_marked_ctrl;
      sb.note_ecn_mark();
    }
    sb.note_ctrl_admitted();
    band_bytes_[dir][kControlBand] += frame.padded_wire_size();
    bands_[dir][kControlBand].push_back(Pending{std::move(frame), ser});
    band_backlog_[dir][kControlBand] =
        band_backlog_[dir][kControlBand] + ser;
    if (!drain_armed_[dir]) {
      drain_armed_[dir] = true;
      ctx_->sched.schedule_at(std::max(now, busy_until_[dir]),
                              [this, dir] { drain(dir); });
    }
    return;
  }

  // Data. Fast path only while unpaused: one delivery event, no buffer held
  // (cut-through approximation — occupancy counts queued frames).
  if (idle && !paused_[dir]) {
    serialize_and_send(dir, std::move(frame), ser);
    return;
  }
  sim::Duration wait = residual + band_backlog_[dir][kControlBand] +
                       band_backlog_[dir][kDataBand];
  if (wait > params_.max_queue) {
    ++dstats.dropped_queue_full;
    return;
  }
  auto bytes = static_cast<std::uint32_t>(frame.padded_wire_size());
  Port& from = sender(dir);
  if (!sb.admit_egress(from.number(), bytes)) {
    ++dstats.dropped_buffer;
    return;
  }
  std::uint32_t ingress = from.owner().current_rx_port();
  if (ingress != 0) sb.charge_ingress(ingress, bytes);
  if (sb.params().ecn_data_threshold > 0 &&
      band_bytes_[dir][kDataBand] + bytes >
          sb.params().ecn_data_threshold &&
      mark_ce(frame)) {
    ++dstats.ecn_marked_data;
    sb.note_ecn_mark();
  }
  dstats.data_backlog_hw_ns = std::max(
      dstats.data_backlog_hw_ns, static_cast<std::uint64_t>(wait.ns()));
  band_bytes_[dir][kDataBand] += bytes;
  bands_[dir][kDataBand].push_back(
      Pending{std::move(frame), ser, bytes, ingress});
  band_backlog_[dir][kDataBand] = band_backlog_[dir][kDataBand] + ser;
  // While paused with nothing else queued, leave the drain unarmed; the
  // RESUME (or a later control frame) re-arms it.
  if (!drain_armed_[dir] && !paused_[dir]) {
    drain_armed_[dir] = true;
    ctx_->sched.schedule_at(std::max(now, busy_until_[dir]),
                            [this, dir] { drain(dir); });
  }
}

void Link::drain(int dir) {
  int band =
      !bands_[dir][kControlBand].empty() ? kControlBand : kDataBand;
  auto& q = bands_[dir][band];
  // Defensive empty check; a PAUSEd data band with no control waiting also
  // parks the drain (the RESUME re-arms it).
  if (q.empty() || (band == kDataBand && paused_[dir])) {
    drain_armed_[dir] = false;
    return;
  }
  Pending p = std::move(q.front());
  q.pop_front();
  band_backlog_[dir][band] = band_backlog_[dir][band] - p.ser;
  std::uint64_t wire = p.frame.padded_wire_size();
  band_bytes_[dir][band] -= std::min(band_bytes_[dir][band], wire);
  serialize_and_send(dir, std::move(p.frame), p.ser);
  if (p.charged > 0) {
    // The frame left the buffer: release its pool/ingress charges. This can
    // emit a RESUME out the ingress port (a different link's control band).
    if (SwitchBuffer* sb = sender(dir).owner().switch_buffer()) {
      sb->release_egress(sender(dir).number(), p.charged);
      if (p.ingress != 0) sb->release_ingress(p.ingress, p.charged);
    }
  }
  bool more = !bands_[dir][kControlBand].empty() ||
              (!paused_[dir] && !bands_[dir][kDataBand].empty());
  if (more) {
    ctx_->sched.schedule_at(busy_until_[dir], [this, dir] { drain(dir); });
  } else {
    drain_armed_[dir] = false;
  }
}

void Link::serialize_and_send(int dir, Frame frame, sim::Duration ser) {
  Dir direction = static_cast<Dir>(dir);
  DirStats& dstats = dir_stats(direction);
  Port& to = dir == static_cast<int>(Dir::kAToB) ? *b_ : *a_;

  // Serialization occupies the transmitter; back-to-back frames queue.
  sim::Time start = std::max(ctx_->now(), busy_until_[dir]);
  busy_until_[dir] = start + ser;
  sim::Time arrival = busy_until_[dir] + params_.delay;

  // Gray failures kill the frame after the sender's transmitter did its
  // normal work — the sending side observes nothing locally.
  const Impairments& im = impair_[dir];
  if (im.blackhole) {
    ++dstats.dropped_blackhole;
    return;
  }

  sim::Rng& rng = rng_[static_cast<std::size_t>(dir)];
  if (params_.reorder_jitter > sim::Duration{}) {
    arrival = arrival + sim::Duration::nanos(static_cast<std::int64_t>(
                  rng.below(static_cast<std::uint64_t>(
                      params_.reorder_jitter.ns()))));
  }

  bool duplicate = params_.duplicate_probability > 0 &&
                   rng.chance(params_.duplicate_probability);
  bool lost = params_.loss_probability > 0 &&
              rng.chance(params_.loss_probability);
  if (!lost && (im.loss > 0 || im.ramp_over > sim::Duration{})) {
    lost = rng.chance(effective_loss(direction));
  }
  if (lost) {
    ++dstats.dropped_impairment;
    if (!duplicate) return;
    duplicate = false;  // the "copy" survives as the only delivery
  }

  if (duplicate) {
    // Schedule the duplicate first so the primary delivery below can still
    // move the frame; the copy shares the payload slab (refcount bump), and
    // that second reference is exactly what blocks in-place mutation of the
    // delivered bytes until the duplicate lands.
    ++dstats.duplicated;
    Frame copy = frame;
    schedule_delivery(dir, arrival + sim::Duration::micros(1),
                      [this, dir, &to, &dstats, copy = std::move(copy)]() mutable {
                        deliver(dir, to, std::move(copy), dstats);
                      });
  }
  // The last/only delivery moves the frame — no payload copy on transit.
  schedule_delivery(dir, arrival,
                    [this, dir, &to, &dstats, frame = std::move(frame)]() mutable {
                      deliver(dir, to, std::move(frame), dstats);
                    });
}

void Link::deliver(int dir, Port& to, Frame frame, DirStats& dstats) {
  if (!to.admin_up()) {
    ++dstats.dropped_dst_down;
    return;
  }
  ++dstats.delivered;
  if (tap_) tap_(ctx_->now(), frame);
  to.rx_stats().record(frame);
  if (frame.ethertype == EtherType::kFlowControl) {
    // Link-local PFC: consumed here, never handed to the node. The paused
    // direction is the reverse of the PFC's travel — its transmitter is the
    // receiving node.
    apply_flow_control(dir, frame);
    return;
  }
  to.owner().receive_frame(to, std::move(frame));
}

void Link::apply_flow_control(int delivery_dir, const Frame& frame) {
  int pd = 1 - delivery_dir;  // the direction being paused/resumed
  bool pause = !frame.payload.empty() && frame.payload[0] != 0;
  DirStats& dstats = dir_stats(static_cast<Dir>(pd));
  if (pause) {
    if (!paused_[pd]) {
      paused_[pd] = true;
      pause_start_[pd] = ctx_->now();
      ++dstats.pause_rx;
    }
    return;
  }
  if (!paused_[pd]) return;
  paused_[pd] = false;
  ++dstats.pause_rx;
  dstats.pause_ns += static_cast<std::uint64_t>(
      (ctx_->now() - pause_start_[pd]).ns());
  if (!bands_[pd][kDataBand].empty() && !drain_armed_[pd]) {
    drain_armed_[pd] = true;
    sim::Time at = std::max(ctx_->now(), busy_until_[pd]);
    ctx_->sched.schedule_at(at, [this, pd] { drain(pd); });
  }
}

std::uint64_t Link::pause_ns_total(Dir dir) const {
  int d = static_cast<int>(dir);
  std::uint64_t ns = stats_->dir(dir).pause_ns;
  if (paused_[d]) {
    ns += static_cast<std::uint64_t>(
        (ctx_->now() - pause_start_[d]).ns());
  }
  return ns;
}

}  // namespace mrmtp::net
