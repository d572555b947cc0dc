// Shared hashing primitives for the forwarding hot paths.
//
// mix64 is the splitmix64 finalizer: a cheap bijective scrambler whose output
// bits all depend on all input bits, unlike the multiply-shift folklore hashes
// that collide systematically on structured keys (aligned subnets, sequential
// port numbers).
//
// hrw_pick implements rendezvous (highest-random-weight) hashing over a
// candidate set: every (flow, member) pair gets an independent weight and the
// flow goes to the member with the highest one. When a member disappears only
// the flows whose winner it was move — the property `hash % n` lacks, where
// removing one member remaps (n-1)/n of all flows (paper §III.C's stable
// load balancing; cf. FatPaths' flow-stability requirement).
//
// hrw_pick_weighted is the WCMP extension: each member carries a capacity
// weight w_i and wins with probability w_i / Σw while keeping the HRW
// stability property. It uses the score transform of Weighted Rendezvous
// Hashing: score_i = -w_i / ln(u_i) with u_i the member's hash mapped into
// (0,1). hrw_pick_replicated is the integer-replication fallback (member i
// entered w_i times under distinct virtual keys) — exact for small integer
// weights and float-free, but O(Σw) instead of O(n).
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace mrmtp::util {

/// Multipath path-selection policy, threaded from deploy options down into
/// ip::RouteTable users and mtp::MtpRouter forwarding.
enum class PathSelect : std::uint8_t {
  kHrw,          // equal-share rendezvous hashing (PR 2 behavior; default)
  kWcmp,         // capacity-weighted rendezvous hashing
  kWcmpFlowlet,  // WCMP + flowlet-granularity rerouting w/ congestion feedback
};

[[nodiscard]] constexpr std::string_view to_string(PathSelect m) {
  switch (m) {
    case PathSelect::kHrw: return "hrw";
    case PathSelect::kWcmp: return "wcmp";
    case PathSelect::kWcmpFlowlet: return "wcmp+flowlet";
  }
  return "?";
}

[[nodiscard]] constexpr std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Rendezvous weight of `member` for `flow`.
[[nodiscard]] constexpr std::uint64_t hrw_weight(std::uint64_t flow,
                                                 std::uint64_t member) {
  return mix64(flow ^ mix64(member));
}

/// Index of the HRW winner among `n` candidates whose keys are produced by
/// `key_of(i)`; `n` must be > 0. Ties break toward the lower index, which
/// cannot happen between distinct keys (mix64 is bijective) but keeps the
/// pick deterministic if a caller passes duplicates.
template <typename KeyOf>
[[nodiscard]] std::size_t hrw_pick(std::uint64_t flow, std::size_t n,
                                   KeyOf&& key_of) {
  std::size_t best = 0;
  std::uint64_t best_w = hrw_weight(flow, key_of(std::size_t{0}));
  for (std::size_t i = 1; i < n; ++i) {
    std::uint64_t w = hrw_weight(flow, key_of(i));
    if (w > best_w) {
      best_w = w;
      best = i;
    }
  }
  return best;
}

/// Maps a 64-bit hash onto the open interval (0,1). The top 53 bits become
/// the mantissa and the +0.5 offset keeps the result strictly inside the
/// interval, so ln(u) below is always finite and negative.
[[nodiscard]] constexpr double hash_unit(std::uint64_t h) {
  return (static_cast<double>(h >> 11) + 0.5) * 0x1.0p-53;
}

/// Weighted rendezvous pick: member i wins with probability
/// weight_of(i) / Σ weight_of(j) via the score transform
/// score_i = -w_i / ln(u_i). Members with weight <= 0 are never chosen;
/// if every weight is <= 0 the pick degenerates to plain hrw_pick so a
/// fully-discounted candidate set still forwards instead of blackholing.
/// Deterministic: IEEE doubles, same inputs -> same winner on every run.
template <typename KeyOf, typename WeightOf>
[[nodiscard]] std::size_t hrw_pick_weighted(std::uint64_t flow, std::size_t n,
                                            KeyOf&& key_of,
                                            WeightOf&& weight_of) {
  std::size_t best = n;  // sentinel: no positive-weight member seen yet
  double best_score = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double w = static_cast<double>(weight_of(i));
    if (!(w > 0.0)) continue;
    const double u = hash_unit(hrw_weight(flow, key_of(i)));
    const double score = -w / std::log(u);  // ln(u) < 0, so score > 0
    if (best == n || score > best_score) {
      best = i;
      best_score = score;
    }
  }
  if (best == n) return hrw_pick(flow, n, key_of);
  return best;
}

/// Integer-weight replication fallback: member i is entered weight_of(i)
/// times under distinct virtual keys and the plain HRW maximum wins. Exact
/// w_i/Σw split without floating point, at O(Σ weights) cost — use for small
/// weights (tests, verification); the hot paths use hrw_pick_weighted.
template <typename KeyOf, typename WeightOf>
[[nodiscard]] std::size_t hrw_pick_replicated(std::uint64_t flow,
                                              std::size_t n, KeyOf&& key_of,
                                              WeightOf&& weight_of) {
  std::size_t best = n;
  std::uint64_t best_w = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t replicas = weight_of(i);
    const std::uint64_t base = mix64(key_of(i));
    for (std::uint64_t r = 0; r < replicas; ++r) {
      const std::uint64_t w = hrw_weight(flow, base + r);
      if (best == n || w > best_w) {
        best = i;
        best_w = w;
      }
    }
  }
  if (best == n) return hrw_pick(flow, n, key_of);
  return best;
}

}  // namespace mrmtp::util
