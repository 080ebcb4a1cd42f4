// Minimum set cover instances and results — the "Bundle" half of RnB.
//
// Per request, the client knows each requested item's replica servers; it
// must choose one replica per item so that the set of *distinct* servers
// touched (== transactions) is minimal. That is minimum set cover, which is
// NP-complete (Karp '72), so production code uses the greedy approximation
// (ln(M)+1-competitive, and near-optimal on the random instances RnB
// generates — the ablation bench measures the actual gap against the exact
// branch-and-bound solver).
//
// LIMIT-style requests (paper Section III-F) relax the instance: only
// ceil(fraction * M) items must be covered, and the solver may *choose*
// which items to skip — that freedom is where the extra gain comes from.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.hpp"

namespace rnb {

/// One cover instance: for each requested item (by position), the candidate
/// servers that hold a replica of it, in replica order (candidates[i][0] is
/// the distinguished copy).
struct CoverInstance {
  std::vector<std::vector<ServerId>> candidates;

  std::size_t num_items() const noexcept { return candidates.size(); }
  std::span<const ServerId> candidates_of(std::size_t i) const noexcept {
    return candidates[i];
  }

  /// Items that must be covered for the instance to be satisfied; computed
  /// from a LIMIT fraction in [0,1]. fraction 1.0 -> all items.
  static std::size_t target_from_fraction(std::size_t num_items,
                                          double fraction);
};

/// The same instance laid out in one flat array, for callers that plan
/// into reused buffers: item i's candidates are the first counts[i]
/// entries of slots[i * stride, (i + 1) * stride).
struct FlatCoverInstance {
  std::span<const ServerId> slots;
  std::span<const std::uint32_t> counts;
  std::size_t stride = 0;

  std::size_t num_items() const noexcept { return counts.size(); }
  std::span<const ServerId> candidates_of(std::size_t i) const noexcept {
    return slots.subspan(i * stride, counts[i]);
  }
};

/// A solution: which server serves each item (kInvalidServer when the item
/// was deliberately skipped by a partial cover), plus the distinct servers
/// used in pick order.
struct CoverResult {
  std::vector<ServerId> assignment;
  std::vector<ServerId> servers_used;

  std::size_t transactions() const noexcept { return servers_used.size(); }
  std::size_t covered_items() const noexcept;

  /// True iff every assigned server actually holds a replica of its item and
  /// the covered count meets `target`. Used by the property tests.
  bool valid_for(const CoverInstance& instance, std::size_t target) const;
};

/// Items-per-transaction counts implied by a result (for the calibration
/// model's transaction-size histogram).
std::vector<std::size_t> transaction_sizes(const CoverResult& result,
                                           ServerId num_servers);

}  // namespace rnb
