#include "setcover/greedy.hpp"

#include <algorithm>

#include "common/error.hpp"

namespace rnb {
namespace {

constexpr std::size_t kWordBits = 64;
constexpr std::size_t kNone = static_cast<std::size_t>(-1);
constexpr std::uint32_t kUnset = static_cast<std::uint32_t>(-1);

/// Dense relabeling of the servers that actually appear in an instance, in
/// ascending id order, with one row of item-position bits per server in a
/// single flat array. Requests touch a handful of servers out of a
/// potentially large cluster; densifying keeps the greedy loop
/// O(servers_in_request) rather than O(cluster size). Returns the words per
/// row.
template <typename Instance>
std::size_t densify(const Instance& instance, GreedyScratch& s) {
  const std::size_t m = instance.num_items();
  s.servers.clear();
  for (std::size_t i = 0; i < m; ++i)
    for (const ServerId server : instance.candidates_of(i)) {
      if (server >= s.row_of.size()) s.row_of.resize(server + 1, kUnset);
      if (s.row_of[server] != kUnset) continue;
      s.row_of[server] = 0;  // seen; its row is known after the sort
      s.servers.push_back(server);
    }
  std::sort(s.servers.begin(), s.servers.end());
  for (std::size_t d = 0; d < s.servers.size(); ++d)
    s.row_of[s.servers[d]] = static_cast<std::uint32_t>(d);
  const std::size_t words = (m + kWordBits - 1) / kWordBits;
  s.holds.assign(s.servers.size() * words, 0);
  for (std::size_t i = 0; i < m; ++i)
    for (const ServerId server : instance.candidates_of(i))
      s.holds[s.row_of[server] * words + i / kWordBits] |=
          std::uint64_t{1} << (i % kWordBits);
  for (const ServerId server : s.servers) s.row_of[server] = kUnset;
  s.covered.assign(words, 0);
  s.picked.assign(s.servers.size(), 0);
  return words;
}

/// The CoverInstance entry points share one scratch per thread, so a warm
/// caller allocates only the result.
GreedyScratch& thread_scratch() {
  thread_local GreedyScratch scratch;
  return scratch;
}

/// The unpicked server with maximal marginal gain (kNone when every server
/// adds nothing). Rows are in ascending server-id order, so the strict `>`
/// keeps the lowest id among ties.
std::size_t pick(const GreedyScratch& s, std::size_t words,
                 std::size_t& best_gain) {
  std::size_t best = kNone;
  best_gain = 0;
  for (std::size_t d = 0; d < s.servers.size(); ++d) {
    if (s.picked[d] != 0) continue;
    const std::uint64_t* row = &s.holds[d * words];
    std::size_t gain = 0;
    for (std::size_t w = 0; w < words; ++w)
      gain += static_cast<std::size_t>(
          __builtin_popcountll(row[w] & ~s.covered[w]));
    if (gain > best_gain) {
      best_gain = gain;
      best = d;
    }
  }
  return best;
}

/// Commit pick `d`: assign it up to `want` of its still-uncovered items in
/// ascending position order. Returns how many it took.
std::size_t take(GreedyScratch& s, std::size_t words, std::size_t d,
                 std::size_t want, CoverResult& out) {
  s.picked[d] = 1;
  const ServerId server = s.servers[d];
  out.servers_used.push_back(server);
  std::size_t taken = 0;
  for (std::size_t w = 0; w < words && taken < want; ++w) {
    std::uint64_t fresh = s.holds[d * words + w] & ~s.covered[w];
    for (; fresh != 0 && taken < want; fresh &= fresh - 1) {
      const std::uint64_t bit = fresh & (~fresh + 1);
      s.covered[w] |= bit;
      out.assignment[w * kWordBits +
                     static_cast<std::size_t>(__builtin_ctzll(fresh))] = server;
      ++taken;
    }
  }
  return taken;
}

template <typename Instance>
void run_greedy(const Instance& instance, std::size_t target,
                CoverResult& out, GreedyScratch& s) {
  const std::size_t m = instance.num_items();
  RNB_REQUIRE(target <= m);
  out.assignment.assign(m, kInvalidServer);
  out.servers_used.clear();
  if (m == 0 || target == 0) return;

  const std::size_t words = densify(instance, s);
  std::size_t covered_count = 0;
  while (covered_count < target) {
    std::size_t best_gain = 0;
    const std::size_t best = pick(s, words, best_gain);
    // No server adds coverage: with a full target this means an item has no
    // candidates; with a partial target it cannot happen before reaching it.
    RNB_REQUIRE(best_gain > 0 && "cover target unreachable");
    // For a partial cover, never assign more items than the target needs:
    // the last server may hold more new items than the remaining gap, and
    // fetching them would be paying for items the LIMIT clause let us skip.
    covered_count += take(s, words, best, target - covered_count, out);
  }
}

template <typename Instance>
void run_budget(const Instance& instance, std::size_t max_transactions,
                CoverResult& out, GreedyScratch& s) {
  const std::size_t m = instance.num_items();
  out.assignment.assign(m, kInvalidServer);
  out.servers_used.clear();
  if (m == 0 || max_transactions == 0) return;

  const std::size_t words = densify(instance, s);
  for (std::size_t txn = 0; txn < max_transactions; ++txn) {
    std::size_t best_gain = 0;
    const std::size_t best = pick(s, words, best_gain);
    if (best_gain == 0) break;  // nothing left to gain: stop under budget
    take(s, words, best, m, out);
  }
}

}  // namespace

CoverResult greedy_cover(const CoverInstance& instance) {
  CoverResult result;
  run_greedy(instance, instance.num_items(), result, thread_scratch());
  return result;
}

void greedy_cover(const FlatCoverInstance& instance, CoverResult& out,
                  GreedyScratch& scratch) {
  run_greedy(instance, instance.num_items(), out, scratch);
}

CoverResult greedy_cover_partial(const CoverInstance& instance,
                                 std::size_t target) {
  CoverResult result;
  run_greedy(instance, std::min(target, instance.num_items()), result,
             thread_scratch());
  return result;
}

void greedy_cover_partial(const FlatCoverInstance& instance,
                          std::size_t target, CoverResult& out,
                          GreedyScratch& scratch) {
  run_greedy(instance, std::min(target, instance.num_items()), out, scratch);
}

CoverResult greedy_cover_budget(const CoverInstance& instance,
                                std::size_t max_transactions) {
  CoverResult result;
  run_budget(instance, max_transactions, result, thread_scratch());
  return result;
}

void greedy_cover_budget(const FlatCoverInstance& instance,
                         std::size_t max_transactions, CoverResult& out,
                         GreedyScratch& scratch) {
  run_budget(instance, max_transactions, out, scratch);
}

}  // namespace rnb
