#include "tree/election.hpp"

#include <algorithm>
#include <stdexcept>

#include "common/mathutil.hpp"
#include "common/serial.hpp"
#include "consensus/coin_toss.hpp"
#include "crypto/prf.hpp"
#include "net/host.hpp"
#include "net/simulator.hpp"

namespace srds {

namespace {

/// Trivial idle logic for parties with no group at the current level.
class IdleProto final : public SubProtocol {
 public:
  explicit IdleProto(std::size_t rounds) : rounds_(rounds) {}
  std::size_t rounds() const override { return rounds_; }
  Outbox step(std::size_t, const std::vector<TaggedMsg>&) override { return {}; }

 private:
  std::size_t rounds_;
};

/// One synchronous level: every group tosses a coin in parallel; returns
/// each group's coin (empty when the group had no honest member to report).
std::vector<Bytes> run_coin_level(std::size_t n, const std::vector<bool>& corrupt,
                                  const SimSigRegistryPtr& registry,
                                  const std::vector<std::vector<PartyId>>& groups,
                                  std::size_t level, std::uint64_t seed,
                                  obs::Ledger& ledger, std::size_t& rounds) {
  // Map party -> its group index at this level.
  std::vector<std::size_t> group_of(n, groups.size());
  std::size_t max_rounds = 1;
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (PartyId p : groups[gi]) group_of[p] = gi;
  }

  std::vector<std::unique_ptr<Party>> parties(n);
  for (PartyId p = 0; p < n; ++p) {
    if (corrupt[p]) continue;
    std::size_t gi = group_of[p];
    if (gi == groups.size()) {
      parties[p] = std::make_unique<SubProtocolHost>(std::make_unique<IdleProto>(1));
      continue;
    }
    const auto& members = groups[gi];
    std::size_t t = (members.size() - 1) / 3;
    Writer domain;
    domain.str("election");
    domain.u64(level);
    domain.u64(gi);
    auto coin = std::make_unique<CoinTossProto>(registry, members, t,
                                                std::move(domain).take(), p,
                                                seed * 1315423911ULL + p);
    max_rounds = std::max(max_rounds, coin->rounds());
    parties[p] = std::make_unique<SubProtocolHost>(std::move(coin), gi);
  }

  Simulator sim(std::move(parties), corrupt, nullptr);
  sim.set_ledger(&ledger);
  rounds += sim.run(max_rounds + 2);

  std::vector<Bytes> coins(groups.size());
  for (std::size_t gi = 0; gi < groups.size(); ++gi) {
    for (PartyId p : groups[gi]) {
      if (corrupt[p]) continue;
      auto* host = dynamic_cast<SubProtocolHost*>(sim.party(p));
      if (!host) continue;
      auto* ct = dynamic_cast<CoinTossProto*>(host->protocol());
      if (ct && ct->output().has_value()) {
        coins[gi] = *ct->output();
        break;
      }
    }
  }
  return coins;
}

/// Promote `quota` members of a group using its coin (first members when the
/// group produced no honest-visible coin — fully corrupted groups are the
/// adversary's to steer anyway).
std::vector<PartyId> promote(const std::vector<PartyId>& group, const Bytes& coin,
                             std::size_t group_index, std::size_t quota) {
  quota = std::min(quota, group.size());
  std::vector<PartyId> out;
  if (coin.empty()) {
    out.assign(group.begin(), group.begin() + static_cast<std::ptrdiff_t>(quota));
    return out;
  }
  for (std::size_t idx : prf_subset(coin, group_index, group.size(), quota)) {
    out.push_back(group[idx]);
  }
  return out;
}

}  // namespace

ElectionResult run_committee_election(std::size_t n, const std::vector<bool>& corrupt,
                                      const ElectionParams& params, std::uint64_t seed) {
  if (corrupt.size() != n) {
    throw std::invalid_argument("run_committee_election: corrupt mask size mismatch");
  }
  const std::size_t g = at_least(params.group_size, 4);
  const std::size_t b = at_least(params.merge_arity, 2);
  const std::size_t final_size = params.final_size ? params.final_size : g;

  auto registry = std::make_shared<const SimSigRegistry>(n, seed ^ 0xe1ec710aULL);

  // Level 0: partition by index (public, but carries no committee info —
  // the elections inject the post-corruption randomness).
  std::vector<std::vector<PartyId>> groups;
  for (PartyId p = 0; p < n; p += g) {
    std::vector<PartyId> group;
    for (PartyId q = p; q < std::min<PartyId>(p + g, n); ++q) group.push_back(q);
    if (group.size() >= 4) {
      groups.push_back(std::move(group));
    } else if (!groups.empty()) {
      // Fold a tiny tail group into its predecessor.
      groups.back().insert(groups.back().end(), group.begin(), group.end());
    }
  }

  ElectionResult result;
  // One ledger accounts every level's simulator run (sized up front, so
  // the books cover all n parties even when no level runs).
  obs::Ledger ledger;
  ledger.set_accumulate(true);
  ledger.on_run_begin(n);

  std::size_t level = 0;
  while (groups.size() > 1) {
    auto coins = run_coin_level(n, corrupt, registry, groups, level, seed + level,
                                ledger, result.rounds);
    // Promote ceil(size / b) members per group, then merge b groups each.
    std::vector<std::vector<PartyId>> next;
    for (std::size_t gi = 0; gi < groups.size(); gi += b) {
      std::vector<PartyId> merged;
      for (std::size_t k = gi; k < std::min(gi + b, groups.size()); ++k) {
        // Promote g/b from each group so full merges restore size ~g.
        auto promoted = promote(groups[k], coins[k], k, ceil_div(g, b));
        merged.insert(merged.end(), promoted.begin(), promoted.end());
      }
      std::sort(merged.begin(), merged.end());
      merged.erase(std::unique(merged.begin(), merged.end()), merged.end());
      next.push_back(std::move(merged));
    }
    groups = std::move(next);
    ++level;
  }

  // Final trim: one more coin inside the surviving group if it is larger
  // than the requested supreme-committee size.
  if (groups.front().size() > final_size) {
    auto coins = run_coin_level(n, corrupt, registry, groups, level, seed + level,
                                ledger, result.rounds);
    groups.front() = promote(groups.front(), coins.front(), 0, final_size);
    ++level;
  }

  result.stats = NetworkStats::of(ledger);
  result.stats.rounds = result.rounds;
  result.supreme_committee = groups.front();
  result.levels = level;
  std::size_t bad = 0;
  for (PartyId p : result.supreme_committee) bad += corrupt[p] ? 1 : 0;
  result.committee_corrupt_fraction =
      result.supreme_committee.empty()
          ? 0.0
          : static_cast<double>(bad) / static_cast<double>(result.supreme_committee.size());
  return result;
}

}  // namespace srds
