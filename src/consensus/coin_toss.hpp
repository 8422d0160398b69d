// Committee coin tossing — the f_ct functionality of §3.1, in the style of
// Chor-Goldwasser-Micali-Awerbuch (VSS-backed contributory randomness).
//
// Each member ("dealer") samples a field element r_i, Shamir-shares it with
// threshold t, commits to every share, and Dolev-Strong-broadcasts the
// commitment vector while delivering shares privately (block A). In block B
// every member Dolev-Strong-broadcasts all shares it received. Each dealer's
// contribution is then reconstructed from the commitment-validated shares —
// *whether or not the dealer cooperates* — or deterministically zeroed if
// fewer than 2t+1 members ended up holding valid shares or the valid shares
// are inconsistent. The coin is a hash of all contributions.
//
//   * Agreement: every input to the decision rule is a Dolev-Strong output,
//     so all honest members derive the same coin.
//   * Unpredictability: honest contributions stay hidden (t shares reveal
//     nothing) until every dealer's contribution is already fixed by the
//     block-A commitments.
//   * Robustness: honest dealers always contribute (their >= 2t+1 honest
//     shares are revealed and reconstruct); a withholding dealer is zeroed.
//
// Known gap vs. the ideal functionality (documented, see DESIGN.md): a
// corrupt dealer who deals an *inconsistent* share vector to a carefully
// chosen subset can retain a binary influence on whether its contribution
// reconstructs or zeroes, resolved after honest values are revealed. Closing
// this needs a full VSS complaint phase; none of the reproduced experiments
// is sensitive to this bias (the seed retains >= 61 bits of honest entropy).
#pragma once

#include <memory>
#include <optional>

#include "common/rng.hpp"
#include "consensus/shamir.hpp"
#include "crypto/digest.hpp"
#include "crypto/simsig.hpp"
#include "net/parallel.hpp"
#include "net/subproto.hpp"
#include "obs/budget.hpp"

namespace srds {

class CoinTossProto final : public SubProtocol {
 public:
  CoinTossProto(SimSigRegistryPtr registry, std::vector<PartyId> members, std::size_t t,
                Bytes domain, PartyId me, std::uint64_t local_seed);

  /// Block A (t+2 rounds) + block B (t+2 rounds).
  std::size_t rounds() const override { return 2 * (t_ + 2); }

  /// Per-party communication budget for the f_ct phase: every member
  /// Dolev-Strong-broadcasts a Θ(log n)-entry commitment vector and later
  /// all received shares, each broadcast costing Θ(log² n) messages —
  /// Θ(log⁴ n) bits per member, zero outside the committee. Constant
  /// calibrated against seeded runs (tests/budget_test.cpp).
  static obs::Budget phase_budget() { return {.c = 12'000, .k = 4}; }

  Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) override;

  /// The 32-byte coin (engaged after the last step).
  const std::optional<Bytes>& output() const { return output_; }

  std::uint64_t malformed_frames() const override {
    std::uint64_t total = 0;
    if (block_a_) total += block_a_->malformed_frames();
    if (block_b_) total += block_b_->malformed_frames();
    return total;
  }

 private:
  struct ReceivedShare {
    bool has = false;
    std::uint64_t y = 0;
    Bytes rho;  // 16 bytes
  };

  void decide();

  SimSigRegistryPtr registry_;
  std::vector<PartyId> members_;
  std::size_t t_;
  Bytes domain_;
  PartyId me_;
  std::size_t my_idx_;
  Rng rng_;

  // My dealing.
  std::uint64_t my_r_ = 0;
  std::vector<Share> my_shares_;
  std::vector<Bytes> my_rhos_;

  // Shares received from each dealer (by dealer index).
  std::vector<ReceivedShare> received_;

  std::unique_ptr<ParallelProto> block_a_;
  std::unique_ptr<ParallelProto> block_b_;
  std::optional<Bytes> output_;
};

}  // namespace srds
