// Certified top-down dissemination — step 6 of Fig. 3: the supreme
// committee pushes (y, s, σ_root) to (almost) all parties.
//
// Unlike the plain (y, s) dissemination, the certificate σ needs no voting:
// it is *self-certifying* — a receiver accepts any σ that verifies against
// the (y, s) it carries, and unforgeability guarantees no valid σ exists
// for a wrong value. The protocol exploits this split:
//   * the small (y, s) value is forwarded to every member of every child
//     committee and adopted by per-node majority (exactly like
//     DisseminationProto), and
//   * the certificate — Õ(1) but with a chunky poly(κ) constant for the
//     OWF-based SRDS — is forwarded with sparse redundancy: each member
//     sends σ to only `redundancy` members of each child (deterministic
//     rotation), so per-edge certificate copies drop from k² to ρ·k.
// A member missing σ (all its ρ sources corrupt, probability β^ρ) still
// votes and forwards (y, s); receivers that end without a certificate are
// picked up by the PRF round (step 7). Safety is unconditional — only
// availability relies on redundancy, and bench/fig_security_games and the
// integration tests measure it.
//
// Retransmission (`retries` > 0): under a lossy network (net/faults.hpp),
// each committee member re-sends its forwarding for up to `retries` extra
// rounds, and a member whose copy only arrived late forwards as soon as it
// can. Receivers deduplicate per (node, sender), so retransmits never skew
// tallies; they only recover deliveries the network lost. The schedule
// stretches to height + 1 + retries rounds — all parties derive the same
// schedule from public parameters.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>

#include "net/subproto.hpp"
#include "tree/comm_tree.hpp"
#include "tree/dissemination.hpp"

namespace srds {

class CertifiedDissemProto final : public SubProtocol {
 public:
  /// Validator: is `sigma` a valid certificate for `value`? (Typically
  /// scheme->verify(value, sigma).)
  using Validator = std::function<bool(BytesView value, BytesView sigma)>;

  CertifiedDissemProto(std::shared_ptr<const CommTree> tree, PartyId me,
                       std::optional<Bytes> initial_value, Bytes initial_sigma,
                       Validator validator, std::size_t redundancy = 3,
                       std::size_t retries = 0);

  std::size_t rounds() const override { return tree_->height() + 1 + retries_; }

  Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) override;

  /// Final (value, certificate). The certificate is empty if none valid
  /// arrived; the value is empty if nothing arrived at all.
  const std::optional<Bytes>& value() const { return value_; }
  const Bytes& certificate() const { return certificate_; }

 private:
  std::shared_ptr<const CommTree> tree_;
  PartyId me_;
  std::optional<Bytes> initial_value_;
  Bytes initial_sigma_;
  Validator validator_;
  std::size_t redundancy_;
  std::size_t retries_;

  std::optional<Bytes> value_;
  Bytes certificate_;

  std::map<std::uint64_t, std::map<Bytes, std::size_t>> tallies_;  // per node
  std::map<std::uint64_t, Bytes> node_sigma_;  // first valid σ seen per node
  CountedCopies counted_;
  std::map<Bytes, std::size_t> party_tally_;
  std::vector<std::vector<std::size_t>> my_nodes_by_level_;
  std::map<std::uint64_t, std::size_t> my_seat_;  // node id -> my committee seat
};

}  // namespace srds
