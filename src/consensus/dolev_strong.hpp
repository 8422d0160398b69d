// Dolev-Strong authenticated broadcast, run inside polylog-size committees.
//
// Realizes a broadcast channel among the committee members (used by f_ba and
// f_ct in paper §3.1; the paper cites Garay-Moses '93 for committee BA — we
// use the signature-based Dolev-Strong protocol instead, which is simpler,
// tolerates any t < c, and is legitimate here because the whole protocol
// already assumes a PKI; see DESIGN.md).
//
// Round structure (t = tolerated corruptions): the sender signs its value and
// multicasts in round 0; a member that extracts a new value in round r (a
// value carrying >= r distinct valid member signatures including the
// sender's) appends its own signature and relays. After round t+1 a member
// outputs the unique extracted value, or ⊥ (nullopt) if zero or multiple
// values were extracted. Guarantees: all honest members output the same
// value, and an honest sender's value is always delivered.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "crypto/simsig.hpp"
#include "net/subproto.hpp"

namespace srds {

class DolevStrongProto final : public SubProtocol {
 public:
  /// `members`: global party ids of the committee (defines local indices);
  /// `sender_idx`: local index of the designated sender;
  /// `t`: number of corruptions tolerated (rounds = t + 2);
  /// `domain`: instance-separation string mixed into every signature;
  /// `me`: my global party id;
  /// `input`: engaged iff I am the sender.
  DolevStrongProto(SimSigRegistryPtr registry, std::vector<PartyId> members,
                   std::size_t sender_idx, std::size_t t, Bytes domain, PartyId me,
                   std::optional<Bytes> input);

  std::size_t rounds() const override { return t_ + 2; }

  Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) override;

  /// The broadcast value, or nullopt (⊥) for "sender faulty".
  const std::optional<Bytes>& output() const { return output_; }

 private:
  Digest sign_target(BytesView value) const;
  /// Sign `value` onto `chain` and send it, one body, to every other member.
  void relay(BytesView value, std::vector<std::pair<PartyId, SimSig>> chain, Outbox& out);

  SimSigRegistryPtr registry_;
  std::vector<PartyId> members_;
  std::size_t sender_idx_;
  std::size_t t_;
  Bytes domain_;
  PartyId me_;
  std::optional<Bytes> input_;

  // Extracted values (at most 2 tracked; more adds no information).
  std::vector<Bytes> extracted_;
  std::optional<Bytes> output_;
};

}  // namespace srds
