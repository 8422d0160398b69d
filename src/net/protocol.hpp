// Interfaces implemented by protocol logic running on the simulator.
#pragma once

#include <memory>
#include <vector>

#include "common/message.hpp"

namespace srds {

/// Protocol logic of one honest party.
///
/// The simulator calls `on_round(r, inbox)` exactly once per synchronous
/// round; `inbox` holds the messages sent to this party in round r-1 (empty
/// in round 0). The return value is what the party sends in round r: each
/// body once, with its recipients (SendList).
///
/// Different parties' `on_round` calls in one round may run concurrently on
/// the simulator's worker pool (DESIGN.md §7): state shared between parties
/// must be read-only or thread-safe, and must not make a party's outputs
/// depend on the order other parties step in.
///
/// Implementations must treat `inbox` as untrusted: any message may have been
/// crafted by the adversary. Malformed messages must be dropped, never cause
/// a throw that crosses this interface.
class Party {
 public:
  virtual ~Party() = default;

  virtual SendList on_round(std::size_t round, const std::vector<Message>& inbox) = 0;

  /// True once the party has produced its final output.
  virtual bool done() const = 0;
};

/// The adversary controls all corrupted parties jointly and is *rushing*:
/// in each round it sees the honest parties' outgoing messages for that round
/// (full-information network) before choosing the corrupted parties' messages.
/// It always runs on the simulator's coordinating thread, after every honest
/// step of the round has finished (DESIGN.md §7), so it needs no locking.
///
/// An *adaptive* adversary may additionally corrupt honest parties mid-run,
/// subject to the simulator's corruption budget (Simulator::
/// set_corruption_budget): at the start of each round the simulator asks for
/// `corruption_requests(round)` and grants them in order while budget
/// remains; each grant flips the party's slot to corrupt and hands the
/// seized party logic to `on_corrupted`. All requests must be derived
/// deterministically from (seed, round, party) so runs stay reproducible.
class Adversary {
 public:
  virtual ~Adversary() = default;

  /// `corrupt_inbox` — messages delivered this round to corrupted parties;
  /// `honest_sends` — what honest parties are sending this round, indexed
  /// by sender: `honest_sends[i]` is party i's send list, empty for parties
  /// that did not step (corrupt, crashed, offline). Read in sender order,
  /// body by body and each body's recipients in order, it is the order the
  /// network delivers in. The view is valid only for this call.
  /// Returns the corrupted parties' messages for this round (each message's
  /// `from` must be a corrupted party; the simulator enforces this).
  virtual std::vector<Message> on_round(std::size_t round,
                                        const std::vector<Message>& corrupt_inbox,
                                        const std::vector<SendList>& honest_sends) = 0;

  /// Parties this adversary wants to corrupt at the start of `round`,
  /// in priority order. Only consulted when a corruption budget is set;
  /// requests beyond the budget (or naming already-corrupt / crashed /
  /// out-of-range parties) are denied and counted, never granted.
  virtual std::vector<PartyId> corruption_requests(std::size_t round) {
    (void)round;
    return {};
  }

  /// A corruption request was granted: from `round` on, `party` is
  /// adversarial. `seized` is the party's protocol logic — its entire
  /// internal state is now visible to the adversary (read-only by
  /// convention; the simulator will never step it again). Messages already
  /// in flight to the party from earlier rounds still arrive — into the
  /// adversary's inbox.
  virtual void on_corrupted(std::size_t round, PartyId party, Party* seized) {
    (void)round;
    (void)party;
    (void)seized;
  }
};

/// An adversary whose corrupted parties stay silent (fail-stop-like).
class SilentAdversary final : public Adversary {
 public:
  std::vector<Message> on_round(std::size_t, const std::vector<Message>&,
                                const std::vector<SendList>&) override {
    return {};
  }
};

}  // namespace srds
