// InstancePipeline — staggered concurrent BA instances on one party.
//
// net/parallel.hpp composes sub-protocols in *lockstep*: all children start
// at subround 0 together. The service needs the general form: agreement
// requests arrive at arbitrary rounds, so each party hosts a set of π_ba
// instances that are each at a *different* local round, multiplexed over the
// same authenticated channels with per-instance framing:
//
//   payload' = u64 instance_id ‖ payload
//
// The pipeline is a net Party: the daemon admits an instance into every
// honest party's pipeline between simulator rounds (same round everywhere —
// admission is a daemon decision, so the synchronous schedule stays global),
// and each on_round steps every active instance at its own local round
// (global round − admission round). An instance whose schedule ends retires
// with its output; the daemon collects retirements and feeds decisions back
// to sessions in submission order (svc/session.hpp).
//
// Framing hygiene matches ParallelProto: a payload too short for the
// instance header is counted malformed; a parseable frame for an unknown or
// already-retired instance is counted stale and dropped (messages sent in an
// instance's final round legitimately arrive one round after retirement).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "ba/pi_ba.hpp"
#include "net/protocol.hpp"

namespace srds::svc {

class InstancePipeline final : public Party {
 public:
  explicit InstancePipeline(PartyId me) : me_(me) {}

  /// Admit one BA instance starting at the next simulator round. The daemon
  /// must call this with identical (id, config) on every live honest party
  /// before ticking that round; `input` is the submitted bit for the
  /// broadcaster party and immaterial elsewhere (broadcast mode ignores
  /// non-broadcaster inputs).
  void admit(std::uint64_t id, std::size_t base_round, const PiBaConfig& config,
             bool input);

  /// Instances still running.
  std::size_t active() const { return slots_.size(); }

  /// An instance that finished its schedule on this party.
  struct Retired {
    std::uint64_t id = 0;
    std::size_t retired_round = 0;       // global round of retirement
    std::optional<bool> output;
  };

  /// Drain instances retired since the last call (admission order).
  std::vector<Retired> take_retired();

  /// Keep the party alive with no active instances (a service daemon is
  /// long-lived); close() lets done() engage once the last instance retires.
  void close() { open_ = false; }
  bool done() const override { return !open_ && slots_.empty(); }

  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override;

  /// Frame-parse failures: payloads too short for the instance header, plus
  /// whatever the hosted instances' own demux layers rejected.
  std::uint64_t malformed_frames() const;
  /// Well-formed frames for unknown/retired instances (dropped silently).
  std::uint64_t stale_frames() const { return stale_; }

 private:
  struct Slot {
    std::uint64_t id = 0;
    std::size_t base_round = 0;
    std::unique_ptr<PiBaParty> party;
  };

  PartyId me_;
  // Pipeline state is owned by the daemon's round loop (one thread drives
  // every hosted instance).
  bool open_ = true;
  std::vector<Slot> slots_;  // admission order
  std::vector<Retired> retired_;
  std::uint64_t malformed_ = 0;
  // Carried over from retired instances.
  std::uint64_t retired_malformed_ = 0;
  std::uint64_t stale_ = 0;
};

}  // namespace srds::svc
