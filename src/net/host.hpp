// Host party that runs a single SubProtocol on the simulator.
//
// Used by tests and by standalone protocol drivers: the sub-protocol's
// bodies are wrapped with a fixed (phase=0, instance) tag and stepped once
// per global round. Production protocols (π_ba) embed sub-protocols with
// their own scheduling instead.
#pragma once

#include <memory>
#include <optional>

#include "net/protocol.hpp"
#include "net/subproto.hpp"

namespace srds {

class SubProtocolHost final : public Party {
 public:
  explicit SubProtocolHost(std::unique_ptr<SubProtocol> proto, std::uint64_t instance = 0)
      : proto_(std::move(proto)), instance_(instance) {}

  SendList on_round(std::size_t round, const std::vector<Message>& inbox) override {
    if (round >= proto_->rounds()) {
      done_ = true;
      return {};
    }
    std::vector<TaggedMsg> bodies;
    for (const auto& m : inbox) {
      std::uint32_t phase;
      std::uint64_t inst;
      BytesView body;
      if (untag_body(m.payload, phase, inst, body) && phase == 0 && inst == instance_) {
        bodies.emplace_back(m.from, body, inst);
      }
    }
    SendList out;
    send_tagged(out, proto_->step(round, bodies), 0, instance_, MsgKind::kUnknown);
    if (round + 1 >= proto_->rounds()) done_ = true;
    return out;
  }

  bool done() const override { return done_; }

  SubProtocol* protocol() { return proto_.get(); }

 private:
  std::unique_ptr<SubProtocol> proto_;
  std::uint64_t instance_;
  bool done_ = false;
};

}  // namespace srds
