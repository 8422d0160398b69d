// Run several SubProtocols side by side as one composite SubProtocol.
// Bodies are framed with the child index so instances multiplex over the
// same channel. Used for "every committee member broadcasts" blocks (c
// parallel Dolev-Strong instances) and similar fan-outs.
#pragma once

#include <memory>
#include <vector>

#include "common/serial.hpp"
#include "net/subproto.hpp"

namespace srds {

class ParallelProto final : public SubProtocol {
 public:
  explicit ParallelProto(std::vector<std::unique_ptr<SubProtocol>> children)
      : children_(std::move(children)) {
    for (const auto& c : children_) {
      if (c && c->rounds() > rounds_) rounds_ = c->rounds();
    }
  }

  std::size_t rounds() const override { return rounds_; }

  Outbox step(std::size_t subround, const std::vector<TaggedMsg>& inbox) override {
    // Demux inbox by child index. Frames whose index header is truncated or
    // out of range are counted, not silently dropped — an adversary spraying
    // garbage at a committee shows up in faults.malformed_frames. A frame
    // addressed to a child whose schedule already ended is well-formed and is
    // discarded without counting (children legitimately differ in rounds()).
    std::vector<std::vector<TaggedMsg>> per_child(children_.size());
    for (const auto& msg : inbox) {
      Reader r(msg.body);
      std::uint32_t idx = r.u32();
      if (!r.ok() || idx >= children_.size()) {
        malformed_ += 1;
        continue;
      }
      per_child[idx].emplace_back(msg.from, r.view(r.remaining()), msg.instance);
    }
    // Each child's bodies come back owned; the child index is written in
    // front of each body once, in place.
    Outbox out;
    for (std::size_t i = 0; i < children_.size(); ++i) {
      if (!children_[i] || subround >= children_[i]->rounds()) continue;
      Outbox sends = children_[i]->step(subround, per_child[i]);
      sends.frame(le_bytes(static_cast<std::uint32_t>(i)));
      out.append(std::move(sends));
    }
    return out;
  }

  SubProtocol* child(std::size_t i) { return children_[i].get(); }
  const SubProtocol* child(std::size_t i) const { return children_[i].get(); }
  std::size_t size() const { return children_.size(); }

  std::uint64_t malformed_frames() const override {
    std::uint64_t total = malformed_;
    for (const auto& c : children_) {
      if (c) total += c->malformed_frames();
    }
    return total;
  }

 private:
  std::vector<std::unique_ptr<SubProtocol>> children_;
  std::size_t rounds_ = 0;
  std::uint64_t malformed_ = 0;
};

}  // namespace srds
