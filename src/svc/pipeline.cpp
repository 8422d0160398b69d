#include "svc/pipeline.hpp"

#include "common/serial.hpp"
#include "obs/prof.hpp"

namespace srds::svc {

void InstancePipeline::admit(std::uint64_t id, std::size_t base_round,
                             const PiBaConfig& config, bool input) {
  Slot s;
  s.id = id;
  s.base_round = base_round;
  s.party = std::make_unique<PiBaParty>(config, me_, input);
  slots_.push_back(std::move(s));
}

std::vector<InstancePipeline::Retired> InstancePipeline::take_retired() {
  std::vector<Retired> out;
  out.swap(retired_);
  return out;
}

SendList InstancePipeline::on_round(std::size_t round, const std::vector<Message>& inbox) {
  PROF_SCOPE(obs::ProfSiteId::kSvcPipelineStep);
  // Demux by instance id. Instance lookup is by linear scan over the (small,
  // bounded by the daemon's max_inflight) active set.
  std::vector<std::vector<Message>> per_slot(slots_.size());
  for (const Message& m : inbox) {
    Reader r(m.payload);
    const std::uint64_t id = r.u64();
    if (!r.ok()) {
      malformed_ += 1;
      continue;
    }
    bool routed = false;
    for (std::size_t i = 0; i < slots_.size(); ++i) {
      if (slots_[i].id == id) {
        // The frame minus its header, sharing the wire block, with the
        // original sender/kind: the instance's own demux (phase tags) sees
        // exactly what it would in a standalone run.
        per_slot[i].push_back(make_msg(m.from, m.to, m.payload.suffix(sizeof id), m.kind));
        routed = true;
        break;
      }
    }
    if (!routed) stale_ += 1;  // retired or never-admitted instance
  }

  SendList out;
  for (std::size_t i = 0; i < slots_.size(); ++i) {
    Slot& s = slots_[i];
    const std::size_t local = round - s.base_round;
    // The instance id is written in front of each body once, and its
    // recipients share the framed body (DESIGN.md, "Message framing").
    const auto header = le_bytes(s.id);
    const SendList sends = s.party->on_round(local, per_slot[i]);
    for (std::size_t k = 0; k < sends.size(); ++k) {
      out.send_all(sends.to(k), concat(header, sends.body(k).view()), sends.kind(k));
    }
  }

  // Retire finished instances (done() engages when the schedule — including
  // grace rounds — has fully elapsed).
  std::vector<Slot> live;
  live.reserve(slots_.size());
  for (Slot& s : slots_) {
    if (s.party->done()) {
      Retired r;
      r.id = s.id;
      r.retired_round = round;
      r.output = s.party->output();
      retired_malformed_ += s.party->malformed_frames();
      retired_.push_back(std::move(r));
    } else {
      live.push_back(std::move(s));
    }
  }
  slots_ = std::move(live);
  return out;
}

std::uint64_t InstancePipeline::malformed_frames() const {
  std::uint64_t total = malformed_ + retired_malformed_;
  for (const Slot& s : slots_) total += s.party->malformed_frames();
  return total;
}

}  // namespace srds::svc
