#include "consensus/committee_ba.hpp"

#include <algorithm>
#include <map>

#include "common/serial.hpp"

namespace srds {

namespace {

std::vector<std::unique_ptr<SubProtocol>> make_instances(const SimSigRegistryPtr& registry,
                                                         const std::vector<PartyId>& members,
                                                         std::size_t t, const Bytes& domain,
                                                         PartyId me, const Bytes& input) {
  std::vector<std::unique_ptr<SubProtocol>> instances;
  instances.reserve(members.size());
  for (std::size_t s = 0; s < members.size(); ++s) {
    Writer w;
    w.bytes(domain);
    w.u64(s);
    std::optional<Bytes> my_input;
    if (members[s] == me) my_input = input;
    instances.push_back(std::make_unique<DolevStrongProto>(
        registry, members, s, t, std::move(w).take(), me, std::move(my_input)));
  }
  return instances;
}

}  // namespace

CommitteeBaProto::CommitteeBaProto(SimSigRegistryPtr registry, std::vector<PartyId> members,
                                   std::size_t t, Bytes domain, PartyId me, Bytes input)
    : members_(members),
      inner_(make_instances(registry, members_, t, domain, me, input)) {}

Outbox CommitteeBaProto::step(std::size_t subround, const std::vector<TaggedMsg>& inbox) {
  auto out = inner_.step(subround, inbox);
  if (subround + 1 == rounds()) {
    std::map<Bytes, std::size_t> tally;
    for (std::size_t i = 0; i < inner_.size(); ++i) {
      const auto* ds = dynamic_cast<const DolevStrongProto*>(inner_.child(i));
      if (ds && ds->output().has_value()) tally[*ds->output()] += 1;
    }
    std::size_t best = 0;
    for (const auto& [value, count] : tally) {
      if (count > best) {
        best = count;
        output_ = value;
      }
    }
  }
  return out;
}

}  // namespace srds
