// srds-lint fixture: raw Message construction (rule B1). Linted under a
// protocol path (src/consensus/...) where construction must go through
// make_msg; tests/lint_test.cpp also lints it under src/net/... where the
// same lines are legal. Line numbers are asserted exactly.
#include "common/message.hpp"

namespace fixture {

srds::Message braced(srds::PartyId me) {
  return srds::Message{me, 0, {}, srds::MsgKind::kUnknown};  // line 10: braced
}

srds::Message functional(srds::PartyId me) {
  return Message(me, 0);  // line 14: functional cast
}

void fine(srds::PartyId me) {
  std::vector<srds::Message> outbox;     // template arg: no finding
  const srds::Message& ref = outbox[0];  // reference: no finding
  (void)ref;
  (void)me;
}

}  // namespace fixture
