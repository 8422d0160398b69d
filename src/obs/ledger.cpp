#include "obs/ledger.hpp"

#include <algorithm>

namespace srds::obs {

void Ledger::on_run_begin(std::size_t n_parties) {
  seal_peers();
  const bool carry = accumulate_ && n_ == n_parties && !totals_.empty();
  n_ = n_parties;
  if (carry) {
    // Peers accumulate like totals: fold the previous run's phase lists
    // into the carried ones before the phases restart.
    std::vector<PartyId> buf;
    for (PartyId i = 0; i < n_; ++i) {
      gather_peers(i, 0, phases_.size(), true, buf);
      carried_peers_[i].swap(buf);
    }
  } else {
    totals_.assign(n_, PartyTally{});
    kinds_.assign(static_cast<std::size_t>(MsgKind::kCount), {});
    for (auto& k : kinds_) k.assign(n_, PartyTally{});
    carried_peers_.assign(n_, {});
    rounds_run_ = 0;
  }
  // Phase marks describe one run's schedule; their tallies and the round
  // rows restart either way (an accumulating ledger carries whole-run,
  // per-kind and peer totals).
  if (phases_.empty() || phases_.front().start > 0) {
    phases_.insert(phases_.begin(), Phase{"pre", 0, {}, {}});
  }
  for (Phase& p : phases_) {
    p.parties.assign(n_, PartyTally{});
    p.peers.assign(n_, PeerList{});
  }
  dirty_.clear();
  dirty_.reserve(n_);
  round_totals_.clear();
  // Re-anchor onto round 0's phase: marks surviving from a previous
  // accumulated execution may place it past the implicit "pre" entry.
  cur_phase_ = 0;
  advance_phase(0);
}

void Ledger::on_phase(std::size_t start_round, const std::string& name) {
  // Re-registering an existing mark is a no-op: an accumulating ledger sees
  // the same schedule once per execution, and piling up duplicate entries
  // would leave phase_index() pointing at a stale copy.
  for (const Phase& existing : phases_) {
    if (existing.start == start_round && existing.name == name) return;
  }
  // Phase indices shift below: settle the current phase's peers first.
  seal_peers();
  Phase p{name, start_round, {}, {}};
  if (n_ > 0) {
    p.parties.assign(n_, PartyTally{});
    p.peers.assign(n_, PeerList{});
  }
  auto pos = std::upper_bound(
      phases_.begin(), phases_.end(), start_round,
      [](std::size_t r, const Phase& ph) { return r < ph.start; });
  phases_.insert(pos, std::move(p));
  // A mark registered mid-run at or before the current round re-anchors the
  // current phase; recompute from scratch (cold path, phases are few).
  cur_phase_ = 0;
  advance_phase(cur_round_);
}

void Ledger::advance_phase(std::size_t round) {
  cur_round_ = round;
  if (round >= round_totals_.size()) round_totals_.resize(round + 1);
  std::size_t p = cur_phase_;
  while (p + 1 < phases_.size() && phases_[p + 1].start <= round) ++p;
  if (p != cur_phase_) {
    seal_peers();
    cur_phase_ = p;
  }
}

void Ledger::add_peer(PartyId self, PartyId peer) {
  PeerList& l = phases_[cur_phase_].peers[self];
  const auto sealed_end = l.ids.begin() + static_cast<std::ptrdiff_t>(l.sealed);
  // Known peers (the common case once a party's neighbourhood is settled)
  // cost a binary search and no write.
  if (std::binary_search(l.ids.begin(), sealed_end, peer)) return;
  if (l.ids.size() > l.sealed && l.ids.back() == peer) return;  // same peer again
  if (l.ids.size() == l.sealed) dirty_.push_back(self);
  l.ids.push_back(peer);
}

void Ledger::seal_peers() {
  if (dirty_.empty()) return;
  for (PartyId i : dirty_) seal(phases_[cur_phase_].peers[i]);
  dirty_.clear();
}

void Ledger::seal(PeerList& list) {
  std::vector<PartyId>& ids = list.ids;
  const auto tail = ids.begin() + static_cast<std::ptrdiff_t>(list.sealed);
  // add_peer admits only peers the sorted prefix does not hold yet.
  std::sort(tail, ids.end());
  ids.erase(std::unique(tail, ids.end()), ids.end());
  const std::size_t fresh = ids.size() - list.sealed;
  if (fresh > 0 && list.sealed > 0 && ids[list.sealed] < ids[list.sealed - 1]) {
    // Merge back to front, so the list keeps its own buffer.
    merge_buf_.assign(ids.begin() + static_cast<std::ptrdiff_t>(list.sealed), ids.end());
    std::size_t i = list.sealed, j = fresh, w = ids.size();
    while (j > 0) {
      ids[--w] = (i > 0 && ids[i - 1] > merge_buf_[j - 1]) ? ids[--i] : merge_buf_[--j];
    }
  }
  list.sealed = ids.size();
}

// srds-lint: hotpath(Ledger::on_send) — one call per accepted send; indexes preallocated
// tallies and appends to a peer list only (no allocation beyond amortized vector growth,
// unwinding, or type erasure; rule P1).
void Ledger::on_send(std::size_t round, const Message& m) {
  if (m.from >= n_) return;
  if (round != cur_round_) advance_phase(round);
  const std::uint64_t bytes = m.payload.size();
  auto charge = [&](PartyTally& t) {
    t.bytes_sent += bytes;
    t.msgs_sent += 1;
  };
  charge(totals_[m.from]);
  charge(round_totals_[cur_round_]);
  charge(phases_[cur_phase_].parties[m.from]);
  auto k = static_cast<std::size_t>(m.kind);
  if (k >= kinds_.size()) k = 0;
  charge(kinds_[k][m.from]);
  add_peer(m.from, m.to);
}

// srds-lint: hotpath(Ledger::on_delivery) — one call per delivery outcome; same constraints as
// on_send.
void Ledger::on_delivery(std::size_t round, const Message& m, Delivery outcome) {
  switch (outcome) {
    case Delivery::kDelivered:
    case Delivery::kDuplicated:
    case Delivery::kLate:
      break;
    case Delivery::kDropped:
    case Delivery::kPartitioned:
    case Delivery::kDelayed:
    case Delivery::kOffline:
      return;  // nobody received anything
  }
  if (m.to >= n_) return;
  if (round != cur_round_) advance_phase(round);
  const std::uint64_t bytes = m.payload.size();
  auto charge = [&](PartyTally& t) {
    t.bytes_recv += bytes;
    t.msgs_recv += 1;
  };
  charge(totals_[m.to]);
  charge(round_totals_[cur_round_]);
  charge(phases_[cur_phase_].parties[m.to]);
  auto k = static_cast<std::size_t>(m.kind);
  if (k >= kinds_.size()) k = 0;
  charge(kinds_[k][m.to]);
  add_peer(m.to, m.from);
}

void Ledger::on_round_end(std::size_t round) {
  (void)round;
  seal_peers();
}

void Ledger::on_run_end(std::size_t rounds) {
  seal_peers();
  rounds_run_ = std::max(rounds_run_, rounds);
}

void Ledger::gather_peers(PartyId i, std::size_t first_phase, std::size_t last_phase,
                          bool with_carried, std::vector<PartyId>& out) const {
  out.clear();
  std::size_t lists = 0;  // non-empty lists gathered
  bool sealed = true;     // all of them sorted and duplicate-free
  auto take = [&](const std::vector<PartyId>& ids, std::size_t sorted_len) {
    if (ids.empty()) return;
    ++lists;
    sealed = sealed && sorted_len == ids.size();
    out.insert(out.end(), ids.begin(), ids.end());
  };
  if (with_carried && i < carried_peers_.size()) {
    take(carried_peers_[i], carried_peers_[i].size());
  }
  for (std::size_t p = first_phase; p < std::min(last_phase, phases_.size()); ++p) {
    if (i < phases_[p].peers.size()) {
      take(phases_[p].peers[i].ids, phases_[p].peers[i].sealed);
    }
  }
  if (lists > 1 || !sealed) {
    std::sort(out.begin(), out.end());
    out.erase(std::unique(out.begin(), out.end()), out.end());
  }
}

std::vector<std::size_t> Ledger::union_sizes(std::size_t first_phase, std::size_t last_phase,
                                             bool with_carried) const {
  std::vector<std::size_t> sizes(n_, 0);
  std::vector<PartyId> buf;
  for (PartyId i = 0; i < n_; ++i) {
    gather_peers(i, first_phase, last_phase, with_carried, buf);
    sizes[i] = buf.size();
  }
  return sizes;
}

std::vector<std::size_t> Ledger::locality() const {
  return union_sizes(0, phases_.size(), true);
}

std::vector<std::size_t> Ledger::locality(std::size_t first_phase,
                                          std::size_t last_phase) const {
  return union_sizes(first_phase, last_phase, false);
}

std::size_t Ledger::phase_rounds(std::size_t p) const {
  const std::size_t stop =
      p + 1 < phases_.size() ? std::min(phases_[p + 1].start, rounds_run_) : rounds_run_;
  return stop > phases_[p].start ? stop - phases_[p].start : 0;
}

std::size_t Ledger::phase_index(const std::string& name) const {
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    if (phases_[p].name == name) return p;
  }
  return kAllPhases;
}

namespace {

std::uint64_t field_of(const PartyTally& t, LedgerField f) {
  switch (f) {
    case LedgerField::kBytesSent: return t.bytes_sent;
    case LedgerField::kBytesRecv: return t.bytes_recv;
    case LedgerField::kBytesTotal: return t.bytes_total();
    case LedgerField::kMsgsSent: return t.msgs_sent;
    case LedgerField::kMsgsRecv: return t.msgs_recv;
  }
  return 0;
}

}  // namespace

PartyStat Ledger::stat_of(const std::vector<PartyTally>& tallies, LedgerField field,
                          const std::vector<bool>* exclude) const {
  PartyStat s;
  std::vector<std::uint64_t> values;
  values.reserve(tallies.size());
  for (PartyId i = 0; i < tallies.size(); ++i) {
    if (exclude && i < exclude->size() && (*exclude)[i]) continue;
    const std::uint64_t v = field_of(tallies[i], field);
    if (v > s.max) {
      s.max = v;
      s.argmax = i;
    }
    s.total += v;
    values.push_back(v);
  }
  s.parties = values.size();
  if (!values.empty()) {
    std::sort(values.begin(), values.end());
    s.p50 = values[values.size() / 2];
    s.p90 = values[std::min(values.size() - 1, (values.size() * 9) / 10)];
  }
  return s;
}

PartyStat Ledger::stat(LedgerField field, std::size_t phase,
                       const std::vector<bool>* exclude) const {
  if (phase == kAllPhases) return stat_of(totals_, field, exclude);
  return stat_of(phases_[phase].parties, field, exclude);
}

namespace {

Json stat_json(const PartyStat& s) {
  Json j = Json::object();
  j.set("max", s.max);
  j.set("argmax", s.argmax);
  j.set("p50", s.p50);
  j.set("p90", s.p90);
  j.set("total", s.total);
  return j;
}

}  // namespace

Json Ledger::to_json(bool per_party) const {
  Json out = Json::object();
  out.set("n", n_);
  out.set("rounds", rounds_run_);

  Json totals = Json::object();
  totals.set("bytes_sent", stat_json(stat(LedgerField::kBytesSent)));
  totals.set("bytes_recv", stat_json(stat(LedgerField::kBytesRecv)));
  totals.set("bytes_total", stat_json(stat(LedgerField::kBytesTotal)));
  totals.set("msgs_sent", stat_json(stat(LedgerField::kMsgsSent)));
  out.set("totals", std::move(totals));

  Json phases = Json::array();
  for (std::size_t p = 0; p < phases_.size(); ++p) {
    Json j = Json::object();
    j.set("name", phases_[p].name);
    j.set("start", phases_[p].start);
    j.set("bytes_total", stat_json(stat(LedgerField::kBytesTotal, p)));
    j.set("bytes_sent", stat_json(stat(LedgerField::kBytesSent, p)));
    j.set("msgs_sent", stat_json(stat(LedgerField::kMsgsSent, p)));
    phases.push_back(std::move(j));
  }
  out.set("phases", std::move(phases));

  Json kinds = Json::object();
  for (std::size_t k = 0; k < kinds_.size(); ++k) {
    PartyStat sent = stat_of(kinds_[k], LedgerField::kBytesSent, nullptr);
    PartyStat msgs = stat_of(kinds_[k], LedgerField::kMsgsSent, nullptr);
    if (sent.total == 0 && msgs.total == 0) continue;
    Json j = Json::object();
    j.set("bytes_sent", stat_json(sent));
    j.set("msgs_sent", stat_json(msgs));
    kinds.set(msg_kind_name(static_cast<MsgKind>(k)), std::move(j));
  }
  out.set("kinds", std::move(kinds));

  if (per_party) {
    Json parties = Json::array();
    for (const PartyTally& t : totals_) {
      Json j = Json::object();
      j.set("bytes_sent", t.bytes_sent);
      j.set("bytes_recv", t.bytes_recv);
      j.set("msgs_sent", t.msgs_sent);
      j.set("msgs_recv", t.msgs_recv);
      parties.push_back(std::move(j));
    }
    out.set("per_party", std::move(parties));
  }
  return out;
}

}  // namespace srds::obs
