#include "svc/session.hpp"

namespace srds::svc {

std::uint64_t SessionManager::open() {
  const std::uint64_t id = next_session_++;
  sessions_.emplace(id, Session{});
  return id;
}

void SessionManager::close(std::uint64_t session) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  it->second.open = false;
  // In-flight instances keep running inside the pipelines (stopping them
  // mid-protocol would desynchronize the lockstep schedule); unbinding them
  // here makes complete() drop their releases on the floor.
  for (const auto& kv : it->second.pending) {
    if (kv.second.tracked) instance_index_.erase(kv.second.instance);
  }
  it->second.pending.clear();
}

bool SessionManager::is_open(std::uint64_t session) const {
  auto it = sessions_.find(session);
  return it != sessions_.end() && it->second.open;
}

SubmitResult SessionManager::submit(std::uint64_t session, std::uint64_t seq,
                                    std::uint32_t retry_after_hint) {
  SubmitResult res;
  auto it = sessions_.find(session);
  if (it == sessions_.end() || !it->second.open || seq == 0) {
    res.status = SubmitStatus::kBadSession;
    if (it != sessions_.end() && seq == 0) res.status = SubmitStatus::kBadSeq;
    return res;
  }
  Session& s = it->second;

  if (seq < s.next_seq) {
    // Replay of an older submission: still in flight, decided (replay the
    // cached decision) or evicted from the cache.
    if (auto p = s.pending.find(seq); p != s.pending.end()) {
      res.status = SubmitStatus::kDuplicateInFlight;
      return res;
    }
    for (const auto& [cseq, record] : s.completed) {
      if (cseq == seq) {
        res.status = SubmitStatus::kDuplicateDecided;
        res.cached = record;
        return res;
      }
    }
    res.status = SubmitStatus::kDuplicateEvicted;
    return res;
  }
  if (seq != s.next_seq) {
    res.status = SubmitStatus::kBadSeq;  // gap — client-side bug
    return res;
  }
  if (s.pending.size() >= window_) {
    rejected_full_ += 1;
    res.status = SubmitStatus::kRejectedFull;
    res.retry_after = retry_after_hint;
    return res;
  }
  s.next_seq += 1;
  s.pending.emplace(seq, Pending{});
  res.status = SubmitStatus::kAccepted;
  return res;
}

void SessionManager::track(std::uint64_t session, std::uint64_t seq, std::uint64_t instance) {
  auto it = sessions_.find(session);
  if (it == sessions_.end()) return;
  auto p = it->second.pending.find(seq);
  if (p == it->second.pending.end()) return;
  p->second.instance = instance;
  p->second.tracked = true;
  instance_index_[instance] = {session, seq};
}

std::vector<Release> SessionManager::complete(std::uint64_t instance,
                                              const DecisionRecord& record) {
  std::vector<Release> out;
  auto idx = instance_index_.find(instance);
  if (idx == instance_index_.end()) return out;  // session closed meanwhile
  const auto [session, seq] = idx->second;
  instance_index_.erase(idx);

  auto it = sessions_.find(session);
  if (it == sessions_.end()) return out;
  Session& s = it->second;
  auto p = s.pending.find(seq);
  if (p == s.pending.end()) return out;
  p->second.record = record;

  // Release the contiguous decided prefix, preserving submission order even
  // when staggered instances retire out of order.
  while (true) {
    auto head = s.pending.find(s.next_release);
    if (head == s.pending.end() || !head->second.record.has_value()) break;
    out.push_back(Release{session, s.next_release, *head->second.record});
    s.completed.emplace_back(s.next_release, *head->second.record);
    while (s.completed.size() > kCompletedCache) s.completed.pop_front();
    s.pending.erase(head);
    s.next_release += 1;
  }
  return out;
}

std::size_t SessionManager::inflight(std::uint64_t session) const {
  auto it = sessions_.find(session);
  return it == sessions_.end() ? 0 : it->second.pending.size();
}

}  // namespace srds::svc
