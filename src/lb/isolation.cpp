#include "lb/isolation.hpp"

#include <algorithm>

#include "common/mathutil.hpp"
#include "common/rng.hpp"
#include "crypto/prf.hpp"
#include "crypto/simsig.hpp"
#include "common/message.hpp"
#include "srds/snark_srds.hpp"

namespace srds {

const char* setup_name(BoostSetup s) {
  switch (s) {
    case BoostSetup::kCrsOnly:
      return "crs-only";
    case BoostSetup::kPkiPlainSigs:
      return "pki-plain-signatures";
    case BoostSetup::kPkiSrds:
      return "pki-srds-certificate";
    case BoostSetup::kPkiSrdsInvertedKeys:
      return "pki-srds-inverted-owf";
  }
  return "?";
}

IsolationOutcome run_isolation_attack(BoostSetup setup, const IsolationConfig& config) {
  Rng rng(config.seed ^ 0x69736f6c6174696fULL);
  const std::size_t n = config.n;
  const std::size_t t = std::min(config.t, n - 1);
  std::size_t lg = at_least(ceil_log2(n), 2);
  const std::size_t fanout =
      std::min(n - 1, config.fanout ? config.fanout : lg * lg / 2);

  // Party n-1 is the isolated honest target; the adversary controls
  // parties [0, t); the remaining parties are honest and hold y = 1.
  const PartyId target = n - 1;
  const bool y = true;    // the almost-everywhere agreed bit
  const bool y_bad = false;

  Bytes seed = rng.bytes(32);  // the honest execution's PRF seed s

  // Honest support: honest non-target parties send to F_s(i); count how
  // many of those subsets contain the target.
  IsolationOutcome out;
  for (PartyId i = t; i < n; ++i) {
    if (i == target) continue;
    if (prf_subset_contains(seed, i, n, fanout, target)) ++out.honest_support;
  }

  switch (setup) {
    case BoostSetup::kCrsOnly:
    case BoostSetup::kPkiPlainSigs: {
      // With or without per-sender signatures, each of the t corrupted
      // parties produces a perfectly well-formed "support y'" message of
      // its own (under a PKI it signs y' itself — no forgery needed). The
      // target's only defence is counting distinct supporters; honest
      // support is capped at its polylog in-degree while the adversary
      // spends its Θ(n) identities on this one victim.
      out.forged_support = t;
      out.target_fooled = out.forged_support > out.honest_support;
      out.target_correct = !out.target_fooled && out.honest_support > 0;
      break;
    }
    case BoostSetup::kPkiSrds:
    case BoostSetup::kPkiSrdsInvertedKeys: {
      // The honest messages carry an SRDS certificate on (y, s); support
      // counting is irrelevant — the target accepts any verifying
      // certificate. Signers = parties; threshold = n/2.
      SnarkSrdsParams params;
      params.n_signers = n;
      params.backend = BaseSigBackend::kCompact;
      SnarkSrds scheme(params, rng.next());
      for (std::size_t i = 0; i < n; ++i) scheme.keygen(i);
      scheme.finalize_keys();

      Bytes good_msg{1};
      Bytes bad_msg{0};
      std::vector<Bytes> honest_sigs;
      for (std::size_t i = t; i < n; ++i) {
        if (i == target) continue;
        honest_sigs.push_back(scheme.sign(i, good_msg));
      }
      Bytes good_cert = scheme.aggregate(good_msg, honest_sigs);
      bool good_valid = !good_cert.empty() && scheme.verify(good_msg, good_cert);

      std::vector<Bytes> adv_sigs;
      if (setup == BoostSetup::kPkiSrds) {
        // The adversary holds only its own t signing keys.
        for (std::size_t i = 0; i < t; ++i) adv_sigs.push_back(scheme.sign(i, bad_msg));
      } else {
        // Theorem 1.4's world: one-way functions are invertible, so the
        // adversary recovers every party's signing key from its public key
        // and signs y' on everyone's behalf.
        for (std::size_t i = 0; i < n; ++i) adv_sigs.push_back(scheme.sign(i, bad_msg));
      }
      Bytes forged_cert = scheme.aggregate(bad_msg, adv_sigs);
      bool forged_valid = !forged_cert.empty() && scheme.verify(bad_msg, forged_cert);

      out.forged_support = forged_valid ? 1 : 0;
      out.target_fooled = forged_valid;  // two "valid worlds" are fatal
      out.target_correct = good_valid && out.honest_support > 0 && !forged_valid;
      break;
    }
  }
  (void)y;
  (void)y_bad;
  return out;
}

}  // namespace srds
