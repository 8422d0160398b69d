// One-call harness for executing a full BA run on the simulator:
// builds the tree, PKI/SRDS setup, parties and adversary, runs to
// completion, and reports outputs plus the network-measured costs.
// Used by the integration tests, the benchmark binaries and the examples.
#pragma once

#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "crypto/simsig.hpp"
#include "net/campaign.hpp"
#include "net/faults.hpp"
#include "net/stats.hpp"
#include "obs/budget.hpp"
#include "obs/ledger.hpp"
#include "obs/trace.hpp"
#include "srds/srds.hpp"
#include "tree/comm_tree.hpp"

namespace srds {

enum class BoostProtocol {
  kPiBaOwf,     // this work, OWF-SRDS (trusted PKI)
  kPiBaSnark,   // this work, SNARK-SRDS (bare PKI + CRS)
  kNaive,       // all-to-all signed exchange
  kMultisig,    // BGT'13-style, Θ(n)-bit signer bitmaps
  kSampling,    // KS'11/KLST'11-style √n polling
  kStar,        // ACD+'19-style unbalanced star
};

const char* protocol_name(BoostProtocol p);

struct BaRunConfig {
  std::size_t n = 0;
  double beta = 0.0;  // fraction of parties corrupted (fail-silent)
  std::uint64_t seed = 1;
  BoostProtocol protocol = BoostProtocol::kPiBaSnark;
  /// Base-signature backend for the SRDS variants (kCompact recommended for
  /// n >= 256; kWots exercises the faithful hash-based signatures).
  BaseSigBackend backend = BaseSigBackend::kCompact;
  /// OWF-SRDS sortition target (expected signers, the paper's polylog(n)).
  std::size_t expected_signers = 48;
  /// Every honest party's input bit (protocol validity: output must match
  /// when all honest inputs agree).
  bool input = true;
  /// Drive corrupted parties with the active π_ba attacker (ba/attack.hpp)
  /// instead of fail-silence. Only meaningful for the π_ba protocols.
  /// Ignored when `campaign` is set — a campaign brings its own adversary.
  bool active_adversary = false;

  /// Adaptive attack campaign (ba/attack.hpp). When not kNone, the harness
  /// installs the campaign's adversary, merges its partition windows into
  /// the effective fault plan, and hands the simulator an adaptive
  /// corruption budget of floor(corruption_rate * n). The run counts as a
  /// chaos run (grace window, certificate retransmits) even without a
  /// FaultPlan of its own.
  CampaignKind campaign = CampaignKind::kNone;
  /// Fraction of n the campaign may adaptively corrupt mid-run.
  double corruption_rate = 0.0;
  /// Sparse-σ redundancy of the certified dissemination (π_ba step 6).
  std::size_t certificate_redundancy = 3;
  /// Multiplier on the scaled tree committee sizes (ablation knob).
  double committee_factor = 1.0;

  /// Optional network fault plan (chaos run — docs/fault_model.md). When
  /// set, the simulator injects drops/delays/duplicates/crashes/partitions
  /// and the protocols harden themselves: π_ba retransmits certificate
  /// shares (bounded by certificate_redundancy) and every protocol gets a
  /// grace window to ingest late traffic and degrade gracefully.
  std::optional<FaultPlan> faults;

  /// Optional observability sink (non-owning; must outlive run_ba). The
  /// harness installs it on the simulator, registers the protocol's phase
  /// schedule (f_ba / f_ct / f_ae-dissem / boost / grace) as phase marks,
  /// and reports setup work (tree build, SRDS keygen) as wall-clock spans.
  obs::TraceSink* trace = nullptr;

  /// Optional per-party ledger (non-owning; must outlive run_ba), installed
  /// alongside `trace` — both observe the same run. When set, the harness
  /// additionally registers the protocol's declared communication budgets
  /// (the boost phase's Table 1 claim plus the shared f_ba/f_ct front-end
  /// bounds) and evaluates them over the honest parties after the run; the
  /// evaluations land in BaRunResult::budget_evals.
  obs::Ledger* ledger = nullptr;

  /// Hard-fail (throw srds::BudgetViolation) when any registered budget is
  /// violated. Requires `ledger`. This is the bench binaries'
  /// --strict-budgets flag.
  bool strict_budgets = false;

  /// Worker threads for the honest parties' round steps: 0 = automatic,
  /// k = exactly k, as Simulator::set_workers documents (the automatic
  /// count and its cap are defined there). Outputs are identical for every
  /// value.
  std::size_t workers = 0;
};

/// Thrown by run_ba under strict_budgets when an audited budget fails.
struct BudgetViolation : std::runtime_error {
  explicit BudgetViolation(const std::string& what, std::vector<obs::BudgetEval> f)
      : std::runtime_error(what), findings(std::move(f)) {}
  std::vector<obs::BudgetEval> findings;
};

struct BaRunResult {
  NetworkStats stats{0};
  /// Costs of the boost phase alone (Fig. 3 steps 4-8 / each baseline's
  /// boost) — the quantity Table 1 compares; the shared almost-everywhere
  /// front end (f_ba + f_ct + f_ae-comm) is excluded here.
  NetworkStats boost_stats{0};
  std::size_t boost_rounds = 0;
  std::size_t rounds = 0;
  /// Parties that finished the run honest — statically corrupted slots and
  /// adaptive mid-run corruptions are both excluded (the paper's guarantees
  /// quantify over parties honest at the end of the execution).
  std::size_t honest = 0;
  std::size_t decided = 0;   // honest parties with an output
  std::size_t correct = 0;   // honest parties whose output == input
  std::size_t crashed = 0;   // honest parties crash-stopped by the fault plan
  bool agreement = true;     // no two honest parties decided differently
  std::optional<bool> value; // the decided value (if any party decided)

  /// Adaptive-campaign accounting (zero without a campaign): the budget the
  /// simulator was given and the corruptions actually granted from it.
  std::size_t corruption_budget = 0;
  std::size_t adaptively_corrupted = 0;

  /// Validation findings for the effective fault plan (config.faults plus
  /// any campaign partitions) — warnings only; errors throw out of run_ba.
  std::vector<FaultPlanIssue> plan_issues;

  /// Budget evaluations (one per registered claim, in registration order);
  /// empty unless BaRunConfig::ledger was set. A *finding* is an entry with
  /// skipped == false && ok == false.
  std::vector<obs::BudgetEval> budget_evals;

  double decided_fraction() const {
    return honest ? static_cast<double>(decided) / static_cast<double>(honest) : 0.0;
  }

  /// Decided fraction among honest parties that did not crash-stop — the
  /// fair resilience metric (a crashed party cannot decide by definition).
  double surviving_decided_fraction() const {
    std::size_t live = honest - crashed;
    return live ? static_cast<double>(decided) / static_cast<double>(live) : 0.0;
  }
};

BaRunResult run_ba(const BaRunConfig& config);

/// Corollary 1.2(1): run `ell` one-bit broadcasts (rotating honest senders,
/// alternating bits) over one shared tree/PKI. Costs accumulate across
/// executions per party, so `stats` reports the ℓ-execution totals — the
/// corollary's claim is that the max per party grows as ℓ · polylog(n).
struct BroadcastRunConfig {
  std::size_t n = 0;
  std::size_t ell = 1;
  double beta = 0.0;
  std::uint64_t seed = 1;
  BoostProtocol protocol = BoostProtocol::kPiBaSnark;  // must be a π_ba variant
  BaseSigBackend backend = BaseSigBackend::kCompact;
  std::size_t expected_signers = 48;

  /// Optional ledger (non-owning). Switched to accumulate mode and fed from
  /// all ℓ executions, so its per-party totals are the corollary's
  /// ℓ-execution quantity.
  obs::Ledger* ledger = nullptr;
};

struct BroadcastRunResult {
  NetworkStats stats{0};      // summed over the ℓ executions
  std::size_t delivered = 0;  // honest deliveries matching the sender's bit
  std::size_t possible = 0;   // honest parties x ℓ
  bool agreement = true;
};

BroadcastRunResult run_broadcast_service(const BroadcastRunConfig& config);

/// Long-lived environment shared by every execution of a BA service
/// (Cor. 1.2): one comm tree + signature registry amortized over the ℓ
/// agreement requests, plus the static fail-silent corruption mask drawn the
/// same way run_ba draws it. The svc daemon builds this once at startup.
struct ServiceEnv {
  std::shared_ptr<const CommTree> tree;
  SimSigRegistryPtr registry;
  std::vector<bool> corrupt;
  std::vector<PartyId> honest;  // ids with corrupt[i] == false
};

ServiceEnv make_service_env(std::size_t n, double beta, std::uint64_t seed);

/// Build a fresh, fully keyed SRDS scheme for ONE broadcast execution over an
/// existing comm tree (`virtual_count` = tree->virtual_count()). This is the
/// Cor. 1.2 service pattern — one-time signatures need a fresh key set per
/// execution; the ℓ sets would be pre-published on the bulletin board in one
/// setup, and generation is local either way so it costs no communication.
/// `protocol` must be a π_ba variant (kPiBaOwf or kPiBaSnark; anything else
/// throws std::invalid_argument). Shared by run_broadcast_service and the
/// long-lived svc daemon, which mints one scheme per admitted request.
SrdsSchemePtr make_instance_scheme(BoostProtocol protocol, BaseSigBackend backend,
                                   std::size_t expected_signers,
                                   std::size_t virtual_count, std::uint64_t seed);

}  // namespace srds
