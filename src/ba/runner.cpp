#include "ba/runner.hpp"

#include <chrono>
#include <memory>

#include "ba/baselines.hpp"
#include "ba/pi_ba.hpp"
#include "srds/owf_srds.hpp"
#include "srds/snark_srds.hpp"

namespace srds {

namespace {

/// Time `fn()` and report it to `sink` (if any) as an off-network span.
template <typename Fn>
void timed_span(obs::TraceSink* sink, const char* name, Fn&& fn) {
  if (!sink) {
    fn();
    return;
  }
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  sink->on_span(name, static_cast<std::uint64_t>(
                          std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0)
                              .count()));
}

}  // namespace

const char* protocol_name(BoostProtocol p) {
  switch (p) {
    case BoostProtocol::kPiBaOwf:
      return "pi_ba/owf-srds";
    case BoostProtocol::kPiBaSnark:
      return "pi_ba/snark-srds";
    case BoostProtocol::kNaive:
      return "naive-all-to-all";
    case BoostProtocol::kMultisig:
      return "bgt13-multisig";
    case BoostProtocol::kSampling:
      return "ks11-sampling";
    case BoostProtocol::kStar:
      return "acd19-star";
  }
  return "?";
}

BaRunResult run_ba(const BaRunConfig& config) {
  Rng rng(config.seed ^ 0x62612d72756e6e65ULL);

  TreeParams tp = TreeParams::scaled(config.n);
  if (config.committee_factor != 1.0) {
    auto scale = [&](std::size_t v) {
      return std::max<std::size_t>(
          3, static_cast<std::size_t>(static_cast<double>(v) * config.committee_factor));
    };
    tp.committee_size = scale(tp.committee_size) | 1;
    tp.leaf_committee = scale(tp.leaf_committee);
    tp.root_committee = scale(tp.root_committee) | 1;
  }
  std::shared_ptr<const CommTree> tree;
  timed_span(config.trace, "tree-build",
             [&] { tree = std::make_shared<const CommTree>(tp, rng.next()); });
  auto registry = std::make_shared<const SimSigRegistry>(config.n, rng.next());

  AeConfig ae;
  ae.tree = tree;
  ae.registry = registry;
  ae.seed = rng.next();

  const ChaosHardening hardening =
      chaos_hardening(config.faults, config.campaign, config.certificate_redundancy);
  ae.grace_rounds = hardening.grace_rounds;

  // SRDS setup where needed. In the model every party generates its own
  // keys during the setup phase; the harness performs those calls centrally
  // (trusted-PKI dealer for OWF, bulletin-board collection for SNARK).
  SrdsSchemePtr scheme;
  if (config.protocol == BoostProtocol::kPiBaOwf ||
      config.protocol == BoostProtocol::kPiBaSnark) {
    timed_span(config.trace, "srds-keygen", [&] {
      scheme = make_instance_scheme(config.protocol, config.backend, config.expected_signers,
                                    tree->virtual_count(), rng.next());
    });
  }

  std::shared_ptr<const MultisigRegistry> msig;
  if (config.protocol == BoostProtocol::kMultisig) {
    msig = std::make_shared<const MultisigRegistry>(config.n, rng.next());
  }

  // Static fail-silent corruption, chosen independently of the tree.
  std::vector<bool> corrupt(config.n, false);
  std::size_t t = static_cast<std::size_t>(config.beta * static_cast<double>(config.n));
  for (auto idx : rng.subset(config.n, t)) corrupt[idx] = true;

  std::vector<std::unique_ptr<Party>> parties(config.n);
  std::size_t total_rounds = 0;
  std::size_t boost_start = 0;
  std::size_t ct_start = 0, dissem_start = 0;
  obs::Budget boost_budget;  // the protocol's declared Table 1 claim
  for (PartyId i = 0; i < config.n; ++i) {
    if (corrupt[i]) continue;
    std::unique_ptr<AeBoostParty> party;
    switch (config.protocol) {
      case BoostProtocol::kPiBaOwf:
      case BoostProtocol::kPiBaSnark: {
        PiBaConfig pc;
        pc.ae = ae;
        pc.scheme = scheme;
        pc.certificate_redundancy = config.certificate_redundancy;
        pc.dissem_retries = hardening.dissem_retries;
        party = std::make_unique<PiBaParty>(std::move(pc), i, config.input);
        break;
      }
      case BoostProtocol::kNaive:
        party = std::make_unique<NaiveBoostParty>(ae, i, config.input);
        break;
      case BoostProtocol::kMultisig:
        party = std::make_unique<MultisigBoostParty>(ae, msig, i, config.input);
        break;
      case BoostProtocol::kSampling:
        party = std::make_unique<SamplingBoostParty>(ae, i, config.input);
        break;
      case BoostProtocol::kStar:
        party = std::make_unique<StarBoostParty>(ae, i, config.input);
        break;
    }
    total_rounds = party->total_rounds();
    boost_start = party->boost_start();
    ct_start = party->ct_start();
    dissem_start = party->dissem_start();
    boost_budget = party->boost_budget();
    parties[i] = std::move(party);
  }

  CampaignConfig cc;
  cc.kind = config.campaign;
  cc.tree = tree;
  cc.registry = registry;
  cc.dissem_start = dissem_start;
  cc.boost_start = boost_start;
  cc.total_rounds = total_rounds;
  ChaosSetup chaos = make_chaos_setup(std::move(cc), corrupt, config.corruption_rate,
                                      config.faults, config.seed, rng);
  if (config.campaign == CampaignKind::kNone && config.active_adversary && scheme) {
    const std::size_t h = tree->height();
    PiBaAttackConfig attack;
    attack.tree = tree;
    attack.scheme = scheme;
    attack.corrupt = corrupt;
    attack.boost_start = boost_start;
    attack.dissem3_start = boost_start - (h + 1);
    attack.prf_round = boost_start + 2 * h + 2 + hardening.dissem_retries;
    attack.seed = rng.next();
    chaos.adversary = make_pi_ba_attacker(std::move(attack));
  }

  Simulator sim(std::move(parties), corrupt, std::move(chaos.adversary));
  const PhaseMark phases[] = {{0, "f_ba"},
                              {ct_start, "f_ct"},
                              {dissem_start, "f_ae-dissem"},
                              {boost_start, "boost"},
                              {total_rounds - ae.grace_rounds, "grace"}};
  wire_simulator(sim, chaos, config.workers, config.ledger, config.trace,
                 std::span(phases, ae.grace_rounds > 0 ? 5 : 4));
  BaRunResult result;
  result.corruption_budget = chaos.corruption_budget;
  result.rounds = sim.run(total_rounds + 2);
  result.stats = sim.stats();
  // The boost phase runs to the end of the schedule, its grace window
  // included.
  const obs::Ledger& ledger = sim.ledger();
  result.boost_stats =
      NetworkStats::of(ledger, ledger.phase_index("boost"), ledger.phase_count());
  result.boost_rounds = total_rounds - boost_start;
  result.adaptively_corrupted = sim.stats().faults.adaptive_corruptions;
  result.plan_issues = sim.plan_issues();

  // Account over the FINAL corruption mask: a party the campaign flipped
  // mid-run is the adversary's, not a data point about honest behavior.
  std::vector<bool> final_corrupt(config.n, false);
  for (PartyId i = 0; i < config.n; ++i) final_corrupt[i] = sim.is_corrupt(i);

  for (PartyId i = 0; i < config.n; ++i) {
    if (final_corrupt[i]) continue;
    ++result.honest;
    if (sim.is_crashed(i)) ++result.crashed;
    const auto* party = dynamic_cast<const AeBoostParty*>(sim.party(i));
    if (!party) continue;
    // Frame-parse failures are tallied by the parties themselves (the
    // network cannot read framing); surface the honest total next to the
    // network-level fault counters.
    result.stats.faults.malformed_frames += party->malformed_frames();
    if (!party->output().has_value()) continue;
    ++result.decided;
    bool y = *party->output();
    if (result.value.has_value() && *result.value != y) result.agreement = false;
    result.value = y;
    if (y == config.input) ++result.correct;
  }

  // Audit the declared communication budgets over the honest parties (the
  // paper's bounds quantify over honest parties; fail-silent corruptions
  // receive protocol traffic but owe nothing, and adaptively seized slots
  // carry adversary traffic that no honest budget governs).
  if (config.ledger) {
    obs::BudgetAuditor auditor;
    auditor.require(protocol_name(config.protocol), "boost", boost_budget);
    auditor.require("f_ba", "f_ba", CommitteeBaProto::phase_budget());
    auditor.require("f_ct", "f_ct", CoinTossProto::phase_budget());
    result.budget_evals = auditor.evaluate(*config.ledger, &final_corrupt);
    if (config.strict_budgets) throw_on_budget_findings(result.budget_evals);
  }
  return result;
}

ChaosHardening chaos_hardening(const std::optional<FaultPlan>& faults, CampaignKind campaign,
                               std::size_t certificate_redundancy) {
  ChaosHardening h;
  if ((!faults.has_value() || !faults->any()) && campaign == CampaignKind::kNone) return h;
  h.grace_rounds = std::max<std::size_t>(faults ? faults->suggested_grace() : 0, 2);
  if (certificate_redundancy > 1) {
    h.dissem_retries = std::min<std::size_t>(certificate_redundancy - 1, 3);
  }
  return h;
}

ChaosSetup make_chaos_setup(CampaignConfig campaign, const std::vector<bool>& corrupt,
                            double corruption_rate, const std::optional<FaultPlan>& faults,
                            std::uint64_t seed, Rng& rng) {
  ChaosSetup chaos;
  chaos.plan = faults;
  if (campaign.kind == CampaignKind::kNone) return chaos;
  chaos.corruption_budget = static_cast<std::size_t>(
      corruption_rate * static_cast<double>(corrupt.size()));
  campaign.corrupt = corrupt;
  campaign.budget = chaos.corruption_budget;
  campaign.seed = rng.next();
  CampaignSetup setup = make_campaign(std::move(campaign));
  chaos.adversary = std::move(setup.adversary);
  if (!setup.partitions.empty()) {
    if (!chaos.plan.has_value()) {
      chaos.plan.emplace();
      chaos.plan->seed = seed ^ 0x63616d706169676eULL;
    }
    chaos.plan->partitions.insert(chaos.plan->partitions.end(), setup.partitions.begin(),
                                  setup.partitions.end());
  }
  return chaos;
}

void wire_simulator(Simulator& sim, const ChaosSetup& chaos, std::size_t workers,
                    obs::Ledger* ledger, obs::TraceSink* trace,
                    std::span<const PhaseMark> phases) {
  sim.set_workers(workers);
  sim.set_ledger(ledger);
  sim.set_corruption_budget(chaos.corruption_budget);
  if (chaos.plan.has_value() && chaos.plan->any()) sim.set_fault_plan(*chaos.plan);
  sim.set_trace_sink(trace);
  for (obs::TraceSink* sink :
       {static_cast<obs::TraceSink*>(trace), static_cast<obs::TraceSink*>(&sim.ledger())}) {
    if (!sink) continue;
    for (const PhaseMark& p : phases) sink->on_phase(p.round, p.name);
  }
}

void throw_on_budget_findings(const std::vector<obs::BudgetEval>& evals) {
  std::vector<obs::BudgetEval> findings;
  for (const obs::BudgetEval& e : evals) {
    if (!e.skipped && !e.ok) findings.push_back(e);
  }
  if (findings.empty()) return;
  const obs::BudgetEval& f = findings.front();
  const std::string phase = f.phase.empty() ? "" : " phase '" + f.phase + "'";
  throw BudgetViolation("budget violation: " + f.protocol + phase + " at n=" +
                            std::to_string(f.n) + ": party " +
                            std::to_string(f.worst_party) + " used " +
                            std::to_string(f.max_bits) + " bits > bound " +
                            std::to_string(static_cast<std::uint64_t>(f.bound_bits)) + " (" +
                            std::to_string(f.violators) + "/" + std::to_string(f.audited) +
                            " parties over)",
                        std::move(findings));
}

SrdsSchemePtr make_instance_scheme(BoostProtocol protocol, BaseSigBackend backend,
                                   std::size_t expected_signers,
                                   std::size_t virtual_count, std::uint64_t seed) {
  SrdsSchemePtr scheme;
  if (protocol == BoostProtocol::kPiBaOwf) {
    OwfSrdsParams p;
    p.n_signers = virtual_count;
    p.expected_signers = std::min(expected_signers, p.n_signers);
    p.backend = backend;
    scheme = std::make_shared<OwfSrds>(p, seed);
  } else if (protocol == BoostProtocol::kPiBaSnark) {
    SnarkSrdsParams p;
    p.n_signers = virtual_count;
    p.backend = backend;
    scheme = std::make_shared<SnarkSrds>(p, seed);
  } else {
    throw std::invalid_argument("make_instance_scheme: protocol is not a pi_ba variant");
  }
  for (std::size_t i = 0; i < scheme->signer_count(); ++i) scheme->keygen(i);
  scheme->finalize_keys();
  return scheme;
}

}  // namespace srds
