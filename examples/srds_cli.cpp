// srds_cli — command-line driver for the protocols in this repository.
//
//   srds_cli ba       --protocol snark|owf|naive|multisig|sampling|star
//                     [--n 256] [--beta 0.2] [--seed 1] [--input 1]
//                     [--attack]
//   srds_cli bcast    [--n 256] [--ell 4] [--beta 0.1] [--seed 1]
//   srds_cli isolate  --setup crs|pki|srds|inverted [--n 512] [--t 128]
//   srds_cli elect    [--n 256] [--beta 0.2] [--seed 1]
//
// Exit code 0 on success (agreement + validity where applicable).
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "ba/runner.hpp"
#include "common/rng.hpp"
#include "lb/isolation.hpp"
#include "obs/ledger.hpp"
#include "svc/service.hpp"
#include "svc/transport.hpp"
#include "tree/election.hpp"

namespace {

using namespace srds;

std::map<std::string, std::string> parse_flags(int argc, char** argv, int from) {
  std::map<std::string, std::string> flags;
  for (int i = from; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    if (i + 1 < argc && argv[i + 1][0] != '-') {
      flags[key] = argv[++i];
    } else {
      flags[key] = "1";
    }
  }
  return flags;
}

std::size_t flag_u(const std::map<std::string, std::string>& flags, const char* key,
                   std::size_t def) {
  auto it = flags.find(key);
  return it == flags.end() ? def : static_cast<std::size_t>(std::stoull(it->second));
}

double flag_d(const std::map<std::string, std::string>& flags, const char* key,
              double def) {
  auto it = flags.find(key);
  return it == flags.end() ? def : std::stod(it->second);
}

int usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  srds_cli ba      --protocol snark|owf|naive|multisig|sampling|star"
               " [--n N] [--beta B] [--seed S] [--input 0|1] [--attack]\n"
               "  srds_cli bcast   [--n N] [--ell L] [--beta B] [--seed S]\n"
               "  srds_cli isolate --setup crs|pki|srds|inverted [--n N] [--t T]\n"
               "  srds_cli elect   [--n N] [--beta B] [--seed S]\n");
  return 2;
}

int cmd_ba(const std::map<std::string, std::string>& flags) {
  BaRunConfig cfg;
  cfg.n = flag_u(flags, "n", 256);
  cfg.beta = flag_d(flags, "beta", 0.2);
  cfg.seed = flag_u(flags, "seed", 1);
  cfg.input = flag_u(flags, "input", 1) != 0;
  cfg.active_adversary = flags.count("attack") > 0;
  std::string proto = flags.count("protocol") ? flags.at("protocol") : "snark";
  if (proto == "snark") cfg.protocol = BoostProtocol::kPiBaSnark;
  else if (proto == "owf") cfg.protocol = BoostProtocol::kPiBaOwf;
  else if (proto == "naive") cfg.protocol = BoostProtocol::kNaive;
  else if (proto == "multisig") cfg.protocol = BoostProtocol::kMultisig;
  else if (proto == "sampling") cfg.protocol = BoostProtocol::kSampling;
  else if (proto == "star") cfg.protocol = BoostProtocol::kStar;
  else return usage();

  auto r = run_ba(cfg);
  std::printf("protocol=%s n=%zu beta=%.2f rounds=%zu agreement=%s value=%s "
              "decided=%zu/%zu max_bytes=%llu boost_bytes=%llu locality=%zu\n",
              protocol_name(cfg.protocol), cfg.n, cfg.beta, r.rounds,
              r.agreement ? "yes" : "NO",
              r.value.has_value() ? (*r.value ? "1" : "0") : "-", r.decided, r.honest,
              static_cast<unsigned long long>(r.stats.max_bytes_total()),
              static_cast<unsigned long long>(r.boost_stats.max_bytes_total()),
              r.stats.max_locality());
  return (r.agreement && r.value == std::optional<bool>(cfg.input)) ? 0 : 1;
}

int cmd_bcast(const std::map<std::string, std::string>& flags) {
  // The BA daemon with one request in flight: ℓ back-to-back broadcasts over
  // one tree and PKI (Cor. 1.2(1)), submitted over the loopback transport.
  const std::size_t ell = flag_u(flags, "ell", 4);
  obs::Ledger ledger;
  svc::ServiceConfig cfg;
  cfg.n = flag_u(flags, "n", 256);
  cfg.beta = flag_d(flags, "beta", 0.1);
  cfg.seed = flag_u(flags, "seed", 1);
  cfg.session_window = 1;
  cfg.max_inflight = 1;
  cfg.ledger = &ledger;
  svc::BaServiceDaemon daemon(cfg);
  svc::LoopbackTransport transport;
  daemon.add_listener(transport.listener());
  svc::ServiceClient client(transport.connect());
  client.open();
  std::size_t submitted = 0;
  while (client.decisions_received() < ell) {
    if (submitted < ell && client.can_submit()) client.submit(submitted++ % 2 == 0);
    daemon.poll();
    daemon.step();
    client.poll();
  }
  client.close();
  daemon.shutdown();
  const svc::ServiceStats& s = daemon.stats();
  const bool agreement = s.agreed == ell;
  std::printf("n=%zu ell=%zu delivered=%zu/%zu agreement=%s max_bytes=%llu\n", cfg.n, ell,
              s.delivered, s.decisions, agreement ? "yes" : "NO",
              static_cast<unsigned long long>(
                  ledger.stat(obs::LedgerField::kBytesTotal).max));
  return agreement ? 0 : 1;
}

int cmd_isolate(const std::map<std::string, std::string>& flags) {
  IsolationConfig cfg;
  cfg.n = flag_u(flags, "n", 512);
  cfg.t = flag_u(flags, "t", cfg.n / 4);
  cfg.seed = flag_u(flags, "seed", 1);
  std::string setup = flags.count("setup") ? flags.at("setup") : "srds";
  BoostSetup bs;
  if (setup == "crs") bs = BoostSetup::kCrsOnly;
  else if (setup == "pki") bs = BoostSetup::kPkiPlainSigs;
  else if (setup == "srds") bs = BoostSetup::kPkiSrds;
  else if (setup == "inverted") bs = BoostSetup::kPkiSrdsInvertedKeys;
  else return usage();
  auto out = run_isolation_attack(bs, cfg);
  std::printf("setup=%s n=%zu t=%zu honest_support=%zu forged_support=%zu fooled=%s\n",
              setup_name(bs), cfg.n, cfg.t, out.honest_support, out.forged_support,
              out.target_fooled ? "YES" : "no");
  return out.target_fooled ? 1 : 0;
}

int cmd_elect(const std::map<std::string, std::string>& flags) {
  std::size_t n = flag_u(flags, "n", 256);
  double beta = flag_d(flags, "beta", 0.2);
  std::uint64_t seed = flag_u(flags, "seed", 1);
  Rng rng(seed);
  std::vector<bool> corrupt(n, false);
  for (auto idx : rng.subset(n, static_cast<std::size_t>(beta * n))) corrupt[idx] = true;
  ElectionParams params;
  auto r = run_committee_election(n, corrupt, params, seed);
  std::printf("n=%zu beta=%.2f levels=%zu rounds=%zu committee=%zu corrupt=%.1f%% "
              "max_bytes=%llu\n",
              n, beta, r.levels, r.rounds, r.supreme_committee.size(),
              100.0 * r.committee_corrupt_fraction,
              static_cast<unsigned long long>(r.stats.max_bytes_total()));
  return r.committee_corrupt_fraction < 0.5 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  std::string cmd = argv[1];
  auto flags = parse_flags(argc, argv, 2);
  if (cmd == "ba") return cmd_ba(flags);
  if (cmd == "bcast") return cmd_bcast(flags);
  if (cmd == "isolate") return cmd_isolate(flags);
  if (cmd == "elect") return cmd_elect(flags);
  return usage();
}
