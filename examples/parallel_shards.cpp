// Parallel shard agreement — session multiplexing over one network.
//
// A deployment rarely needs to agree on a single vector: a federated model
// is split into shards, a robot swarm negotiates rendezvous and formation
// scale at once, a telemetry fabric reconciles several sensor channels.
// Each party hosts a serve::InstanceMux that runs one independent ΠAA
// instance per shard over the same authenticated channels, with per-shard
// dimensions and epsilons. One Byzantine party takes part only in shard 0,
// where it turns hostile mid-run; the other shards see it silent. Exits 1
// when a shard fails.
#include <cstdio>
#include <map>
#include <memory>

#include "adversary/behaviors.hpp"
#include "common/rng.hpp"
#include "geometry/convex.hpp"
#include "protocols/aa.hpp"
#include "serve/instance_mux.hpp"
#include "sim/delay.hpp"
#include "sim/simulation.hpp"

using namespace hydra;

namespace {

struct Shard {
  std::uint32_t session;
  const char* name;
  std::size_t dim;
  double eps;
};

constexpr std::size_t kParties = 6;

}  // namespace

int main() {
  const std::vector<Shard> shards{
      {0, "embedding shard", 3, 1e-3},
      {1, "classifier head", 2, 1e-3},
      {2, "temperature scalar", 1, 1e-4},
      {3, "bias shard", 2, 1e-3},
  };

  std::printf("Parallel shard agreement: %zu concurrent sessions, %zu parties, "
              "1 Byzantine turncoat\n\n",
              shards.size(), kParties);

  sim::Simulation sim({.n = kParties, .delta = 1000, .seed = 4242},
                      std::make_unique<sim::UniformDelay>(1, 1000));

  // Per-shard inputs for every party.
  Rng rng(99);
  std::map<std::uint32_t, std::vector<geo::Vec>> inputs;
  for (const auto& shard : shards) {
    for (std::size_t i = 0; i < kParties; ++i) {
      geo::Vec v(shard.dim, 0.0);
      for (std::size_t d = 0; d < shard.dim; ++d) v[d] = rng.next_double(-2.0, 2.0);
      inputs[shard.session].push_back(std::move(v));
    }
  }

  const auto shard_params = [](const Shard& shard) {
    protocols::Params p;
    p.n = kParties;
    p.ts = 1;
    p.ta = 1;
    p.dim = shard.dim;
    p.eps = shard.eps;
    p.delta = 1000;
    return p;
  };

  // A shard's instance retires once all five honest muxes decided it.
  serve::InstanceDirectory directory(static_cast<std::uint32_t>(shards.size()),
                                     kParties - 1);
  std::vector<serve::InstanceMux*> honest;
  for (PartyId id = 0; id < kParties; ++id) {
    if (id == 3) {
      // A plain party, not a mux: its traffic carries instance 0's tags, so
      // it turns hostile mid-run inside shard 0 and is silent elsewhere.
      protocols::Params p;
      p.n = kParties;
      p.ts = 1;
      p.ta = 1;
      p.dim = 2;
      p.delta = 1000;
      sim.add_party(std::make_unique<adversary::TurncoatParty>(
          p, geo::Vec{0.0, 0.0}, 9 * p.delta));
      continue;
    }
    serve::InstanceMux::Config cfg;
    cfg.instances = static_cast<std::uint32_t>(shards.size());
    cfg.linger = 8 * 1000;
    cfg.gc_retry = 1000;
    cfg.directory = &directory;
    cfg.make_party = [&, id](std::uint32_t k) {
      return std::make_unique<protocols::AaParty>(shard_params(shards[k]),
                                                  inputs[shards[k].session][id]);
    };
    cfg.decided = [](const sim::IParty& party, std::uint32_t) {
      return static_cast<const protocols::AaParty&>(party).has_output();
    };
    cfg.snapshot = [](std::uint32_t, const sim::IParty& party,
                      serve::InstanceRecord& rec) {
      rec.has_output = true;
      rec.output = static_cast<const protocols::AaParty&>(party).output();
    };
    auto mux = std::make_unique<serve::InstanceMux>(std::move(cfg));
    honest.push_back(mux.get());
    sim.add_party(std::move(mux));
  }

  const auto stats = sim.run();
  std::printf("network: %llu messages, %lld ticks\n\n",
              static_cast<unsigned long long>(stats.messages),
              static_cast<long long>(stats.end_time));

  bool all_ok = true;
  for (const auto& shard : shards) {
    std::vector<geo::Vec> outputs;
    std::vector<geo::Vec> honest_inputs;
    for (std::size_t i = 0; i < kParties; ++i) {
      if (i != 3) honest_inputs.push_back(inputs[shard.session][i]);
    }
    bool valid = true;
    for (auto* mux : honest) {
      const auto& rec = mux->record(shard.session);
      if (!rec.has_output) {
        valid = false;
        continue;
      }
      outputs.push_back(rec.output);
      valid = valid && geo::in_convex_hull(honest_inputs, rec.output, 1e-6);
    }
    const double diam = geo::diameter(outputs);
    const bool ok = valid && outputs.size() == honest.size() && diam <= shard.eps;
    all_ok = all_ok && ok;
    std::printf("session %u (%-18s D=%zu): agreed on %s  spread %.2g  %s\n",
                shard.session, shard.name, shard.dim,
                geo::to_string(outputs.empty() ? geo::Vec(shard.dim, 0.0)
                                               : outputs[0])
                    .c_str(),
                diam, ok ? "ok" : "FAILED");
  }
  std::printf("\n%s\n", all_ok ? "all shards agreed under attack"
                               : "SOME SHARD FAILED");
  return all_ok ? 0 : 1;
}
