#include "protocols/codec.hpp"

#include <algorithm>
#include <cmath>

#include "obs/prof.hpp"

namespace hydra::protocols {
namespace {

bool finite_vec(const geo::Vec& v) {
  for (std::size_t d = 0; d < v.dim(); ++d) {
    if (!std::isfinite(v[d])) return false;
  }
  return true;
}

}  // namespace

Bytes encode_value(const geo::Vec& v) {
  Writer w;
  w.f64_vec(v.coords());
  return w.take();
}

std::optional<geo::Vec> decode_value(const Bytes& data, std::size_t dim,
                                     const hydra::domain::ValueDomain* dom) {
  HYDRA_PROF_SCOPE("codec.decode_value");
  Reader r(data);
  auto coords = r.f64_vec(static_cast<std::uint32_t>(dim));
  if (!r.ok() || !r.at_end() || coords.size() != dim) return std::nullopt;
  geo::Vec v(std::move(coords));
  if (!finite_vec(v)) return std::nullopt;
  if (dom != nullptr && !dom->validate(v)) return std::nullopt;
  return v;
}

Bytes encode_pairs(const PairList& pairs) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [party, value] : pairs) {
    w.u32(party);
    w.f64_vec(value.coords());
  }
  return w.take();
}

std::optional<PairList> decode_pairs(const Bytes& data, std::size_t dim,
                                     std::size_t n,
                                     const hydra::domain::ValueDomain* dom) {
  HYDRA_PROF_SCOPE("codec.decode_pairs");
  Reader r(data);
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > n) return std::nullopt;
  PairList pairs;
  pairs.reserve(count);
  std::set<PartyId> seen;
  for (std::uint32_t i = 0; i < count; ++i) {
    const PartyId party = r.u32();
    auto coords = r.f64_vec(static_cast<std::uint32_t>(dim));
    if (!r.ok() || party >= n || coords.size() != dim) return std::nullopt;
    geo::Vec v(std::move(coords));
    if (!finite_vec(v)) return std::nullopt;
    if (dom != nullptr && !dom->validate(v)) return std::nullopt;
    if (!seen.insert(party).second) return std::nullopt;
    pairs.emplace_back(party, std::move(v));
  }
  if (!r.at_end()) return std::nullopt;
  std::sort(pairs.begin(), pairs.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return pairs;
}

Bytes encode_party_set(const std::set<PartyId>& parties) {
  Writer w;
  w.u32(static_cast<std::uint32_t>(parties.size()));
  for (PartyId p : parties) w.u32(p);
  return w.take();
}

std::optional<std::set<PartyId>> decode_party_set(const Bytes& data, std::size_t n) {
  HYDRA_PROF_SCOPE("codec.decode_party_set");
  Reader r(data);
  const std::uint32_t count = r.u32();
  if (!r.ok() || count > n) return std::nullopt;
  std::set<PartyId> out;
  for (std::uint32_t i = 0; i < count; ++i) {
    const PartyId p = r.u32();
    if (!r.ok() || p >= n) return std::nullopt;
    if (!out.insert(p).second) return std::nullopt;
  }
  if (!r.at_end()) return std::nullopt;
  return out;
}

std::vector<geo::Vec> values_of(const PairList& pairs) {
  std::vector<geo::Vec> values;
  values.reserve(pairs.size());
  for (const auto& [party, value] : pairs) values.push_back(value);
  return values;
}

}  // namespace hydra::protocols
