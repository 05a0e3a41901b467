// The ΠAA-it value computation (Section 5, lines 3-6):
//
//   k := |M| - (n - ts)
//   S := safe_max(k, ta)(M)
//   a, b := the deterministic diameter pair of S
//   v := (a + b) / 2
//
// Lemma 5.5 guarantees S is non-empty for n - ts <= |M| <= n, so the result
// is total. The same computation produces the witness estimations inside
// Πinit (its lines 7-10 and 17-20 are verbatim copies), so it lives in one
// place.
#pragma once

#include "geometry/vec.hpp"
#include "protocols/codec.hpp"
#include "protocols/params.hpp"

namespace hydra::protocols {

/// Computes the new value for a received set M of value-party pairs (sorted
/// by party id; |M| must be in [n - ts, n]).
///
/// Robustness: if the exact D <= 2 kernel returns empty where Lemma 5.5
/// guarantees non-emptiness (a floating-point boundary case on adversarially
/// degenerate inputs), we retry with relaxed tolerances and finally fall
/// back to an LP feasibility witness, which is a valid (if not
/// diameter-midpoint) safe-area point. The fallback path preserves Validity
/// (Lemma 5.7) and is counted so experiments can report it.
[[nodiscard]] geo::Vec compute_new_value(const Params& params, const PairList& m);

}  // namespace hydra::protocols
