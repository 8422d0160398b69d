// Shamir secret sharing over GF(2^61 - 1).
//
// share(): evaluate a random degree-t polynomial with f(0) = secret at
// points x = 1..n. reconstruct(): Lagrange interpolation at 0.
// consistent(): check that a set of shares lies on a single degree-<=t
// polynomial — the test the coin-tossing protocol applies to detect dealers
// who distributed inconsistent shares.
//
// Both checks go through ShamirCode, which holds everything that depends
// only on the evaluation points. Share coordinates are field elements: x
// and y are read mod p, and a share at x ≡ 0 (the secret's own point) is
// rejected.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace srds {

struct Share {
  std::uint64_t x = 0;  // evaluation point (party index + 1), nonzero
  std::uint64_t y = 0;  // value in GF(p)
};

/// The Reed–Solomon code Shamir shares live in: evaluations of degree-<=t
/// polynomials at fixed distinct nonzero points x_1..x_m.
///
/// consistent() is the parity check of that code: y lies on one degree-<=t
/// polynomial iff Σ_i v_i·y_i·x_i^k = 0 for every k < m−t−1, with
/// v_i = 1/∏_{j≠i}(x_i − x_j). That is O(m²) multiplications per check.
/// secret() interpolates at 0 from the first t+1 points. The weights and
/// the Lagrange-at-0 coefficients come from one batch inversion at
/// construction, so callers that check many share vectors over one point
/// set (one per dealer in a coin toss) build the code once.
class ShamirCode {
 public:
  /// `xs` must be distinct and nonzero mod p; throws std::invalid_argument
  /// otherwise.
  ShamirCode(std::vector<std::uint64_t> xs, std::size_t t);

  /// The evaluation points, reduced mod p, in construction order.
  const std::vector<std::uint64_t>& xs() const { return xs_; }

  /// True iff the points (xs()[i], ys[i]) lie on one degree-<=t polynomial.
  /// False when ys.size() != xs().size() or there are fewer than t+1 points.
  bool consistent(std::span<const std::uint64_t> ys) const;

  /// f(0) of the polynomial through the first t+1 points; nullopt when
  /// ys.size() != xs().size() or there are fewer than t+1 points.
  std::optional<std::uint64_t> secret(std::span<const std::uint64_t> ys) const;

 private:
  std::vector<std::uint64_t> xs_;
  std::size_t base_;  // t+1, or 0 when there are fewer than t+1 points
  // The parity weights v_i of all m points, then the Lagrange-at-0
  // coefficients of the first base_ points.
  std::vector<std::uint64_t> coeffs_;
};

/// Split `secret` (reduced mod p) into n shares with threshold t
/// (any t+1 reconstruct; any t reveal nothing).
std::vector<Share> shamir_share(std::uint64_t secret, std::size_t t, std::size_t n, Rng& rng);

/// Reconstruct the secret from the first t+1 distinct points (by x; the
/// first occurrence of a repeated x wins). Returns nullopt if there are
/// fewer than t+1 distinct points or any x ≡ 0.
std::optional<std::uint64_t> shamir_reconstruct(const std::vector<Share>& shares, std::size_t t);

/// True iff the distinct points (first occurrence of a repeated x wins)
/// number at least t+1, none has x ≡ 0, and all lie on one degree-<=t
/// polynomial.
bool shamir_consistent(const std::vector<Share>& shares, std::size_t t);

}  // namespace srds
