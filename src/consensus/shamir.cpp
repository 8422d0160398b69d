#include "consensus/shamir.hpp"

#include <algorithm>
#include <stdexcept>

#include "consensus/field.hpp"

namespace srds {

namespace {

/// Evaluate polynomial (coefficients low-to-high) at x.
std::uint64_t poly_eval(const std::vector<std::uint64_t>& coeffs, std::uint64_t x) {
  std::uint64_t acc = 0;
  for (auto it = coeffs.rbegin(); it != coeffs.rend(); ++it) {
    acc = Gf61::add(Gf61::mul(acc, x), *it);
  }
  return acc;
}

/// The inverses of all elements of `a`, with one field inversion
/// (Montgomery's trick). Throws if any element is 0.
std::vector<std::uint64_t> batch_inverse(const std::vector<std::uint64_t>& a) {
  std::vector<std::uint64_t> out(a.size());
  std::uint64_t acc = 1;
  for (std::size_t i = 0; i < a.size(); ++i) {
    out[i] = acc;  // product of a[0..i)
    acc = Gf61::mul(acc, a[i]);
  }
  if (acc == 0) throw std::invalid_argument("ShamirCode: points must be distinct mod p");
  std::uint64_t inv = Gf61::inv(acc);  // 1 / product of a[0..i], going down
  for (std::size_t i = a.size(); i-- > 0;) {
    out[i] = Gf61::mul(inv, out[i]);
    inv = Gf61::mul(inv, a[i]);
  }
  return out;
}

/// Shares as field points, sorted by x with the first occurrence of each x
/// kept. nullopt if any x ≡ 0: that point is the secret, not a share.
struct FieldPoints {
  std::vector<std::uint64_t> xs, ys;
};

std::optional<FieldPoints> field_points(const std::vector<Share>& shares) {
  // (x mod p, input position): sorting the pairs puts repeats of one x in
  // input order.
  std::vector<std::pair<std::uint64_t, std::size_t>> order;
  order.reserve(shares.size());
  for (std::size_t i = 0; i < shares.size(); ++i) {
    const std::uint64_t x = Gf61::reduce(shares[i].x);
    if (x == 0) return std::nullopt;
    order.emplace_back(x, i);
  }
  std::sort(order.begin(), order.end());
  FieldPoints out;
  out.xs.reserve(order.size());
  out.ys.reserve(order.size());
  for (const auto& [x, i] : order) {
    if (!out.xs.empty() && out.xs.back() == x) continue;
    out.xs.push_back(x);
    out.ys.push_back(Gf61::reduce(shares[i].y));
  }
  return out;
}

}  // namespace

ShamirCode::ShamirCode(std::vector<std::uint64_t> xs, std::size_t t)
    : xs_(std::move(xs)), base_(xs_.size() >= t + 1 ? t + 1 : 0) {
  const std::size_t m = xs_.size();
  for (auto& x : xs_) {
    x = Gf61::reduce(x);
    if (x == 0) throw std::invalid_argument("ShamirCode: points must be nonzero mod p");
  }
  // Denominators of the parity weights, then of the Lagrange-at-0
  // coefficients; inverted together.
  std::vector<std::uint64_t> dens(m + base_, 1);
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < m; ++j) {
      if (j != i) dens[i] = Gf61::mul(dens[i], Gf61::sub(xs_[i], xs_[j]));
    }
  }
  for (std::size_t i = 0; i < base_; ++i) {
    for (std::size_t j = 0; j < base_; ++j) {
      if (j != i) dens[m + i] = Gf61::mul(dens[m + i], Gf61::sub(xs_[j], xs_[i]));
    }
  }
  coeffs_ = batch_inverse(dens);
  for (std::size_t i = 0; i < base_; ++i) {
    for (std::size_t j = 0; j < base_; ++j) {
      if (j != i) coeffs_[m + i] = Gf61::mul(coeffs_[m + i], xs_[j]);
    }
  }
}

bool ShamirCode::consistent(std::span<const std::uint64_t> ys) const {
  const std::size_t m = xs_.size();
  if (ys.size() != m || base_ == 0) return false;
  // terms[i] = v_i·y_i·x_i^k for the current row k of the parity check.
  std::vector<std::uint64_t> terms(m);
  for (std::size_t i = 0; i < m; ++i) terms[i] = Gf61::mul(coeffs_[i], ys[i]);
  for (std::size_t k = 0; k + base_ < m; ++k) {
    std::uint64_t syndrome = 0;
    for (std::size_t i = 0; i < m; ++i) {
      syndrome = Gf61::add(syndrome, terms[i]);
      terms[i] = Gf61::mul(terms[i], xs_[i]);
    }
    if (syndrome != 0) return false;
  }
  return true;
}

std::optional<std::uint64_t> ShamirCode::secret(std::span<const std::uint64_t> ys) const {
  const std::size_t m = xs_.size();
  if (ys.size() != m || base_ == 0) return std::nullopt;
  std::uint64_t acc = 0;
  for (std::size_t i = 0; i < base_; ++i) acc = Gf61::add(acc, Gf61::mul(coeffs_[m + i], ys[i]));
  return acc;
}

std::vector<Share> shamir_share(std::uint64_t secret, std::size_t t, std::size_t n, Rng& rng) {
  if (n == 0 || t >= n) throw std::invalid_argument("shamir_share: need 0 <= t < n");
  std::vector<std::uint64_t> coeffs(t + 1);
  coeffs[0] = Gf61::reduce(secret);
  for (std::size_t i = 1; i <= t; ++i) coeffs[i] = rng.below(Gf61::kP);
  std::vector<Share> shares(n);
  for (std::size_t i = 0; i < n; ++i) {
    shares[i].x = i + 1;
    shares[i].y = poly_eval(coeffs, shares[i].x);
  }
  return shares;
}

std::optional<std::uint64_t> shamir_reconstruct(const std::vector<Share>& shares,
                                                std::size_t t) {
  auto pts = field_points(shares);
  if (!pts || pts->xs.size() < t + 1) return std::nullopt;
  pts->xs.resize(t + 1);
  pts->ys.resize(t + 1);
  return ShamirCode(std::move(pts->xs), t).secret(pts->ys);
}

bool shamir_consistent(const std::vector<Share>& shares, std::size_t t) {
  auto pts = field_points(shares);
  return pts && ShamirCode(std::move(pts->xs), t).consistent(pts->ys);
}

}  // namespace srds
