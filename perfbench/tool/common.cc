#include "tool/common.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

QueryChooser::QueryChooser(const std::string& mode, int num_queries,
                           uint64_t seed, int hot_distinct)
    : hot_(mode == "hot"), num_queries_(num_queries), rng_(seed) {
  if (hot_) {
    const int distinct = std::min(num_queries, hot_distinct);
    double total = 0.0;
    for (int r = 1; r <= distinct; ++r) total += 1.0 / r;
    double acc = 0.0;
    for (int r = 1; r <= distinct; ++r) {
      acc += 1.0 / r / total;
      zipf_cdf_.push_back(acc);
      rank_to_slot_.push_back(r - 1);
      hot_set_.push_back(r - 1);
    }
  }
}

int QueryChooser::Next() {
  if (!hot_) {
    const int q = next_;
    next_ = (next_ + 1) % num_queries_;
    return q;
  }
  const int distinct = static_cast<int>(hot_set_.size());
  if (draws_ % kHotRotate == 0) {
    if (draws_ > 0) {
      // The query after the hot set's newest member replaces its oldest.
      const int newest = hot_set_[static_cast<size_t>(
          (oldest_ + distinct - 1) % distinct)];
      hot_set_[static_cast<size_t>(oldest_)] = (newest + 1) % num_queries_;
      oldest_ = (oldest_ + 1) % distinct;
    }
    rng_.Shuffle(&rank_to_slot_);
  }
  ++draws_;
  int rank = 0;
  if (rng_.Bernoulli(0.9)) {
    const double u = rng_.UniformDouble();
    const auto it = std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u);
    rank = std::min(static_cast<int>(it - zipf_cdf_.begin()), distinct - 1);
  } else {
    rank = rng_.UniformInt(0, distinct - 1);
  }
  return hot_set_[static_cast<size_t>(
      rank_to_slot_[static_cast<size_t>(rank)])];
}

ReferenceIndex::ReferenceIndex(const std::vector<std::vector<uint8_t>>& rows)
    : num_bits_(rows.empty() ? 0 : static_cast<int>(rows[0].size())),
      words_((static_cast<size_t>(num_bits_) + 63) / 64) {
  rows_.reserve(rows.size() * words_);
  for (const std::vector<uint8_t>& row : rows) {
    const std::vector<uint64_t> packed = Pack(row);
    rows_.insert(rows_.end(), packed.begin(), packed.end());
  }
}

std::vector<uint64_t> ReferenceIndex::Pack(
    const std::vector<uint8_t>& bits) const {
  std::vector<uint64_t> words(words_, 0);
  for (size_t b = 0; b < bits.size(); ++b) {
    if (bits[b] != 0) words[b / 64] |= uint64_t{1} << (b % 64);
  }
  return words;
}

gdim::Ranking ReferenceIndex::TopK(const std::vector<uint8_t>& query,
                                   int k) const {
  const std::vector<uint64_t> q = Pack(query);
  const double p = static_cast<double>(num_bits_);
  const size_t n = words_ == 0 ? 0 : rows_.size() / words_;
  gdim::Ranking all(n);
  for (size_t i = 0; i < n; ++i) {
    int d = 0;
    for (size_t w = 0; w < words_; ++w) {
      d += std::popcount(q[w] ^ rows_[i * words_ + w]);
    }
    all[i] = {static_cast<int>(i), std::sqrt(d / p)};
  }
  const auto less = [](const gdim::RankedResult& a,
                       const gdim::RankedResult& b) {
    return a.score != b.score ? a.score < b.score : a.id < b.id;
  };
  const size_t top = std::min(n, static_cast<size_t>(k));
  std::partial_sort(all.begin(), all.begin() + top, all.end(), less);
  all.resize(top);
  return all;
}

std::vector<std::string> WireTokens(const gdim::Ranking& ranking) {
  std::vector<std::string> out;
  char token[64];
  for (const gdim::RankedResult& r : ranking) {
    std::snprintf(token, sizeof(token), "%d:%.6f", r.id, r.score);
    out.emplace_back(token);
  }
  return out;
}

std::vector<std::vector<std::string>> ReadReference(const std::string& path) {
  std::vector<std::vector<std::string>> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream tokens(line);
    std::vector<std::string> row;
    std::string token;
    while (tokens >> token) row.push_back(token);
    out.push_back(std::move(row));
  }
  return out;
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(idx, values.size() - 1)];
}

std::string JsonOut::Dump() const {
  std::ostringstream out;
  out.precision(17);
  out << "{";
  bool first = true;
  const auto key = [&](const std::string& k) {
    out << (first ? "" : ", ") << "\"" << k << "\": ";
    first = false;
  };
  const auto num = [&](double v) {
    if (std::isfinite(v)) {
      out << v;
    } else {
      out << "null";
    }
  };
  for (const auto& [k, v] : nums_) {
    key(k);
    num(v);
  }
  for (const auto& [k, values] : arrays_) {
    key(k);
    out << "[";
    for (size_t i = 0; i < values.size(); ++i) {
      if (i > 0) out << ",";
      num(values[i]);
    }
    out << "]";
  }
  out << "}";
  return out.str();
}

}  // namespace perfbench
