#include "conflict/clique.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace wdag::conflict {

std::size_t CliqueSearcher::run(const ConflictGraph& cg, bool complemented,
                                std::span<const std::size_t> seed,
                                const CliqueLimits& limits) {
  n_ = cg.size();
  words_ = (n_ + 63) / 64;
  best_.reserve(n_);
  current_.reserve(n_);
  best_.clear();
  for (const std::size_t v : seed) best_.push_back(static_cast<std::uint32_t>(v));
  current_.clear();
  target_ = std::max(best_.size(), limits.floor);
  enough_ = limits.enough;
  budget_ = limits.node_budget;
  nodes_ = 0;
  stopped_ = false;
  if (n_ == 0) return target_;

  const std::uint64_t tail =
      n_ % 64 == 0 ? ~std::uint64_t{0} : (std::uint64_t{1} << (n_ % 64)) - 1;
  rows_.resize(n_);
  if (complemented) {
    // Row u of the complement: every vertex but u and its neighbors.
    complement_.resize(n_ * words_);
    for (std::size_t u = 0; u < n_; ++u) {
      const util::ConstBitsetView row = cg.neighbors(u);
      std::uint64_t* out = complement_.data() + u * words_;
      for (std::size_t w = 0; w < words_; ++w) out[w] = ~row.word(w);
      out[words_ - 1] &= tail;
      out[u / 64] &= ~(std::uint64_t{1} << (u % 64));
      rows_[u] = out;
    }
  } else {
    for (std::size_t u = 0; u < n_; ++u) rows_[u] = cg.neighbors(u).data();
  }

  // A clique has at most n vertices, so depths 0..n cover the recursion.
  cand_.resize((n_ + 1) * words_);
  uncolored_.resize(words_);
  klass_.resize(words_);
  std::fill_n(cand_.begin(), words_, ~std::uint64_t{0});
  cand_[words_ - 1] = tail;
  top_ = 0;
  expand(0);
  return target_;
}

std::size_t CliqueSearcher::color_sort(std::size_t depth) {
  // Classes are grown one at a time: sweep the still-uncolored candidates
  // in increasing order, taking each vertex that no earlier member of the
  // class is adjacent to. The k-th class's members (k from 1) get bound
  // k, an upper bound on the clique extension among the candidates up to
  // them.
  const std::uint64_t* cand = cand_.data() + depth * words_;
  std::size_t total = 0;
  for (std::size_t w = 0; w < words_; ++w) {
    uncolored_[w] = cand[w];
    total += static_cast<std::size_t>(std::popcount(cand[w]));
  }
  if (order_.size() < top_ + total) {
    order_.resize(top_ + n_);
    bound_.resize(top_ + n_);
  }
  std::size_t count = 0;
  for (std::uint32_t k = 1; count < total; ++k) {
    std::copy(uncolored_.begin(), uncolored_.end(), klass_.begin());
    for (std::size_t w = 0; w < words_; ++w) {
      while (klass_[w] != 0) {
        const std::uint64_t bit = klass_[w] & (~klass_[w] + 1);
        const std::size_t v =
            w * 64 + static_cast<std::size_t>(std::countr_zero(klass_[w]));
        // Earlier words of the class sweep are already empty.
        const std::uint64_t* row = rows_[v];
        for (std::size_t x = w; x < words_; ++x) klass_[x] &= ~row[x];
        klass_[w] &= ~bit;
        uncolored_[w] &= ~bit;
        order_[top_ + count] = static_cast<std::uint32_t>(v);
        bound_[top_ + count] = k;
        ++count;
      }
    }
  }
  return count;
}

void CliqueSearcher::expand(std::size_t depth) {
  if (++nodes_ > budget_) {
    stopped_ = true;
    return;
  }
  const std::size_t base = top_;
  const std::size_t count = color_sort(depth);
  top_ = base + count;
  std::uint64_t* cand = cand_.data() + depth * words_;
  std::uint64_t* next = cand + words_;
  for (std::size_t i = count; i-- > 0;) {
    if (current_.size() + bound_[base + i] <= target_) break;  // pruned
    const std::uint32_t v = order_[base + i];
    current_.push_back(v);
    // Candidates later in the color order were already branched on and
    // removed from cand, so each clique is reached once.
    const std::uint64_t* row = rows_[v];
    bool any = false;
    for (std::size_t w = 0; w < words_; ++w) {
      next[w] = cand[w] & row[w];
      any = any || next[w] != 0;
    }
    if (!any) {
      if (current_.size() > target_) {
        best_.assign(current_.begin(), current_.end());
        target_ = best_.size();
        stopped_ = target_ >= enough_;
      }
    } else {
      expand(depth + 1);
    }
    current_.pop_back();
    if (stopped_) break;
    cand[v / 64] &= ~(std::uint64_t{1} << (v % 64));
  }
  top_ = base;
}

const std::vector<std::size_t>& CliqueSearcher::greedy(
    const ConflictGraph& cg) {
  const std::size_t n = cg.size();
  greedy_.clear();
  greedy_order_.resize(n);
  for (std::size_t i = 0; i < n; ++i) greedy_order_[i] = i;
  std::sort(greedy_order_.begin(), greedy_order_.end(),
            [&](std::size_t a, std::size_t b) {
              return cg.degree(a) > cg.degree(b);
            });
  for (const std::size_t seed : greedy_order_) {
    greedy_grow_.clear();
    greedy_grow_.push_back(seed);
    const util::ConstBitsetView cand = cg.neighbors(seed);
    for (std::size_t v = cand.find_first(); v < n; v = cand.find_next(v)) {
      bool ok = true;
      for (const std::size_t u : greedy_grow_) {
        if (!cg.adjacent(u, v)) {
          ok = false;
          break;
        }
      }
      if (ok) greedy_grow_.push_back(v);
    }
    if (greedy_grow_.size() > greedy_.size()) greedy_ = greedy_grow_;
  }
  return greedy_;
}

std::vector<std::size_t> greedy_clique(const ConflictGraph& cg) {
  CliqueSearcher search;
  return search.greedy(cg);
}

std::vector<std::size_t> max_clique(const ConflictGraph& cg) {
  if (cg.size() == 0) return {};
  CliqueSearcher search;
  search.run(cg, /*complemented=*/false, search.greedy(cg));
  std::vector<std::size_t> best(search.best().begin(), search.best().end());
  WDAG_ASSERT(is_clique(cg, best), "max_clique: result is not a clique");
  return best;
}

std::size_t clique_number(const ConflictGraph& cg) {
  return max_clique(cg).size();
}

bool is_clique(const ConflictGraph& cg, const std::vector<std::size_t>& vs) {
  for (std::size_t i = 0; i < vs.size(); ++i) {
    for (std::size_t j = i + 1; j < vs.size(); ++j) {
      if (!cg.adjacent(vs[i], vs[j])) return false;
    }
  }
  return true;
}

}  // namespace wdag::conflict
