#include "engine/vector/key_filter.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace dbs3 {

namespace {

/// 16 bits per key: one 64-bit word per 4 keys, rounded up to a power of
/// two so the word index is a mask.
size_t WordsFor(size_t keys) {
  constexpr size_t kKeysPerWord = 4;
  return std::bit_ceil(
      std::max<size_t>(1, (keys + kKeysPerWord - 1) / kKeysPerWord));
}

}  // namespace

KeyFilter::KeyFilter(size_t expected_keys)
    : words_(WordsFor(expected_keys)),
      mask_(words_.size() - 1),
      word_shift_(40 - static_cast<unsigned>(std::countr_zero(words_.size()))) {
  assert(words_.size() <= (size_t{1} << 40));
}

std::shared_ptr<const KeyFilter> KeyFilter::Build(const Relation& rel,
                                                  size_t column) {
  auto filter = std::make_shared<KeyFilter>(rel.cardinality());
  for (size_t f = 0; f < rel.degree(); ++f) {
    for (const Tuple& t : rel.fragment(f).tuples) {
      filter->Insert(t.at(column).Hash());
    }
  }
  return filter;
}

std::optional<PredExpr> ProbeKeyFilter(const Relation& probe,
                                       size_t probe_column,
                                       const Relation& inner,
                                       size_t inner_column) {
  if (probe.cardinality() < inner.cardinality()) return std::nullopt;
  return PredExpr::InKeyFilter(static_cast<uint32_t>(probe_column),
                               KeyFilter::Build(inner, inner_column));
}

}  // namespace dbs3
