#include "server/shared/shared_query.h"

#include <functional>

namespace dbs3 {

uint64_t ComputeShareClass(const Relation& relation,
                           const std::vector<size_t>& projection) {
  // FNV-style mixing over the compatibility-relevant shape. The relation's
  // address pins the exact object (two relations with the same name in
  // different databases must not batch together); the name guards against
  // address reuse across a catalog rebuild within one process.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  mix(reinterpret_cast<uintptr_t>(&relation));
  mix(std::hash<std::string>()(relation.name()));
  mix(projection.size());
  for (size_t c : projection) mix(c);
  return h == 0 ? 1 : h;
}

}  // namespace dbs3
