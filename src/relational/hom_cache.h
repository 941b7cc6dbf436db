#ifndef QIMAP_RELATIONAL_HOM_CACHE_H_
#define QIMAP_RELATIONAL_HOM_CACHE_H_

#include "relational/homomorphism.h"

namespace qimap {

// Forwarders with no memo behind them; perfbench is their only caller.
inline bool CachedExistsInstanceHomomorphism(const Instance& from,
                                             const Instance& to,
                                             bool map_variables = true) {
  return ExistsInstanceHomomorphism(from, to, map_variables);
}

inline void HomCacheClear() {}

}  // namespace qimap

#endif  // QIMAP_RELATIONAL_HOM_CACHE_H_
