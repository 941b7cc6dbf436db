#ifndef QIMAP_CHASE_SOLUTION_CACHE_H_
#define QIMAP_CHASE_SOLUTION_CACHE_H_

#include "chase/chase.h"

namespace qimap {

// Forwarders with no memo behind them; perfbench is their only caller.
inline Result<Instance> CachedChase(const Instance& source,
                                    const SchemaMapping& m,
                                    const ChaseOptions& options = {},
                                    ChaseStats* stats = nullptr) {
  return Chase(source, m, options, stats);
}

inline void SolutionCacheClear() {}

}  // namespace qimap

#endif  // QIMAP_CHASE_SOLUTION_CACHE_H_
