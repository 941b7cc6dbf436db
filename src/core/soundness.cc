#include "core/soundness.h"

#include "chase/chase.h"
#include "relational/homomorphism.h"

namespace qimap {

Result<RoundTrip> CheckRoundTrip(const SchemaMapping& m,
                                 const ReverseMapping& m_prime,
                                 const Instance& ground,
                                 const DisjunctiveChaseOptions& options) {
  ChaseOptions forward;
  forward.budget = options.budget;
  QIMAP_ASSIGN_OR_RETURN(Instance universal, Chase(ground, m, forward));
  QIMAP_ASSIGN_OR_RETURN(std::vector<Instance> recovered,
                         DisjunctiveChase(universal, m_prime, options));

  RoundTrip trip{std::move(universal), std::move(recovered), {}, false,
                 false, std::nullopt};
  trip.rechased.reserve(trip.recovered.size());
  for (size_t i = 0; i < trip.recovered.size(); ++i) {
    // Fresh nulls of the re-chase must not collide with the nulls already
    // present in V (which came from U and from the disjunctive chase).
    ChaseOptions chase_options;
    chase_options.budget = options.budget;
    chase_options.first_null_label =
        std::max(trip.recovered[i].MaxNullLabel(),
                 trip.universal.MaxNullLabel()) +
        1;
    QIMAP_ASSIGN_OR_RETURN(
        Instance rechased,
        Chase(trip.recovered[i], m, chase_options));
    bool into = ExistsInstanceHomomorphism(rechased, trip.universal);
    if (into) {
      trip.sound = true;
      if (!trip.faithful &&
          ExistsInstanceHomomorphism(trip.universal, rechased)) {
        trip.faithful = true;
        trip.faithful_witness = i;
      }
    }
    trip.rechased.push_back(std::move(rechased));
  }
  return trip;
}

}  // namespace qimap
