#include "server/shared/shared_batch.h"

#include <utility>

#include "server/shared/shared_scan.h"

namespace dbs3 {

Result<SharedBatchPlan> BuildSharedBatchPlan(
    const std::vector<const SharedScanSpec*>& specs,
    const std::vector<CancelToken>& cancels) {
  if (specs.empty() || specs.size() != cancels.size()) {
    return Status::InvalidArgument("shared batch needs specs + cancels");
  }
  const SharedScanSpec* lead = specs[0];
  const Relation* rel = lead->relation;
  if (rel == nullptr) {
    return Status::InvalidArgument("shared batch lead has no relation");
  }
  const size_t degree = rel->degree();
  const size_t base_columns = rel->schema().num_columns();

  SharedBatchPlan out;
  std::vector<SharedScanMember> members;
  members.reserve(specs.size());
  for (size_t i = 0; i < specs.size(); ++i) {
    const SharedScanSpec* spec = specs[i];
    if (spec->relation != rel || spec->share_class != lead->share_class) {
      // The admission controller groups by share_class alone; this is the
      // defense-in-depth check that the classes really describe one scan.
      return Status::InvalidArgument(
          "incompatible member folded into a shared batch");
    }
    for (size_t c : spec->projection) {
      if (c >= base_columns) {
        return Status::InvalidArgument("shared member projection out of "
                                       "range");
      }
    }
    auto result = std::make_unique<Relation>(
        spec->result_name, spec->result_schema, /*partition_column=*/0,
        Partitioner(PartitionKind::kHash, degree));
    SharedScanMember member;
    member.predicate = spec->predicate;
    member.selectivity = spec->selectivity;
    member.projection = spec->projection;
    member.result = result.get();
    member.cancel = cancels[i];
    members.push_back(std::move(member));
    out.sinks.push_back(std::move(result));
  }

  out.plan.AddNode("shared-scan(" + rel->name() + ")",
                   ActivationMode::kTriggered, degree,
                   std::make_unique<SharedScanLogic>(rel, std::move(members),
                                                     lead->vectorize));
  out.detail = "shared-scan(" + rel->name() + ")[" +
               std::to_string(specs.size()) + " queries]";
  return out;
}

}  // namespace dbs3
