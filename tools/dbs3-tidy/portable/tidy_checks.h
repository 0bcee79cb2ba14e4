#ifndef DBS3_TOOLS_TIDY_PORTABLE_TIDY_CHECKS_H_
#define DBS3_TOOLS_TIDY_PORTABLE_TIDY_CHECKS_H_

#include <set>
#include <string>
#include <vector>

#include "tidy_source.h"

// The five DBS3 invariant checks.
//
// One dependency-free engine over a token stream: it trades AST fidelity
// for running in any environment with a C++ compiler, so `check_dbs3_tidy`
// and the full src/ sweep gate every build. The fixtures under ../fixtures/
// pin each check's contract.
//
//  dbs3-no-lock-across-emit     No dbs3::Mutex / MutexLock held across
//                               Emit/Push* — bounded ActivationQueues block
//                               under back-pressure; holding a lock there
//                               is the engine's canonical deadlock shape.
//  dbs3-no-alloc-in-hot-path    Kernel-surface functions (OnData,
//                               OnDataBatch, Probe*, EvalPredAll,
//                               EmitTagged, ...)
//                               must not reach operator new / malloc or
//                               growing container calls except through
//                               ChunkPool / Arena receivers.
//  dbs3-quota-pairing           Every MemoryQuota::TryCharge/ForceCharge
//                               must pair with a Release, a ChargeGuard,
//                               or a recorded charge ledger; a bare
//                               TryCharge whose result is dropped is
//                               always wrong.
//  dbs3-cancel-check-in-consume-loop
//                               Loops that pop activations (PopBatch) or
//                               stream spill chunks (ReadChunk) must
//                               consult a CancelToken (ShouldStop /
//                               cancelled) each iteration.
//  dbs3-guarded-member-init     GUARDED_BY members of scalar type must be
//                               initialized in-class or in every reachable
//                               constructor init list (-Wthread-safety
//                               does not cover construction).

namespace dbs3_tidy {

inline constexpr char kNoLockAcrossEmit[] = "dbs3-no-lock-across-emit";
inline constexpr char kNoAllocInHotPath[] = "dbs3-no-alloc-in-hot-path";
inline constexpr char kQuotaPairing[] = "dbs3-quota-pairing";
inline constexpr char kCancelCheckInConsumeLoop[] =
    "dbs3-cancel-check-in-consume-loop";
inline constexpr char kGuardedMemberInit[] = "dbs3-guarded-member-init";

/// All five check names, in registration order.
std::vector<std::string> AllCheckNames();

/// Runs `enabled` checks (empty = all) over `sources` as one corpus:
/// dbs3-guarded-member-init resolves constructor init lists across files,
/// so headers and their .cc implementations should be analyzed together.
/// Diagnostics are NOLINT-filtered and sorted by (file, line).
std::vector<Diag> RunChecks(const std::vector<TidySource>& sources,
                            const std::set<std::string>& enabled = {});

}  // namespace dbs3_tidy

#endif  // DBS3_TOOLS_TIDY_PORTABLE_TIDY_CHECKS_H_
