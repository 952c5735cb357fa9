// VaultLint source annotation vocabulary.
//
// The paper's confidentiality claim — the private graph, features, and
// labels never leave an enclave except sealed or over an attested channel —
// and the fleet's lock discipline used to live in reviewer memory.  These
// macros turn both into machine-checkable structure: tools/vault_lint
// (libclang when available, a built-in C++ token frontend otherwise) reads
// them off the source and enforces five checks over every translation unit
// in compile_commands.json:
//
//   secret-egress   values whose declaration carries GV_SECRET (types,
//                   fields, locals/params of secret types, functions whose
//                   return is secret) must not flow into untrusted sinks —
//                   GV_LOG_* streams, TraceSpan args, MetricsRegistry
//                   names/labels, FlightRecorder detail strings, raw
//                   OneWayChannel pushes — except through GV_BOUNDARY_OK
//                   seal/attested-channel APIs.
//   channel-kind    every AttestedChannel PayloadKind enumerator must have
//                   a pad-policy entry in kKindPolicies, a kind_name()
//                   switch case, and a per-kind byte-audit accessor case.
//   ecall-abi       structs marked GV_ECALL_ABI (they cross the simulated
//                   enclave boundary by value, i.e. would be EDL-marshaled
//                   in a real SGX port) must be trivially copyable with no
//                   host pointers/references.
//   lock-rank       nested lock_guard/unique_lock/shared_lock/MutexLock
//                   acquisitions must respect the GV_LOCK_RANK declared on
//                   the mutex members (monotone non-decreasing).
//   suppression     GV_LINT_ALLOW must name a known check and carry a
//                   non-empty reason.
//
// Cost: on clang the macros expand to zero-codegen `annotate` attributes
// (the lint's libclang frontend reads them from the AST); on every other
// compiler they expand to nothing and the token frontend reads the macro
// text straight from the source.  Either way the compiled binary is
// byte-identical with or without them.
#pragma once

#include <cstddef>

#if defined(__clang__)
#define GV_ANNOTATE(text) __attribute__((annotate(text)))
#else
#define GV_ANNOTATE(text)
#endif

/// Marks a type, field, local, or function (meaning: its return value) as
/// confidential enclave state: private adjacency, feature/label matrices,
/// session/sealing keys.  vault_lint's secret-egress check refuses to let
/// such values reach an untrusted sink.
#define GV_SECRET GV_ANNOTATE("gv::secret")

/// Marks a type or function as enclave-resident (trusted).  Secrets may
/// flow freely into GV_ENCLAVE-marked callees; the egress check only fires
/// at untrusted sinks.
#define GV_ENCLAVE GV_ANNOTATE("gv::enclave")

/// Marks a function as an APPROVED confidentiality boundary: it seals,
/// attests, or otherwise protects its arguments before they leave the
/// trust domain (Enclave::seal, AttestedChannel::send_*).  Secrets may be
/// passed to it without tripping secret-egress.
#define GV_BOUNDARY_OK GV_ANNOTATE("gv::boundary_ok")

/// Marks a struct as crossing the (simulated) enclave ABI by value — the
/// structs a real SGX port would marshal through an EDL ecall/ocall
/// signature.  vault_lint's ecall-abi check requires every field to be
/// trivially copyable with no host pointers or references.
#define GV_ECALL_ABI GV_ANNOTATE("gv::ecall_abi")

/// Declares the acquisition rank of a mutex member.  vault_lint's
/// lock-rank check flags any lexically nested acquisition whose rank is
/// LOWER than a rank already held; the runtime validator (below) asserts
/// the same invariant across function boundaries in sanitizer builds.
/// Use the gv::lockrank constants so the ordering lives in one table.
#define GV_LOCK_RANK(rank) GV_ANNOTATE("gv::lock_rank=" #rank)

/// Suppress one vault_lint finding, with a reason.  Applies to the line it
/// appears on and the line immediately below (so it can sit above the
/// offending statement) or, inside a class body, to the member declared on
/// its line.  Both arguments must be string literals; an empty reason is a
/// compile error AND a suppression-hygiene finding.
#define GV_LINT_ALLOW(check, reason)                                       \
  static_assert(sizeof(check) > 1 && sizeof(reason) > 1,                   \
                "GV_LINT_ALLOW needs a check name and a non-empty reason")

// --- Lock-rank map ----------------------------------------------------------
//
// Ranks must be acquired in non-decreasing order on any one thread.  Equal
// ranks are allowed to nest (distinct instances of a per-shard / per-replica
// mutex, or sequential ecalls into DIFFERENT enclaves); acquiring a rank
// strictly below the top of the held stack is an inversion.  The map, from
// outermost (control plane) to innermost (leaf telemetry):
namespace gv::lockrank {
inline constexpr int kRegistry = 10;       // VaultRegistry::mu_
inline constexpr int kServerControl = 20;  // ShardedVaultServer::promotion_mu_
inline constexpr int kReplicate = 24;      // ReplicaManager::replicate_mu_
inline constexpr int kServerState = 28;    // server drift_mu_ (health tracker)
inline constexpr int kReplicaSlot = 32;    // Replica::mu, promote_mu_ (held
                                           // across deployment sends / adopt,
                                           // so BELOW kDeployment)
inline constexpr int kDeployment = 40;     // ShardedVaultDeployment::infer_mu_
inline constexpr int kShardAccess = 44;    // Shard::access_mu (shared)
inline constexpr int kMoveFence = 52;      // move_mu_ / owner_mu_ / handler_mu_
inline constexpr int kServerSnap = 56;     // server snap_mu_ (feature snapshot;
                                           // a leaf the update_graph
                                           // before-unfence hook takes while
                                           // the deployment holds kDeployment)
inline constexpr int kEnclaveEntry = 60;   // Enclave::entry_mu_ (TCS)
inline constexpr int kEnclaveMeter = 64;   // Enclave::meter_mu_
inline constexpr int kChannel = 70;        // AttestedChannel / OneWayChannel /
                                           // MemoryLedger mutexes
inline constexpr int kQueue = 80;          // MicroBatchQueue::mu_, LabelCache
                                           // (serving-path leaves)
inline constexpr int kJobQueue = 82;       // JobSystem per-worker deques + idle
                                           // signal (posted to while
                                           // kQueue-held code has already
                                           // released, but ABOVE kQueue so a
                                           // post under a serving leaf would
                                           // still be legal)
inline constexpr int kTokenState = 84;     // SubmitToken shared state + pool
                                           // (resolved from job workers after
                                           // every other serving lock is
                                           // dropped)
inline constexpr int kTelemetry = 90;      // metrics / trace / flight recorder /
                                           // router + server stats mutexes

/// Stable name of a rank constant ("kRegistry", ...), or "unranked" for any
/// value not in the table.  EngineScope's lock-contention profiler labels
/// its `lock.wait_seconds{rank}` histograms with these, so the dynamic
/// contention picture lines up with the static rank table above.
const char* lock_rank_name(int rank);
}  // namespace gv::lockrank

// --- Runtime lock-rank validator -------------------------------------------
//
// The static check sees one function body at a time; the runtime validator
// sees the whole call stack.  GV_RANK_SCOPE(rank) placed immediately after
// a lock acquisition pushes the rank onto a thread-local stack and asserts
// monotone (non-strict) acquisition; the scope pops it on exit, mirroring
// the guard's lifetime.  Compiled into sanitizer builds via the CMake
// option GV_VALIDATE_LOCK_RANKS (-DGV_LOCK_RANK_VALIDATE=1); in normal
// builds the macro costs nothing but still constant-checks its argument.
namespace gv::lint {

/// Called on an inversion: `held` is the top of the thread's rank stack,
/// `acquiring` the offending rank, `what` the stringized rank expression.
/// The default handler prints both and aborts; tests install a counter.
using RankViolationHandler = void (*)(int held, int acquiring,
                                      const char* what);
RankViolationHandler set_rank_violation_handler(RankViolationHandler h);

class RankScope {
 public:
  explicit RankScope(int rank, const char* what = "");
  ~RankScope();

  RankScope(const RankScope&) = delete;
  RankScope& operator=(const RankScope&) = delete;

  /// Depth of the calling thread's held-rank stack (tests).
  static std::size_t held_depth();
  /// Top of the calling thread's held-rank stack, or -1 when empty.
  static int top_rank();

 private:
  int rank_;
};

}  // namespace gv::lint

#define GV_LINT_CONCAT_INNER(a, b) a##b
#define GV_LINT_CONCAT(a, b) GV_LINT_CONCAT_INNER(a, b)

#if defined(GV_LOCK_RANK_VALIDATE)
#define GV_RANK_SCOPE(rank) \
  ::gv::lint::RankScope GV_LINT_CONCAT(gv_rank_scope_, __LINE__) { (rank), #rank }
#else
#define GV_RANK_SCOPE(rank) \
  static_assert((rank) >= 0, "lock ranks are non-negative")
#endif
