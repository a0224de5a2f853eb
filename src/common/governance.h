#ifndef SQLTS_COMMON_GOVERNANCE_H_
#define SQLTS_COMMON_GOVERNANCE_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>

#include "common/status.h"

namespace sqlts {

/// Cooperative cancellation handle.  Copies share one flag: any copy's
/// RequestCancel() is observed by every holder.  A default-constructed
/// token is inert (never cancelled, copies share nothing) so embedding
/// one in an options struct costs nothing until a caller opts in via
/// CancelToken::Cancellable().
///
/// The engine polls the token at every Push, inside the matcher advance
/// loop, and between shard tasks, so a cancelled query surfaces
/// `kCancelled` within one push of the request.
class CancelToken {
 public:
  CancelToken() = default;

  /// A live token whose copies share a cancellation flag.
  static CancelToken Cancellable() {
    CancelToken t;
    t.flag_ = std::make_shared<std::atomic<bool>>(false);
    return t;
  }

  /// Requests cancellation (no-op on an inert token).  Thread-safe.
  void RequestCancel() {
    if (flag_ != nullptr) flag_->store(true, std::memory_order_relaxed);
  }

  /// True once RequestCancel() was called on any copy.  Thread-safe.
  bool cancel_requested() const {
    return flag_ != nullptr && flag_->load(std::memory_order_relaxed);
  }

 private:
  std::shared_ptr<std::atomic<bool>> flag_;
};

/// How the engine treats malformed input rows (arity or type mismatch,
/// SEQUENCE BY order violations, truncated CSV records).
enum class BadInputPolicy {
  kFailFast,      ///< surface a typed error immediately (default)
  kSkipAndCount,  ///< drop the row and increment a skip counter
};

/// Shared live-resource ledger for one query: total tuples/bytes
/// currently buffered across every cluster matcher, updated atomically
/// so sharded workers account against one per-query budget.
struct ResourceLedger {
  std::atomic<int64_t> buffered_tuples{0};
  std::atomic<int64_t> buffered_bytes{0};
};

/// Deterministic failure-injection hook (testing only).  Called at
/// named engine sites ("stream.push", "matcher.append",
/// "shard.enqueue", and "scan.cluster" before each cluster of a batch
/// scan); a non-OK return simulates that site failing — the engine
/// must surface it as a Status without losing or duplicating output.
/// Hooks may also throw, which exercises the shard and scan workers'
/// exception boundary.
using FaultHook = std::function<Status(std::string_view site)>;

/// Per-query resource-governance knobs shared by the batch and
/// streaming executors.  Zero/absent values disable each control.
struct ExecGovernance {
  /// Max tuples buffered concurrently across all cluster matchers of
  /// one streaming query (0 = unlimited).  Exceeding it fails the Push
  /// with kResourceExhausted instead of growing without bound.
  int64_t max_buffered_tuples = 0;
  /// Same budget in (approximate, payload-estimated) bytes.
  int64_t max_buffered_bytes = 0;
  /// Absolute deadline; a Push/Execute past it fails with
  /// kDeadlineExceeded.  Default: none.
  std::chrono::steady_clock::time_point deadline =
      std::chrono::steady_clock::time_point::max();
  /// Cooperative cancellation; see CancelToken.
  CancelToken cancel;
  /// Malformed-input handling (see BadInputPolicy).
  BadInputPolicy bad_input = BadInputPolicy::kFailFast;
  /// Testing-only fault injection; see FaultHook.
  FaultHook fault_hook;

  bool has_deadline() const {
    return deadline != std::chrono::steady_clock::time_point::max();
  }

  /// Polls cancellation and the deadline; OK when neither triggered.
  Status Check() const {
    if (cancel.cancel_requested()) {
      return Status::Cancelled("query cancelled via CancelToken");
    }
    if (has_deadline() && std::chrono::steady_clock::now() >= deadline) {
      return Status::DeadlineExceeded("query deadline exceeded");
    }
    return Status::OK();
  }

  /// Fires the fault hook for `site` (OK when no hook is installed).
  Status Fault(std::string_view site) const {
    return fault_hook ? fault_hook(site) : Status::OK();
  }
};

}  // namespace sqlts

#endif  // SQLTS_COMMON_GOVERNANCE_H_
