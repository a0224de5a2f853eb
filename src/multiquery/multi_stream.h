#ifndef SQLTS_MULTIQUERY_MULTI_STREAM_H_
#define SQLTS_MULTIQUERY_MULTI_STREAM_H_

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/statusor.h"
#include "common/thread_annotations.h"
#include "engine/predicate_catalog.h"
#include "engine/stream_executor.h"

namespace sqlts {

/// Streaming shared multi-query execution: a registry of StreamEngines,
/// one per scan group, fed from one Push() stream.  Each query delivers
/// rows to its own callback, exactly as its standalone executor would
/// at any thread count.  AddQuery() starts a query at the current
/// stream position (it sees only later tuples); RemoveQuery() cancels
/// one without emitting its pending matches.  Checkpoint() captures the
/// registered set and Restore() reinstates it on a fresh instance,
/// re-resolving callbacks through the caller's resolver.
///
/// Locking contract (the seam sqlts_server relies on): every public
/// method serializes on one internal mutex, so a session thread can
/// register or cancel a query while the ingest thread pushes.  Row
/// callbacks run while that mutex is held: a callback must not call
/// back into this executor (it would self-deadlock); hand rows off to
/// a queue instead.
class MultiStreamExecutor {
 public:
  using RowCallback = StreamEngine::RowCallback;
  /// Supplies the output callback for restored query `index`
  /// (registration order, as returned by AddQuery) with text `text`.
  using CallbackResolver =
      std::function<RowCallback(int index, const std::string& text)>;

  /// One member query's failure, attributed by id (see Push).
  struct QueryError {
    int id = -1;
    Status status;
  };

  static StatusOr<std::unique_ptr<MultiStreamExecutor>> Create(
      Schema schema, const ExecOptions& options = {});

  /// Registers `query_text`, returning its id (dense, registration
  /// order, stable across RemoveQuery).  A non-null `governance`
  /// overrides ExecOptions::governance for this query only.
  StatusOr<int> AddQuery(std::string_view query_text, RowCallback on_row,
                         const ExecGovernance* governance = nullptr);

  /// Cancels query `id` without end-of-stream completion; the last
  /// query of a registration epoch frees the epoch's caches.
  Status RemoveQuery(int id);

  /// Feeds `row` to every live query; returns the first query's error.
  Status Push(Row row);

  /// Push reporting each failing query by id in `errors`; the Status is
  /// OK unless the executor itself is unusable, so a server can drop
  /// exactly the query whose budget or deadline tripped.
  Status Push(Row row, std::vector<QueryError>* errors);

  /// End-of-stream for every live query, in registration order.
  Status Finish();

  /// Serializes the registered set: per-query text and epoch, stream
  /// position, each scan group's state (StreamEngine::Save), and the
  /// shared-evaluation counters.
  Status Checkpoint(std::string* out);

  /// Reinstates a Checkpoint() on a fresh instance (same schema and
  /// options; thread count may differ).  Queries are re-registered in
  /// their original order with callbacks from `resolver`.
  Status Restore(std::string_view bytes, const CallbackResolver& resolver);

  /// Workload accounting: catalog state of every scan group plus the
  /// shared-cache counters (cumulative across a Restore).
  MultiQueryStats stats() const;

  /// Live (registered, not removed) query count.
  int num_queries() const;
  /// Total tuples offered to Push().
  int64_t rows_consumed() const;

  /// Stream position at which query `id` was registered: a standalone
  /// run fed the stream from there reproduces its output.
  /// InvalidArgument for unknown ids.
  StatusOr<int64_t> query_epoch(int id) const;

  /// StreamMember::rows_emitted of query `id`; InvalidArgument for
  /// unknown or removed ids.
  StatusOr<int64_t> rows_emitted(int id) const;

  /// Live (epoch, cluster) predicate caches across every scan group.
  int64_t num_epoch_caches() const;

  /// Query `id` as its scan group runs it (null if unknown or removed)
  /// — for stats inspection.  Only meaningful while no other thread is
  /// mutating the registry.
  const StreamMember* query(int id) const;

 private:
  struct Registered {
    std::string text;
    /// Stream position at registration: namespaces the shared caches so
    /// only queries that joined together share memos.
    int64_t epoch = 0;
    StreamEngine* engine = nullptr;  // null once removed
    int member = -1;                 // index in `engine`
  };

  MultiStreamExecutor(Schema schema, const ExecOptions& options)
      : schema_(std::move(schema)), options_(options) {}

  /// All *Locked helpers require mu_ held by the caller (enforced).
  StatusOr<int> AddQueryLocked(std::string_view query_text,
                               RowCallback on_row, int64_t epoch,
                               const ExecGovernance* governance)
      REQUIRES(mu_);
  Status PushLocked(Row row, std::vector<QueryError>* errors)
      REQUIRES(mu_);
  MultiQueryStats StatsLocked() const REQUIRES(mu_);
  /// The live entry of query `id`, or null.
  const Registered* LiveLocked(int id) const REQUIRES(mu_);
  /// Id of the live query that is `member` of `engine`.
  int QueryId(const StreamEngine* engine, int member) const REQUIRES(mu_);

  Schema schema_;
  ExecOptions options_;
  mutable ts::Mutex mu_;
  /// One engine per scan group signature, in creation order.
  std::vector<std::pair<std::string, std::unique_ptr<StreamEngine>>> groups_
      GUARDED_BY(mu_);
  std::vector<Registered> queries_ GUARDED_BY(mu_);
  int64_t pushed_ GUARDED_BY(mu_) = 0;
  /// Counter values carried over from a restored checkpoint, so stats()
  /// stays cumulative across a save/restore boundary.
  MultiQueryStats baseline_ GUARDED_BY(mu_);
};

}  // namespace sqlts

#endif  // SQLTS_MULTIQUERY_MULTI_STREAM_H_
