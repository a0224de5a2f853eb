// The positive half of the harness: the entire annotated concurrency
// surface of the repo, plus a representative correct-usage pattern,
// must compile CLEAN under -Wthread-safety -Werror.  A regression that
// breaks an annotation (or a header that stops being self-contained)
// fails here even before the full-tree lint build runs.
#include "common/thread_annotations.h"
#include "engine/shard_pool.h"
#include "engine/shared_cache.h"
#include "engine/stream_executor.h"
#include "multiquery/multi_stream.h"
#include "replication/cluster.h"
#include "replication/log.h"
#include "server/metrics.h"
#include "server/registry.h"
#include "server/server.h"
#include "testing/fault_injector.h"

namespace {

// Every annotation kind, used correctly: the analysis must accept all
// of this without a diagnostic.
class Demo {
 public:
  void Add(long n) EXCLUDES(mu_) {
    sqlts::ts::MutexLock lock(mu_);
    value_ += n;
    while (value_ < 0) cv_.Wait(mu_);
    FlushLocked();
  }
  void Manual() {
    mu_.lock();
    ++*cell_;
    mu_.unlock();
    cv_.NotifyOne();
  }

 private:
  void FlushLocked() REQUIRES(mu_) { value_ = 0; }

  mutable sqlts::ts::Mutex mu_;
  sqlts::ts::CondVar cv_;
  long value_ GUARDED_BY(mu_) = 0;
  long cell_storage_ = 0;
  long* cell_ PT_GUARDED_BY(mu_) = &cell_storage_;
};

}  // namespace

int main() {
  Demo d;
  d.Add(1);
  d.Manual();
  return 0;
}
