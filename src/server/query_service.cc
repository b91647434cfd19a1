#include "server/query_service.h"

#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "common/stopwatch.h"
#include "exec/counter_names.h"
#include "impala/exec_node.h"
#include "impala/plan_serialization.h"

namespace cloudjoin::server {

/// The service's `impala::BroadcastProvider`: resolves broadcast builds
/// through the shared LRU cache's single-flight GetOrBuild.
class QueryService::CachingProvider : public impala::BroadcastProvider {
 public:
  explicit CachingProvider(BroadcastIndexCache* cache) : cache_(cache) {}

  Result<std::shared_ptr<const impala::BroadcastRight>> GetOrBuild(
      const impala::BroadcastFingerprint& fingerprint, const Builder& build,
      bool* cache_hit) override {
    return cache_->GetOrBuild<impala::BroadcastRight>(
        fingerprint.Key(), fingerprint.table_name, build, cache_hit);
  }

 private:
  BroadcastIndexCache* cache_;
};

QueryService::QueryService(dfs::SimFileSystem* fs,
                           const ServiceOptions& options)
    : options_(options),
      system_(fs),
      admission_(options.admission),
      cache_(options.cache),
      pool_(options.num_threads),
      provider_(std::make_unique<CachingProvider>(&cache_)) {}

QueryService::~QueryService() = default;

Session* QueryService::CreateSession(const impala::QueryOptions& defaults) {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  auto session = std::make_unique<Session>();
  session->id = next_session_id_.fetch_add(1);
  session->defaults = defaults;
  sessions_.push_back(std::move(session));
  return sessions_.back().get();
}

Result<const impala::TableDef*> QueryService::RegisterTable(
    const std::string& name, const join::TableInput& input) {
  std::unique_lock<std::shared_mutex> lock(catalog_mu_);
  Result<const impala::TableDef*> def = system_.RegisterTable(name, input);
  // Even without this sweep the catalog-generation field of the
  // fingerprint prevents stale hits; invalidating eagerly releases the
  // dead entries' memory immediately instead of waiting for eviction.
  cache_.InvalidateTable(name);
  return def;
}

Result<QueryResponse> QueryService::Execute(Session* session,
                                            const std::string& sql) {
  CLOUDJOIN_CHECK(session != nullptr);
  return Execute(session, sql, session->defaults);
}

Result<QueryResponse> QueryService::Execute(
    Session* session, const std::string& sql,
    const impala::QueryOptions& options) {
  return ExecuteInternal(
      session, [&sql, &options](impala::ImpalaRuntime* runtime,
                                impala::BroadcastProvider* provider,
                                ThreadPool* pool) {
        impala::QueryOptions effective = options;
        effective.broadcast_provider = provider;
        return runtime->Execute(sql, effective, pool);
      });
}

Result<QueryResponse> QueryService::ExecutePlan(Session* session,
                                                const std::string& plan_text) {
  // Deserialize up front: malformed or wrong-version plan text is a
  // client error (kParseError) and never consumes an admission slot.
  Result<impala::QueryPlan> plan = impala::DeserializePlan(plan_text);
  if (!plan.ok()) return plan.status();
  return ExecuteInternal(
      session, [&plan](impala::ImpalaRuntime* runtime,
                       impala::BroadcastProvider* provider, ThreadPool* pool) {
        return runtime->ExecutePlan(*plan, provider, pool);
      });
}

Result<QueryResponse> QueryService::ExecuteInternal(Session* session,
                                                    const EngineFn& run) {
  CLOUDJOIN_CHECK(session != nullptr);
  queries_submitted_.fetch_add(1);
  const int64_t query_id = next_query_id_.fetch_add(1);

  Stopwatch total_watch;
  Result<AdmissionController::Ticket> ticket_result = admission_.Admit(0);
  const double queue_seconds = total_watch.ElapsedSeconds();
  if (!ticket_result.ok()) {
    queries_rejected_.fetch_add(1);
    return ticket_result.status();
  }
  AdmissionController::Ticket ticket = std::move(ticket_result).value();

  // The coordinator runs here, on the client's thread; its fragment
  // instances run alongside it on the shared pool.
  Stopwatch exec_watch;
  std::shared_lock<std::shared_mutex> catalog_lock(catalog_mu_);
  Result<impala::QueryResult> result =
      run(system_.runtime(), options_.enable_cache ? provider_.get() : nullptr,
          &pool_);
  catalog_lock.unlock();
  const double exec_seconds = exec_watch.ElapsedSeconds();
  ticket.Release();
  if (!result.ok()) {
    queries_failed_.fetch_add(1);
    return result.status();
  }

  QueryResponse response;
  response.result = std::move(result).value();
  response.queue_seconds = queue_seconds;
  response.exec_seconds = exec_seconds;
  response.total_seconds = total_watch.ElapsedSeconds();
  response.index_cache_hit =
      response.result.metrics.counters.Get(exec::counter::kIndexCacheHit) > 0;
  response.plan_decision = response.result.metrics.plan_decision;
  response.plan_choice = response.result.metrics.plan_choice;
  response.plan_split_tiles =
      response.result.metrics.counters.Get(exec::counter::kHotTilesSplit);
  response.plan_text = response.result.metrics.plan_text;
  response.session_id = session->id;
  response.query_id = query_id;

  queries_ok_.fetch_add(1);
  RecordLatencies(response.queue_seconds, response.exec_seconds,
                  response.total_seconds);
  return response;
}

void QueryService::RecordLatencies(double queue_seconds, double exec_seconds,
                                   double total_seconds) {
  queue_latency_.Record(queue_seconds);
  exec_latency_.Record(exec_seconds);
  total_latency_.Record(total_seconds);
  interval_queue_latency_.Record(queue_seconds);
  interval_exec_latency_.Record(exec_seconds);
  interval_total_latency_.Record(total_seconds);
}

ServiceStats QueryService::GetStats() const {
  ServiceStats stats;
  stats.admission = admission_.GetStats();
  stats.cache = cache_.GetStats();
  stats.queries_submitted = queries_submitted_.load();
  stats.queries_ok = queries_ok_.load();
  stats.queries_rejected = queries_rejected_.load();
  stats.queries_failed = queries_failed_.load();
  stats.queue_latency = queue_latency_.TakeSnapshot();
  stats.exec_latency = exec_latency_.TakeSnapshot();
  stats.total_latency = total_latency_.TakeSnapshot();
  return stats;
}

namespace {

/// Delta of the monotone admission counts since `base`; gauges (running,
/// queued, reserved_bytes) and the peak stay at their current values.
AdmissionController::Stats IntervalDelta(const AdmissionController::Stats& now,
                                         const AdmissionController::Stats& base) {
  AdmissionController::Stats d = now;
  d.admitted_immediately -= base.admitted_immediately;
  d.admitted_after_wait -= base.admitted_after_wait;
  d.rejected_queue_full -= base.rejected_queue_full;
  d.rejected_timeout -= base.rejected_timeout;
  d.rejected_oversize -= base.rejected_oversize;
  return d;
}

/// Delta of the monotone cache counts; bytes/peak_bytes/entries are gauges.
BroadcastIndexCache::Stats IntervalDelta(const BroadcastIndexCache::Stats& now,
                                         const BroadcastIndexCache::Stats& base) {
  BroadcastIndexCache::Stats d = now;
  d.hits -= base.hits;
  d.misses -= base.misses;
  d.insertions -= base.insertions;
  d.evictions -= base.evictions;
  d.invalidations -= base.invalidations;
  d.rejected_oversize -= base.rejected_oversize;
  return d;
}

}  // namespace

ServiceStats QueryService::TakeIntervalStats() {
  std::lock_guard<std::mutex> lock(interval_mu_);
  ServiceStats now = GetStats();

  ServiceStats interval = now;
  interval.admission = IntervalDelta(now.admission, interval_base_.admission);
  interval.cache = IntervalDelta(now.cache, interval_base_.cache);
  interval.queries_submitted -= interval_base_.queries_submitted;
  interval.queries_ok -= interval_base_.queries_ok;
  interval.queries_rejected -= interval_base_.queries_rejected;
  interval.queries_failed -= interval_base_.queries_failed;
  interval.queue_latency = interval_queue_latency_.TakeSnapshotAndReset();
  interval.exec_latency = interval_exec_latency_.TakeSnapshotAndReset();
  interval.total_latency = interval_total_latency_.TakeSnapshotAndReset();

  interval_base_ = now;
  return interval;
}

std::string ServiceStats::ToString() const {
  std::ostringstream os;
  os << "queries: submitted=" << queries_submitted << " ok=" << queries_ok
     << " rejected=" << queries_rejected << " failed=" << queries_failed
     << "\n";
  os << "admission: running=" << admission.running
     << " queued=" << admission.queued
     << " peak_running=" << admission.peak_running
     << " immediate=" << admission.admitted_immediately
     << " waited=" << admission.admitted_after_wait
     << " rej_queue_full=" << admission.rejected_queue_full
     << " rej_timeout=" << admission.rejected_timeout << "\n";
  os << "index cache: entries=" << cache.entries << " bytes=" << cache.bytes
     << " hits=" << cache.hits << " misses=" << cache.misses
     << " hit_ratio=" << cache.HitRatio()
     << " evictions=" << cache.evictions
     << " invalidations=" << cache.invalidations << "\n";
  os << "latency queue: " << queue_latency.ToString() << "\n";
  os << "latency exec:  " << exec_latency.ToString() << "\n";
  os << "latency total: " << total_latency.ToString();
  return os.str();
}

}  // namespace cloudjoin::server
