#include "service.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <utility>

#include "common/rng.hpp"
#include "lease/remote_shard.hpp"
#include "lease/sl_local.hpp"
#include "lease/thread_backend.hpp"

namespace renewbench {

using sl::lease::LeaseId;
using sl::lease::LicenseFile;
using sl::lease::RemoteShard;
using sl::lease::RenewOutcome;
using sl::lease::RenewStatus;
using sl::lease::ShardRouter;
namespace wire = sl::lease::wire;

namespace {

// Large pools, as `securelease loadgen` uses: the loop measures the service.
constexpr std::uint64_t kLicenseTotal = 1'000'000'000;

std::vector<std::size_t> shuffled(std::size_t n, sl::Rng& rng) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;
  for (std::size_t i = n; i > 1; --i) {
    std::swap(order[i - 1], order[rng.next_below(i)]);
  }
  return order;
}

std::int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

double millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

}  // namespace

const std::vector<WorkloadSpec>& workloads() {
  // The thread backend parks and wakes its workers and the client thread
  // every round. In renew-hot's ~8 ms rounds that makes wall numbers track
  // the host's CPU steal; in renew-wide's ~0.6 s rounds it is noise-free.
  static const std::vector<WorkloadSpec> specs = {
      {.name = "renew-hot",
       .backend = sl::core::Backend::kThreads,
       .shards = 2,
       .licenses = 256,
       .clients = 1024,
       .clients_per_license = 4},
      {.name = "renew-wide",
       .backend = sl::core::Backend::kThreads,
       .shards = 1,
       .licenses = 8192,
       .clients = 8192,
       .clients_per_license = 1},
      // The deterministic backend because ThreadScheduler does not support
      // crash()/recover().
      {.name = "renew-durable",
       .backend = sl::core::Backend::kDeterministic,
       .shards = 1,
       .licenses = 1024,
       .clients = 256,
       .clients_per_license = 1,
       .journaled = true,
       .replicas = 3,
       .fault_every = 6},
  };
  return specs;
}

const WorkloadSpec* find_workload(std::string_view name) {
  for (const WorkloadSpec& spec : workloads()) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

// --- Tracer ---------------------------------------------------------------

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kRound: return "round";
    case SpanKind::kEncode: return "wire.encode";
    case SpanKind::kParse: return "wire.parse";
    case SpanKind::kSubmit: return "scheduler.submit";
    case SpanKind::kDrain: return "scheduler.drain";
    case SpanKind::kRespond: return "wire.respond";
    case SpanKind::kRecover: return "remote_shard.recover";
    case SpanKind::kFailOver: return "remote_shard.fail_over";
  }
  return "?";
}

Tracer::Tracer(Clock::time_point epoch, std::uint64_t sample_every,
               std::size_t capacity)
    : epoch_(epoch),
      sample_every_(std::max<std::uint64_t>(1, sample_every)),
      capacity_(capacity) {}

std::int64_t Tracer::since_epoch(Clock::time_point t) const {
  return nanos(t - epoch_);
}

void Tracer::store(const Span& span) {
  if (spans_.size() >= capacity_) {
    dropped_++;
    return;
  }
  spans_.push_back(span);
}

void Tracer::begin_round(Clock::time_point start) {
  round_id_ = next_id_++;
  round_start_ = start;
  round_child_ns_ = 0;
}

void Tracer::record(SpanKind kind, std::uint64_t ticket,
                    Clock::time_point start, Clock::time_point end) {
  const std::int64_t duration = nanos(end - start);
  Totals& totals = totals_[static_cast<std::size_t>(kind)];
  totals.count++;
  totals.total_ns += duration;
  totals.self_ns += duration;  // leaf spans: nothing below them
  round_child_ns_ += duration;
  const std::uint64_t id = next_id_++;
  if (ticket != 0 && ticket % sample_every_ != 0) return;
  store(Span{kind, id, round_id_, ticket, since_epoch(start),
             since_epoch(end)});
}

void Tracer::end_round(Clock::time_point end) {
  const std::int64_t duration = nanos(end - round_start_);
  Totals& totals = totals_[static_cast<std::size_t>(SpanKind::kRound)];
  totals.count++;
  totals.total_ns += duration;
  totals.self_ns += duration - round_child_ns_;
  store(Span{SpanKind::kRound, round_id_, 0, 0, since_epoch(round_start_),
             since_epoch(end)});
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::FILE* file = std::fopen(path.c_str(), "w");
  if (file == nullptr) return false;
  for (const Span& span : spans_) {
    std::fprintf(file,
                 "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                 "\"ticket\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                 span_name(span.kind),
                 static_cast<unsigned long long>(span.id),
                 static_cast<unsigned long long>(span.parent),
                 static_cast<unsigned long long>(span.ticket),
                 static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  return std::fclose(file) == 0;
}

// --- Service ---------------------------------------------------------------

RoundResult& RoundResult::operator+=(const RoundResult& other) {
  attempted += other.attempted;
  answered += other.answered;
  failed += other.failed;
  bad_frames += other.bad_frames;
  request_bytes += other.request_bytes;
  return *this;
}

Service::Service(const WorkloadSpec& spec, std::uint64_t seed,
                 sl::core::Backend backend)
    : spec_(spec), vendor_(sl::splitmix64_key(1, seed) | 1) {
  sl::Rng rng(sl::splitmix64_key(2, seed));
  // License ids are one 65536-aligned block of consecutive ids: the seed
  // moves the block but never the shape of the lease tree. Customer ids are
  // drawn per license; with the lease id they decide the owning shard.
  const LeaseId base = static_cast<LeaseId>((1 + rng.next_below(0x7fff)) << 16);
  std::vector<ShardRouter::CustomerId> customers(spec.licenses);
  licenses_.reserve(spec.licenses);
  for (std::size_t t = 0; t < spec.licenses; ++t) {
    customers[t] = rng.next_u64();
    char product[32];
    std::snprintf(product, sizeof(product), "renewbench/%06zu", t);
    licenses_.push_back(vendor_.issue(base + static_cast<LeaseId>(t), product,
                                      sl::lease::LeaseKind::kCountBased,
                                      kLicenseTotal));
  }

  // Tenant mapping: which licenses are renewed, and which clients share one.
  const std::vector<std::size_t> renewed = shuffled(spec.licenses, rng);
  const std::vector<std::size_t> seats = shuffled(spec.clients, rng);
  std::vector<std::size_t> per_shard(spec.shards, 0);
  clients_.resize(spec.clients);
  for (std::size_t c = 0; c < spec.clients; ++c) {
    const std::size_t license = renewed[seats[c] / spec.clients_per_license];
    Client& client = clients_[c];
    client.customer = customers[license];
    client.request.slid = c;  // connection id; ingress maps it to the client
    client.request.license = licenses_[license];
    client.request.health = 0.85 + 0.15 * rng.next_double();
    client.request.network = 0.7 + 0.3 * rng.next_double();
    per_shard[ShardRouter::shard_of(client.customer, licenses_[license].lease_id,
                                    spec.shards)]++;
  }
  for (std::size_t r = 0; r < spec.clients / spec.clients_per_license; ++r) {
    renewed_.push_back(licenses_[renewed[r]]);
  }
  max_clients_per_shard_ =
      std::max<std::size_t>(1, *std::max_element(per_shard.begin(),
                                                 per_shard.end()));

  sl::lease::ShardConfig config;
  // The clients routed to a shard all fit its queue: no round sees
  // backpressure at the seed state.
  config.queue_capacity = max_clients_per_shard_;
  config.durability.journaling = spec.journaled;
  config.durability.replicas = spec.replicas;
  router_ = std::make_unique<ShardRouter>(
      vendor_, ias_, sl::lease::SlLocal::expected_measurement(), spec.shards,
      config);
  for (std::size_t t = 0; t < spec.licenses; ++t) {
    router_->provision(customers[t], licenses_[t]);
  }
  if (backend == sl::core::Backend::kThreads) {
    scheduler_ = std::make_unique<sl::lease::ThreadScheduler>(*router_);
  } else {
    scheduler_ = std::make_unique<sl::core::DeterministicScheduler>(*router_);
  }
  const Clock::time_point now = Clock::now();
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    scheduler_->register_client(clients_[c].customer, c,
                                clients_[c].request.health,
                                clients_[c].request.network);
    clients_[c].due = now;
  }
}

RoundResult Service::run_round(std::vector<float>* latencies, Tracer* tracer) {
  RoundResult result;
  if (tracer != nullptr) tracer->begin_round(Clock::now());
  if (spec_.fault_every != 0 && round_ > 0 && round_ % spec_.fault_every == 0) {
    inject_fault(tracer);
  }

  // Client encode, ingress decode + submit, one request per client.
  const std::uint64_t first_ticket = round_ * clients_.size() + 1;
  for (std::size_t c = 0; c < clients_.size(); ++c) {
    Client& client = clients_[c];
    const std::uint64_t ticket = first_ticket + c;
    client.request.request_id = ticket;
    Clock::time_point t0;
    Clock::time_point t1;
    Clock::time_point t2;
    if (tracer != nullptr) t0 = Clock::now();
    const sl::Bytes frame = client.request.serialize();
    if (tracer != nullptr) t1 = Clock::now();
    const std::optional<wire::RenewRequest> decoded =
        wire::RenewRequest::deserialize(frame);
    if (tracer != nullptr) t2 = Clock::now();
    result.attempted++;
    result.request_bytes += frame.size();
    if (!decoded.has_value() || decoded->slid != c ||
        decoded->request_id != ticket) {
      result.bad_frames++;
      result.failed++;
      continue;
    }
    const bool queued = scheduler_->submit(
        clients_[decoded->slid].customer, decoded->slid, decoded->license,
        decoded->consumed, decoded->request_id);
    if (tracer != nullptr) {
      const Clock::time_point t3 = Clock::now();
      tracer->record(SpanKind::kEncode, ticket, t0, t1);
      tracer->record(SpanKind::kParse, ticket, t1, t2);
      tracer->record(SpanKind::kSubmit, ticket, t2, t3);
    }
    if (!queued) {  // backpressure or a down shard
      result.failed++;
      continue;
    }
    client.request.consumed = 0;  // the consumption report rode along
    client.inflight = ticket;
  }

  Clock::time_point drain_start;
  if (tracer != nullptr) drain_start = Clock::now();
  const std::vector<ShardRouter::Completion> completions =
      scheduler_->drain_all();
  if (tracer != nullptr) {
    tracer->record(SpanKind::kDrain, 0, drain_start, Clock::now());
  }

  // Server encode, client decode, one answer per completion.
  for (const ShardRouter::Completion& completion : completions) {
    const RenewOutcome& outcome = completion.outcome;
    wire::RenewResponse response;
    response.ok = outcome.status == RenewStatus::kGranted;
    response.granted = outcome.granted;
    response.overloaded = outcome.status == RenewStatus::kOverloaded;
    Clock::time_point t0;
    if (tracer != nullptr) t0 = Clock::now();
    const sl::Bytes frame = response.serialize();
    const std::optional<wire::RenewResponse> decoded =
        wire::RenewResponse::deserialize(frame);
    const Clock::time_point done = Clock::now();
    if (tracer != nullptr) {
      tracer->record(SpanKind::kRespond, outcome.ticket, t0, done);
    }
    // An answer to an earlier round's request was already counted failed.
    if (outcome.ticket < first_ticket ||
        outcome.ticket - first_ticket >= clients_.size()) {
      continue;
    }
    Client& client = clients_[outcome.ticket - first_ticket];
    if (client.inflight != outcome.ticket) continue;
    client.inflight = 0;
    if (!decoded.has_value() || decoded->ok != response.ok ||
        decoded->granted != response.granted) {
      result.bad_frames++;
      result.failed++;
      client.due = done;
      continue;
    }
    result.answered++;
    if (latencies != nullptr) {
      latencies->push_back(static_cast<float>(millis(done - client.due)));
    }
    client.due = done;
    if (decoded->ok) client.request.consumed = decoded->granted;
  }

  // Still unanswered (parked behind a replication stall, or lost): the
  // client times out and sends a fresh request next round.
  const Clock::time_point end = Clock::now();
  for (Client& client : clients_) {
    if (client.inflight == 0) continue;
    client.inflight = 0;
    client.due = end;
    result.failed++;
  }
  if (tracer != nullptr) tracer->end_round(end);
  round_++;
  return result;
}

void Service::inject_fault(Tracer* tracer) {
  const bool failover = (round_ / spec_.fault_every) % 2 == 0;
  for (std::size_t s = 0; s < router_->shard_count(); ++s) {
    RemoteShard& shard = router_->shard(s);
    FaultRecord record;
    record.failover = failover;
    bool clean = false;
    Clock::time_point start;
    Clock::time_point end;
    if (failover) {
      start = Clock::now();
      const sl::lease::FailoverReport report = shard.fail_over();
      end = Clock::now();
      record.records_replayed = report.records_replayed;
      clean = report.attempted && report.ok && report.digest_match &&
              !report.lost_committed;
      if (!clean) {
        record.violation = "shard " + std::to_string(s) +
                           ": fail_over report not clean (" + report.detail +
                           ")";
      }
    } else {
      shard.crash();
      start = Clock::now();
      const sl::lease::RecoveryReport report = shard.recover();
      end = Clock::now();
      record.records_replayed = report.records_replayed;
      clean = report.ok && report.digest_match && !report.lost_committed;
      if (!clean) {
        record.violation = "shard " + std::to_string(s) +
                           ": recover report not clean (" + report.detail +
                           ")";
      }
    }
    record.millis = millis(end - start);
    if (tracer != nullptr) {
      tracer->record(failover ? SpanKind::kFailOver : SpanKind::kRecover, 0,
                     start, end);
    }
    faults_.push_back(std::move(record));
  }
}

std::vector<std::string> Service::check_state() {
  std::vector<std::string> violations;
  for (std::size_t s = 0; s < router_->shard_count(); ++s) {
    RemoteShard& shard = router_->shard(s);
    if (!shard.up()) {
      violations.push_back("shard " + std::to_string(s) + " is down");
      continue;
    }
    const std::uint64_t fast = shard.state_digest();
    const std::uint64_t full = shard.state_digest_full();
    if (fast != full) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "shard %zu: state_digest %016llx != state_digest_full "
                    "%016llx",
                    s, static_cast<unsigned long long>(fast),
                    static_cast<unsigned long long>(full));
      violations.push_back(line);
    }
  }
  const auto ledgers = router_->ledgers();
  if (ledgers.size() != licenses_.size()) {
    violations.push_back(std::to_string(ledgers.size()) + " ledgers for " +
                         std::to_string(licenses_.size()) + " licenses");
  }
  for (const auto& [lease, ledger] : ledgers) {
    if (!ledger.balanced()) {
      violations.push_back("lease " + std::to_string(lease) +
                           ": ledger not balanced");
    }
  }
  for (const FaultRecord& fault : faults_) {
    if (!fault.violation.empty()) violations.push_back(fault.violation);
  }
  return violations;
}

std::string check_backend_equivalence(std::uint64_t seed,
                                      std::uint64_t rounds) {
  const WorkloadSpec& hot = *find_workload("renew-hot");
  const sl::core::Backend backends[2] = {sl::core::Backend::kThreads,
                                         sl::core::Backend::kDeterministic};
  std::uint64_t digests[2] = {};
  for (int i = 0; i < 2; ++i) {
    Service service(hot, seed, backends[i]);
    for (std::uint64_t r = 0; r < rounds; ++r) {
      const RoundResult result = service.run_round(nullptr, nullptr);
      if (result.failed != 0) {
        return std::string(sl::core::backend_name(backends[i])) +
               " backend: " + std::to_string(result.failed) +
               " requests failed in round " + std::to_string(r);
      }
    }
    digests[i] = service.router().state_digest();
  }
  if (digests[0] == digests[1]) return "";
  char line[160];
  std::snprintf(line, sizeof(line),
                "renew-hot after %llu rounds: threads digest %016llx != "
                "deterministic digest %016llx",
                static_cast<unsigned long long>(rounds),
                static_cast<unsigned long long>(digests[0]),
                static_cast<unsigned long long>(digests[1]));
  return line;
}

}  // namespace renewbench
