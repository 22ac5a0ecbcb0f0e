// Closed-loop renewal workloads over the real client wire.
//
// A Service is one system under test plus its client population: a
// ShardRouter behind a core::Scheduler, the licenses the benchmark issued,
// and one Client per simulated SL-Local. Every renewal takes the path a
// deployed client's would:
//   client   wire::RenewRequest::serialize()
//   ingress  wire::RenewRequest::deserialize(), core::Scheduler::submit()
//   server   core::Scheduler::drain_all()
//   answer   wire::RenewResponse::serialize(), deserialize() at the client
// A client sends its next renewal only after it decoded the previous answer
// (a closed loop), so one round is: every client submits once, the
// scheduler drains, every client decodes its answer.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/scheduler.hpp"
#include "lease/license.hpp"
#include "lease/shard_router.hpp"
#include "lease/wire.hpp"
#include "sgxsim/attestation.hpp"

namespace renewbench {

using Clock = std::chrono::steady_clock;

struct WorkloadSpec {
  const char* name = "";
  sl::core::Backend backend = sl::core::Backend::kDeterministic;
  std::size_t shards = 1;
  std::size_t licenses = 1;             // provisioned
  std::size_t clients = 1;
  std::size_t clients_per_license = 1;  // requesters sharing a renewed license
  bool journaled = false;
  std::uint32_t replicas = 0;           // replica group size; 0 = off
  // Rounds between faults injected at round boundaries, alternately
  // crash() -> recover() and fail_over(); 0 = none.
  std::uint64_t fault_every = 0;

  // Rounds holding one crash and one failover. Measured windows are whole
  // cycles, so every window sees the same fault mix.
  std::uint64_t cycle_rounds() const {
    return fault_every == 0 ? 1 : 2 * fault_every;
  }
};

// renew-hot, renew-wide and renew-durable; README.md gives the reasons.
const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(std::string_view name);

enum class SpanKind : std::uint8_t {
  kRound,
  kEncode,
  kParse,
  kSubmit,
  kDrain,
  kRespond,
  kRecover,
  kFailOver,
};
inline constexpr std::size_t kSpanKinds = 8;
const char* span_name(SpanKind kind);

// Spans the traced run records around the benchmark's own calls into each
// layer. Every span of a round is a child of its round span; request spans
// carry the request's ticket. Every span adds to its kind's totals; the
// JSONL file keeps every round-level span and the request spans of one
// ticket in `sample_every`, up to `capacity` spans (the rest are counted as
// dropped).
class Tracer {
 public:
  Tracer(Clock::time_point epoch, std::uint64_t sample_every,
         std::size_t capacity);

  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  // duration minus what child spans cover
  };

  void begin_round(Clock::time_point start);
  void end_round(Clock::time_point end);
  // A child of the open round; `ticket` is 0 for round-level work.
  void record(SpanKind kind, std::uint64_t ticket, Clock::time_point start,
              Clock::time_point end);

  const Totals& totals(SpanKind kind) const {
    return totals_[static_cast<std::size_t>(kind)];
  }
  std::size_t stored() const { return spans_.size(); }
  std::uint64_t dropped() const { return dropped_; }
  // One JSON object per span and line, in recording order.
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    SpanKind kind = SpanKind::kRound;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;   // 0 = root
    std::uint64_t ticket = 0;   // 0 = not a request span
    std::int64_t start_ns = 0;  // since the tracer's epoch
    std::int64_t end_ns = 0;
  };
  void store(const Span& span);
  std::int64_t since_epoch(Clock::time_point t) const;

  Clock::time_point epoch_;
  std::uint64_t sample_every_;
  std::size_t capacity_;
  std::vector<Span> spans_;
  std::array<Totals, kSpanKinds> totals_{};
  std::uint64_t next_id_ = 1;
  std::uint64_t round_id_ = 0;
  Clock::time_point round_start_;
  std::int64_t round_child_ns_ = 0;
  std::uint64_t dropped_ = 0;
};

struct RoundResult {
  std::uint64_t attempted = 0;      // request frames encoded
  std::uint64_t answered = 0;       // answers decoded, grants and denials
  std::uint64_t failed = 0;         // rejected, unanswered or undecodable
  std::uint64_t bad_frames = 0;     // frames that did not decode intact
  std::uint64_t request_bytes = 0;  // encoded request frame bytes

  RoundResult& operator+=(const RoundResult& other);
};

struct FaultRecord {
  bool failover = false;  // false: crash() then recover()
  double millis = 0.0;    // wall time of recover() or fail_over()
  std::uint64_t records_replayed = 0;
  // Empty when the report is ok, digest-matched and lost nothing committed.
  std::string violation;
};

class Service {
 public:
  Service(const WorkloadSpec& spec, std::uint64_t seed,
          sl::core::Backend backend);
  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // One closed-loop round. Per-request latencies in ms, from when the
  // request was due (its client's previous answer decoded) to its own
  // answer decoded, go to `latencies`, and spans to `tracer`, when non-null.
  RoundResult run_round(std::vector<float>* latencies, Tracer* tracer);

  const WorkloadSpec& spec() const { return spec_; }
  sl::lease::ShardRouter& router() { return *router_; }
  const sl::lease::LicenseAuthority& vendor() const { return vendor_; }
  const std::vector<sl::lease::LicenseFile>& licenses() const {
    return licenses_;
  }
  // The licenses clients renew (all of them unless spec().clients leaves
  // some idle), in the order clients were assigned to them.
  const std::vector<sl::lease::LicenseFile>& renewed() const {
    return renewed_;
  }
  std::size_t max_clients_per_shard() const { return max_clients_per_shard_; }
  std::uint64_t rounds() const { return round_; }
  const std::vector<FaultRecord>& faults() const { return faults_; }

  // Post-run checks, one line per violation: every shard up with
  // state_digest() == state_digest_full(), every ledger balanced, every
  // fault report clean.
  std::vector<std::string> check_state();

 private:
  struct Client {
    sl::lease::ShardRouter::CustomerId customer = 0;
    // The client's next frame: license and telemetry are set once; the
    // consumption report and request id change every round.
    sl::lease::wire::RenewRequest request;
    Clock::time_point due;       // when the next request became due
    std::uint64_t inflight = 0;  // ticket awaiting its answer; 0 = none
  };

  void inject_fault(Tracer* tracer);

  WorkloadSpec spec_;
  sl::lease::LicenseAuthority vendor_;
  sl::sgx::AttestationService ias_;
  std::vector<sl::lease::LicenseFile> licenses_;
  std::vector<sl::lease::LicenseFile> renewed_;
  std::vector<Client> clients_;
  std::size_t max_clients_per_shard_ = 0;
  std::unique_ptr<sl::lease::ShardRouter> router_;
  // Declared after router_ so it is destroyed first: the thread backend
  // joins its shard workers while the router they use still exists.
  std::unique_ptr<sl::core::Scheduler> scheduler_;
  std::vector<FaultRecord> faults_;
  std::uint64_t round_ = 0;
};

// Runs renew-hot's request stream for `rounds` rounds on the threads and on
// the deterministic backend. Empty when both end at the same state digest,
// otherwise what differed.
std::string check_backend_equivalence(std::uint64_t seed,
                                      std::uint64_t rounds);

}  // namespace renewbench
