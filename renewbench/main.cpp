// Wall-clock renewal benchmark: the measuring program (README.md in this
// directory).
//
//   renewbench --workload renew-hot --seed 1 --seconds 10 --trace 0
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1 is
// the separate traced run that reports the per-layer split. The last line of
// standard output is one JSON object; a failed correctness check exits 1
// without printing it.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "probes.hpp"
#include "service.hpp"
#include "storage/journal.hpp"

namespace renewbench {
namespace {

constexpr int kSetups = 5;     // setup_s is their median
constexpr int kSlices = 8;     // end-to-end values are medians over slices
constexpr int kTriplets = 4;   // traced run: plain / traced / obs-off windows
constexpr std::uint64_t kEquivalenceRounds = 32;
constexpr std::uint64_t kSpanSampleEvery = 64;
constexpr std::size_t kSpanCapacity = 200'000;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/results";
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string samples;  // what the value summarizes
};

struct Result {
  std::vector<Metric> metrics;  // the JSON result line
  std::vector<Metric> extra;    // printed and filed, not in the result line
  std::vector<std::pair<std::string, std::string>> absent;  // name, reason
  std::vector<std::string> notes;
  std::vector<std::string> checks;      // passed correctness checks
  std::vector<std::string> violations;  // failed ones
  // Per-slice values behind the end-to-end medians, for judging noise.
  std::vector<std::pair<std::string, std::vector<double>>> slices;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));
std::string format(const char* fmt, ...) {
  char buffer[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  return buffer;
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<float>& values, double q) {
  const std::size_t index = static_cast<std::size_t>(
      q * static_cast<double>(values.size() - 1) + 0.5);
  std::nth_element(values.begin(), values.begin() + index, values.end());
  return values[index];
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// --- Measurement windows ---------------------------------------------------

struct Window {
  double seconds = 0.0;
  double cpu_seconds = 0.0;
  std::uint64_t rounds = 0;
  RoundResult totals;
  std::vector<double> cycle_rates;  // answered per second, per fault cycle
};

// Whole fault cycles until at least `target` seconds have passed.
Window run_window(Service& service, double target,
                  std::vector<float>* latencies, Tracer* tracer) {
  Window window;
  const double cpu_start = cpu_seconds();
  const Clock::time_point start = Clock::now();
  Clock::time_point cycle_start = start;
  Clock::time_point now = start;
  do {
    std::uint64_t answered = 0;
    for (std::uint64_t r = 0; r < service.spec().cycle_rounds(); ++r) {
      const RoundResult round = service.run_round(latencies, tracer);
      answered += round.answered;
      window.totals += round;
      window.rounds++;
    }
    now = Clock::now();
    window.cycle_rates.push_back(
        static_cast<double>(answered) /
        std::chrono::duration<double>(now - cycle_start).count());
    cycle_start = now;
  } while (std::chrono::duration<double>(now - start).count() < target);
  window.seconds = std::chrono::duration<double>(now - start).count();
  window.cpu_seconds = cpu_seconds() - cpu_start;
  return window;
}

// Lets pools, caches and the checkpoint cadence settle before anything
// counts.
void warm_up(Service& service, const Options& options) {
  run_window(service, std::min(1.0, 0.1 * options.seconds), nullptr, nullptr);
}

void check_state(Service& service, Result& result) {
  const std::vector<std::string> violations = service.check_state();
  if (violations.empty()) {
    result.checks.push_back(format(
        "%zu shards up with state_digest == state_digest_full; %zu ledgers "
        "balanced; %zu fault reports ok, digest-matched, nothing committed "
        "lost",
        service.router().shard_count(), service.licenses().size(),
        service.faults().size()));
  }
  result.violations.insert(result.violations.end(), violations.begin(),
                           violations.end());
}

void check_frames(const RoundResult& totals, Result& result) {
  if (totals.bad_frames == 0) {
    result.checks.push_back(
        format("%llu request frames and their answers decoded intact",
               static_cast<unsigned long long>(totals.attempted)));
  } else {
    result.violations.push_back(
        format("%llu frames did not decode intact",
               static_cast<unsigned long long>(totals.bad_frames)));
  }
}

void check_backends(const Options& options, Result& result) {
  const std::string mismatch =
      check_backend_equivalence(options.seed, kEquivalenceRounds);
  if (mismatch.empty()) {
    result.checks.push_back(format(
        "renew-hot's request stream, %llu rounds, ends at the same state "
        "digest on the threads and the deterministic backend",
        static_cast<unsigned long long>(kEquivalenceRounds)));
  } else {
    result.violations.push_back(mismatch);
  }
}

void add_fault_metrics(const Service& service, std::size_t first,
                       Result& result) {
  std::vector<double> recover;
  std::vector<double> failover;
  for (std::size_t i = first; i < service.faults().size(); ++i) {
    const FaultRecord& fault = service.faults()[i];
    (fault.failover ? failover : recover).push_back(fault.millis);
  }
  if (!recover.empty()) {
    result.extra.push_back(
        {"recover_ms", median(recover), "ms",
         format("median of %zu RemoteShard::recover() after crash()",
                recover.size())});
  }
  if (!failover.empty()) {
    result.extra.push_back(
        {"failover_ms", median(failover), "ms",
         format("median of %zu RemoteShard::fail_over()", failover.size())});
  }
}

// --- End-to-end run (--trace 0) ---------------------------------------------

Result measure_end_to_end(const WorkloadSpec& spec, const Options& options) {
  Result result;
  std::vector<double> setups;
  std::unique_ptr<Service> service;
  for (int k = 0; k < kSetups; ++k) {
    service.reset();  // one instance at a time: peak RSS is one workload's
    const Clock::time_point start = Clock::now();
    service = std::make_unique<Service>(spec, options.seed, spec.backend);
    // The first round lazily mints every client's SLID on its shard.
    const RoundResult first = service->run_round(nullptr, nullptr);
    setups.push_back(seconds_since(start));
    if (first.failed != 0) {
      result.violations.push_back(
          format("set-up round: %llu requests failed",
                 static_cast<unsigned long long>(first.failed)));
    }
  }
  warm_up(*service, options);

  const std::size_t first_fault = service->faults().size();
  std::vector<float> latencies;
  std::vector<double> cycle_rates;
  std::vector<double> rates;
  std::vector<double> cpu;
  std::vector<double> p50;
  std::vector<double> p99;
  RoundResult totals;
  std::uint64_t rounds = 0;
  double seconds = 0.0;
  for (int slice = 0; slice < kSlices; ++slice) {
    latencies.clear();
    const Window window =
        run_window(*service, options.seconds / kSlices, &latencies, nullptr);
    totals += window.totals;
    rounds += window.rounds;
    seconds += window.seconds;
    if (window.totals.answered == 0) {
      result.violations.push_back("a measured slice answered no renewal");
      return result;
    }
    cycle_rates.insert(cycle_rates.end(), window.cycle_rates.begin(),
                       window.cycle_rates.end());
    const double answered = static_cast<double>(window.totals.answered);
    rates.push_back(answered / window.seconds);
    cpu.push_back(window.cpu_seconds * 1e6 / answered);
    p50.push_back(percentile(latencies, 0.50));
    p99.push_back(percentile(latencies, 0.99));
  }
  const double rss = peak_rss_mb();
  result.attempted = totals.attempted;
  result.failed = totals.failed;
  result.slices = {{"renewals_per_s", rates},
                   {"renew_p50_ms", p50},
                   {"renew_p99_ms", p99},
                   {"cpu_us_per_renewal", cpu},
                   {"setup_s", setups}};

  const std::string window =
      format("median of %d slices; %llu answered in %.2f s", kSlices,
             static_cast<unsigned long long>(totals.answered), seconds);
  const std::string tail = format(
      "median of %d slice percentiles; %llu requests in %llu rounds (a "
      "round's requests finish together: rounds are the tail's samples)",
      kSlices, static_cast<unsigned long long>(totals.answered),
      static_cast<unsigned long long>(rounds));
  result.metrics = {
      {"renewals_per_s", median(cycle_rates), "1/s",
       format("median of %zu fault cycles (%llu rounds each); %llu answered "
              "in %.2f s",
              cycle_rates.size(),
              static_cast<unsigned long long>(spec.cycle_rounds()),
              static_cast<unsigned long long>(totals.answered), seconds)},
      {"renew_p50_ms", median(p50), "ms", tail},
      {"renew_p99_ms", median(p99), "ms", tail},
      {"cpu_us_per_renewal", median(cpu), "us", window},
      {"setup_s", median(setups), "s",
       format("median of %d set-ups incl. the SLID-minting first round",
              kSetups)},
      {"peak_rss_mb", rss, "MB", "ru_maxrss of this one-workload process"},
  };
  result.extra.push_back(
      {"failed_ratio",
       ratio(static_cast<double>(totals.failed),
             static_cast<double>(totals.attempted)),
       "ratio",
       format("%llu of %llu attempted; denials are answers",
              static_cast<unsigned long long>(totals.failed),
              static_cast<unsigned long long>(totals.attempted))});
  add_fault_metrics(*service, first_fault, result);

  check_frames(totals, result);
  check_state(*service, result);
  service.reset();
  check_backends(options, result);
  return result;
}

// --- Traced run (--trace 1) --------------------------------------------------

// Monotone counters of every layer, read between rounds.
struct Counts {
  std::vector<double> processed;  // per shard
  double batches = 0;
  double checkpoints = 0;
  double cycles = 0;  // shard clocks
  double appends = 0;
  double append_bytes = 0;
  double syncs = 0;  // journal devices
  double shipped_appends = 0;
  double shipped_bytes = 0;
  double acks = 0;          // replica groups
  double tree_commits = 0;  // registry

  double renewals() const {
    double sum = 0;
    for (const double p : processed) sum += p;
    return sum;
  }
};

Counts read_counts(sl::lease::ShardRouter& router) {
  Counts counts;
  for (std::size_t s = 0; s < router.shard_count(); ++s) {
    const sl::lease::RemoteShard& shard = router.shard(s);
    counts.processed.push_back(static_cast<double>(shard.stats().processed));
    counts.batches += static_cast<double>(shard.stats().batches);
    counts.checkpoints += static_cast<double>(shard.stats().checkpoints);
    counts.cycles += static_cast<double>(shard.clock().cycles());
    if (const sl::storage::Journal* journal = shard.journal()) {
      const sl::storage::DeviceStats& device = journal->device().stats();
      counts.appends += static_cast<double>(device.appends);
      counts.append_bytes += static_cast<double>(device.bytes_appended);
      counts.syncs += static_cast<double>(device.syncs);
    }
    if (const auto* group = shard.replica_group()) {
      counts.shipped_appends +=
          static_cast<double>(group->stats().appends_shipped);
      counts.shipped_bytes += static_cast<double>(group->stats().bytes_shipped);
      counts.acks += static_cast<double>(group->stats().acks);
    }
  }
  counts.tree_commits = static_cast<double>(
      sl::obs::MetricsRegistry::global().counter_sum(
          "sl_lease_tree_commits_total"));
  return counts;
}

// into += after - before
void add_delta(Counts& into, const Counts& after, const Counts& before) {
  into.processed.resize(after.processed.size(), 0.0);
  for (std::size_t s = 0; s < after.processed.size(); ++s) {
    into.processed[s] += after.processed[s] - before.processed[s];
  }
  into.batches += after.batches - before.batches;
  into.checkpoints += after.checkpoints - before.checkpoints;
  into.cycles += after.cycles - before.cycles;
  into.appends += after.appends - before.appends;
  into.append_bytes += after.append_bytes - before.append_bytes;
  into.syncs += after.syncs - before.syncs;
  into.shipped_appends += after.shipped_appends - before.shipped_appends;
  into.shipped_bytes += after.shipped_bytes - before.shipped_bytes;
  into.acks += after.acks - before.acks;
  into.tree_commits += after.tree_commits - before.tree_commits;
}

Result measure_layers(const WorkloadSpec& spec, const Options& options,
                      Tracer& tracer) {
  Result result;
  auto service = std::make_unique<Service>(spec, options.seed, spec.backend);
  service->run_round(nullptr, nullptr);
  warm_up(*service, options);

  // Rotating windows: plain, traced, and with the registry switched off.
  // The rotation spreads slow drift over all three; counts and spans come
  // from the traced windows only.
  enum Mode { kPlain = 0, kTraced = 1, kObsOff = 2 };
  const bool obs_compiled = SL_OBS_ENABLED != 0;
  const int modes = obs_compiled ? 3 : 2;
  Counts traced;
  RoundResult traced_totals;
  RoundResult all_totals;
  std::vector<double> trace_overhead;
  std::vector<double> obs_overhead;
  const double window_seconds = options.seconds / (modes * kTriplets);
  for (int k = 0; k < kTriplets; ++k) {
    double rate[3] = {};
    for (int i = 0; i < modes; ++i) {
      const int mode = (k + i) % modes;
      if (mode == kObsOff) sl::obs::set_runtime_enabled(false);
      const Counts before = read_counts(service->router());
      const Window window = run_window(*service, window_seconds, nullptr,
                                       mode == kTraced ? &tracer : nullptr);
      if (mode == kObsOff) sl::obs::set_runtime_enabled(true);
      if (mode == kTraced) {
        add_delta(traced, read_counts(service->router()), before);
        traced_totals += window.totals;
      }
      all_totals += window.totals;
      rate[mode] = static_cast<double>(window.totals.answered) / window.seconds;
    }
    trace_overhead.push_back(100.0 * (rate[kPlain] - rate[kTraced]) /
                             rate[kPlain]);
    if (obs_compiled) {
      obs_overhead.push_back(100.0 * (rate[kObsOff] - rate[kPlain]) /
                             rate[kObsOff]);
    }
  }
  result.attempted = all_totals.attempted;
  result.failed = all_totals.failed;

  // Probes, after the workload, at its final state.
  std::vector<double> digest_us;
  for (std::size_t s = 0; s < service->router().shard_count(); ++s) {
    for (int k = 0; k < 15; ++k) {
      const Clock::time_point start = Clock::now();
      const std::uint64_t digest = service->router().shard(s).state_digest();
      digest_us.push_back(seconds_since(start) * 1e6);
      asm volatile("" : : "g"(digest));
    }
  }
  ProbeInput input;
  input.vendor = &service->vendor();
  input.licenses = service->licenses();
  input.renewed = service->renewed();
  input.requesters_per_license = spec.clients_per_license;
  input.warm_rounds = std::min<std::uint64_t>(
      std::min<std::uint64_t>(service->rounds(), 64),
      std::max<std::uint64_t>(1, 200'000 / spec.clients));
  input.renewals_per_drain = service->max_clients_per_shard();
  input.groups_per_drain = std::max<std::size_t>(
      1, service->max_clients_per_shard() / spec.clients_per_license);
  input.seed = options.seed;
  const ProbeResults probe = run_probes(input);
  result.violations.insert(result.violations.end(), probe.violations.begin(),
                           probe.violations.end());

  const double renewals = traced.renewals();
  if (renewals <= 0.0 || traced_totals.attempted == 0) {
    result.violations.push_back("the traced windows processed no renewal");
    return result;
  }
  const auto per_call = [&](SpanKind kind) {
    const Tracer::Totals& t = tracer.totals(kind);
    return ratio(static_cast<double>(t.total_ns), static_cast<double>(t.count));
  };
  const double max_processed =
      *std::max_element(traced.processed.begin(), traced.processed.end());
  const double submit_ns =
      static_cast<double>(tracer.totals(SpanKind::kSubmit).total_ns);
  const double drain_ns =
      static_cast<double>(tracer.totals(SpanKind::kDrain).total_ns);
  // Shard workers drain in parallel on the threads backend, so a drain span
  // offers shard-count times its wall time of work.
  const double parallel = spec.backend == sl::core::Backend::kThreads
                              ? static_cast<double>(spec.shards)
                              : 1.0;
  const double offered = submit_ns + drain_ns * parallel;
  const double est_renew = probe.renew_ns * renewals;
  const double est_commit = probe.commit_ns * traced.batches;
  const double est_journal =
      (probe.serialize_ns + probe.append_ns) * traced.appends +
      probe.sync_ns * traced.syncs;
  const double est_replication = probe.verify_ns * traced.shipped_appends;
  const double explained =
      est_renew + est_commit + est_journal + est_replication;
  double replayed = 0.0;
  std::size_t recoveries = 0;
  for (const FaultRecord& fault : service->faults()) {
    if (fault.failover) continue;
    replayed += static_cast<double>(fault.records_replayed);
    recoveries++;
  }

  const std::string spans = format(
      "mean of %llu traced requests",
      static_cast<unsigned long long>(tracer.totals(SpanKind::kEncode).count));
  const std::string counted = format("count over %.0f renewals in %d traced "
                                     "windows",
                                     renewals, kTriplets);
  const std::string probed = "probe: median of batches at the final state";
  result.metrics = {
      {"wire.encode_ns", per_call(SpanKind::kEncode), "ns", spans},
      {"wire.parse_ns", per_call(SpanKind::kParse), "ns", spans},
      {"wire.respond_ns", per_call(SpanKind::kRespond), "ns",
       format("mean of %llu traced answers",
              static_cast<unsigned long long>(
                  tracer.totals(SpanKind::kRespond).count))},
      {"wire.request_bytes",
       ratio(static_cast<double>(traced_totals.request_bytes),
             static_cast<double>(traced_totals.attempted)),
       "bytes", counted},
      {"scheduler.submit_ns", per_call(SpanKind::kSubmit), "ns", spans},
      {"scheduler.drain_ns", ratio(drain_ns, renewals), "ns",
       format("%llu drain spans / renewals drained",
              static_cast<unsigned long long>(
                  tracer.totals(SpanKind::kDrain).count))},
      {"scheduler.shard_skew",
       ratio(max_processed,
             renewals / static_cast<double>(traced.processed.size())),
       "ratio", "max / mean ShardStats.processed, " + counted},
      {"remote_shard.renewals_per_group", ratio(renewals, traced.batches),
       "count", counted},
      {"remote_shard.digest_us", median(digest_us), "us",
       format("median of %zu RemoteShard::state_digest() between rounds",
              digest_us.size())},
      {"remote_shard.vcycles_per_renewal", ratio(traced.cycles, renewals),
       "cycles", counted + " (cost model, not wall time)"},
      {"remote_shard.unattributed_pct",
       100.0 * ratio(offered - explained, offered), "%",
       "share of submit + drain span time the probe x count estimates leave"},
      {"sl_remote.renew_ns", probe.renew_ns, "ns", probed},
      {"lease_tree.commits_per_renewal", ratio(traced.tree_commits, renewals),
       "count", "registry sl_lease_tree_commits_total, " + counted},
      {"lease_tree.commit_ns", probe.commit_ns, "ns", probed},
      {"durability.record_bytes", ratio(traced.append_bytes, traced.appends),
       "bytes", "journal bytes / appends, " + counted},
      {"durability.serialize_ns", probe.serialize_ns, "ns",
       format("%s; intent %.0f ns (%zu B), batch %.0f ns (%zu B)",
              probed.c_str(), probe.serialize_intent_ns, probe.intent_bytes,
              probe.serialize_batch_ns, probe.batch_bytes)},
      {"storage.appends_per_renewal", ratio(traced.appends, renewals), "count",
       counted},
      {"storage.bytes_per_renewal", ratio(traced.append_bytes, renewals),
       "bytes", counted},
      {"storage.syncs_per_renewal", ratio(traced.syncs, renewals), "count",
       counted},
      {"storage.checkpoints_per_1k",
       1000.0 * ratio(traced.checkpoints, renewals), "count", counted},
      {"storage.append_ns", probe.append_ns, "ns",
       format("%s; %zu B records", probed.c_str(), probe.record_bytes)},
      {"storage.sync_ns", probe.sync_ns, "ns",
       format("%s; after %zu appends", probed.c_str(),
              input.renewals_per_drain + 1)},
      {"storage.replayed_records",
       ratio(replayed, static_cast<double>(recoveries)), "count",
       format("mean RecoveryReport.records_replayed of %zu recoveries",
              recoveries)},
      {"replication.bytes_per_renewal", ratio(traced.shipped_bytes, renewals),
       "bytes", counted},
      {"replication.acks_per_renewal", ratio(traced.acks, renewals), "count",
       counted},
      {"replication.verify_ns", probe.verify_ns, "ns",
       format("%s; %zu B delta", probed.c_str(), probe.delta_bytes)},
      {"crypto.aes_key_ns", probe.aes_key_ns, "ns", probed},
      {"crypto.aes_block_ns", probe.aes_block_ns, "ns", probed},
      {"crypto.sha256_kb_ns", probe.sha256_kb_ns, "ns", probed},
      {"obs.overhead_pct", obs_compiled ? median(obs_overhead) : 0.0, "%",
       format("median of %d obs-off vs obs-on window pairs", kTriplets)},
      {"trace.overhead_pct", median(trace_overhead), "%",
       format("median of %d untraced vs traced window pairs", kTriplets)},
  };
  if (!obs_compiled) {
    // Registry-derived numbers cannot exist in this build; never report 0.
    const char* reason =
        "SL_OBS_ENABLED=0: the metrics registry is compiled out";
    for (const char* name :
         {"lease_tree.commits_per_renewal", "obs.overhead_pct"}) {
      std::erase_if(result.metrics,
                    [&](const Metric& m) { return m.name == name; });
      result.absent.emplace_back(name, reason);
    }
  }
  result.notes.push_back(format(
      "stage estimates, ms over the traced windows: renew %.1f, tree commit "
      "%.1f, journal %.1f, replication verify %.1f; offered: submit %.1f + "
      "drain %.1f x %.0f shard(s)",
      est_renew * 1e-6, est_commit * 1e-6, est_journal * 1e-6,
      est_replication * 1e-6, submit_ns * 1e-6, drain_ns * 1e-6, parallel));
  for (std::size_t k = 0; k < kSpanKinds; ++k) {
    const SpanKind kind = static_cast<SpanKind>(k);
    const Tracer::Totals& t = tracer.totals(kind);
    if (t.count == 0) continue;
    result.notes.push_back(
        format("span %-24s count %9llu  total %10.2f ms  self %10.2f ms",
               span_name(kind), static_cast<unsigned long long>(t.count),
               static_cast<double>(t.total_ns) * 1e-6,
               static_cast<double>(t.self_ns) * 1e-6));
  }
  if (!spec.journaled) {
    result.notes.push_back(
        "durability, storage and replication counts are 0: this workload "
        "keeps no journal; their probes time the layer on this workload's "
        "record shapes");
  }
  if (spec.fault_every == 0) {
    result.notes.push_back(
        "storage.replayed_records is 0: no crash/recover on this workload");
  }
  add_fault_metrics(*service, 0, result);

  check_frames(all_totals, result);
  check_state(*service, result);
  service.reset();
  check_backends(options, result);
  return result;
}

// --- Output -------------------------------------------------------------------

std::string json_string(const std::string& text) {
  std::string out = "\"";
  out += sl::obs::escape_json(text);
  out += '"';
  return out;
}

std::string json_number(double value) { return format("%.17g", value); }

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string provenance_json(const Options& options) {
  return format(
      "{\"seed\": %llu, \"nproc\": %u, \"compiler\": %s, \"build_type\": %s, "
      "\"SL_OBS_ENABLED\": %d, \"commit\": %s}",
      static_cast<unsigned long long>(options.seed),
      std::thread::hardware_concurrency(), json_string(compiler()).c_str(),
      json_string(RENEWBENCH_BUILD_TYPE).c_str(), SL_OBS_ENABLED,
      json_string(options.commit).c_str());
}

void print_metric(const Metric& m) {
  std::printf("  %-34s %16.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), m.samples.c_str());
}

std::string metrics_json(const std::vector<Metric>& metrics, bool samples) {
  std::string out = "{";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    out += (i == 0 ? "" : ", ") + json_string(m.name) +
           ": {\"value\": " + json_number(m.value) +
           ", \"unit\": " + json_string(m.unit);
    if (samples) out += ", \"samples\": " + json_string(m.samples);
    out += "}";
  }
  return out + "}";
}

std::string string_list_json(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i == 0 ? "" : ", ") + json_string(items[i]);
  }
  return out + "]";
}

// The full record of a run next to the result line: provenance, sample
// counts, absent metrics, notes and checks.
void write_results(const Options& options, const Result& result) {
  std::error_code error;
  std::filesystem::create_directories(options.out_dir, error);
  const std::string path = format(
      "%s/results-%s-seed%llu-trace%d.json", options.out_dir.c_str(),
      options.workload.c_str(), static_cast<unsigned long long>(options.seed),
      options.trace ? 1 : 0);
  std::string absent = "{";
  for (std::size_t i = 0; i < result.absent.size(); ++i) {
    absent += (i == 0 ? "" : ", ") + json_string(result.absent[i].first) +
              ": " + json_string(result.absent[i].second);
  }
  absent += "}";
  std::string slices = "{";
  for (std::size_t i = 0; i < result.slices.size(); ++i) {
    slices += (i == 0 ? "" : ", ") + json_string(result.slices[i].first) + ": [";
    const std::vector<double>& values = result.slices[i].second;
    for (std::size_t v = 0; v < values.size(); ++v) {
      slices += (v == 0 ? "" : ", ") + json_number(values[v]);
    }
    slices += "]";
  }
  slices += "}";
  const std::string body =
      "{\n  \"workload\": " + json_string(options.workload) +
      ",\n  \"seconds\": " + json_number(options.seconds) +
      ",\n  \"trace\": " + (options.trace ? "1" : "0") +
      ",\n  \"provenance\": " + provenance_json(options) +
      ",\n  \"attempted\": " + std::to_string(result.attempted) +
      ",\n  \"failed\": " + std::to_string(result.failed) +
      ",\n  \"metrics\": " + metrics_json(result.metrics, true) +
      ",\n  \"extra\": " + metrics_json(result.extra, true) +
      ",\n  \"slices\": " + slices + ",\n  \"absent\": " + absent +
      ",\n  \"notes\": " + string_list_json(result.notes) +
      ",\n  \"checks\": " + string_list_json(result.checks) +
      ",\n  \"violations\": " + string_list_json(result.violations) + "\n}\n";
  std::FILE* file = std::fopen(path.c_str(), "w");
  const bool written = file != nullptr && std::fputs(body.c_str(), file) >= 0;
  if (file == nullptr || std::fclose(file) != 0 || !written) {
    std::fprintf(stderr, "renewbench: could not write %s\n", path.c_str());
    return;
  }
  std::printf("results: %s\n", path.c_str());
}

std::optional<Options> parse_args(int argc, char** argv) {
  if (argc % 2 == 0) return std::nullopt;  // every flag takes a value
  Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      if (value.empty() || *end != '\0') return std::nullopt;
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (value.empty() || *end != '\0' ||
          !(options.seconds > 0.0 && options.seconds <= 600.0)) {
        return std::nullopt;
      }
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      options.trace = value == "1";
    } else if (flag == "--commit") {
      options.commit = value;
    } else if (flag == "--out") {
      options.out_dir = value;
    } else {
      return std::nullopt;
    }
  }
  if (options.workload.empty()) return std::nullopt;
  return options;
}

int run(int argc, char** argv) {
  const std::optional<Options> parsed = parse_args(argc, argv);
  if (!parsed.has_value()) {
    std::fprintf(stderr,
                 "usage: renewbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--commit SHA] [--out DIR]\n");
    return 2;
  }
  const Options& options = *parsed;
  const WorkloadSpec* spec = find_workload(options.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "renewbench: unknown workload '%s'\n",
                 options.workload.c_str());
    return 2;
  }
  std::printf("renewbench %s, trace %d, %g s: %s\n", spec->name,
              options.trace ? 1 : 0, options.seconds,
              provenance_json(options).c_str());
  std::fflush(stdout);

  Result result;
  if (options.trace) {
    Tracer tracer(Clock::now(), kSpanSampleEvery, kSpanCapacity);
    result = measure_layers(*spec, options, tracer);
    std::error_code error;
    std::filesystem::create_directories(options.out_dir, error);
    const std::string path =
        format("%s/spans-%s-seed%llu.jsonl", options.out_dir.c_str(),
               spec->name, static_cast<unsigned long long>(options.seed));
    if (tracer.write_jsonl(path)) {
      std::printf("spans: %s (%zu kept: round-level spans and 1 request in "
                  "%llu; %llu dropped)\n",
                  path.c_str(), tracer.stored(),
                  static_cast<unsigned long long>(kSpanSampleEvery),
                  static_cast<unsigned long long>(tracer.dropped()));
    } else {
      std::fprintf(stderr, "renewbench: could not write %s\n", path.c_str());
    }
  } else {
    result = measure_end_to_end(*spec, options);
  }

  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.violations.push_back(m.name + " is not a finite number");
    }
  }
  for (const Metric& m : result.metrics) print_metric(m);
  for (const Metric& m : result.extra) print_metric(m);
  for (const auto& [name, reason] : result.absent) {
    std::printf("  %-34s %16s        absent: %s\n", name.c_str(), "-",
                reason.c_str());
  }
  for (const std::string& note : result.notes) {
    std::printf("  %s\n", note.c_str());
  }
  for (const std::string& check : result.checks) {
    std::printf("  check ok: %s\n", check.c_str());
  }
  write_results(options, result);
  if (!result.violations.empty()) {
    for (const std::string& violation : result.violations) {
      std::fprintf(stderr, "renewbench: correctness check failed: %s\n",
                   violation.c_str());
    }
    return 1;
  }
  std::printf(
      "{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": %s}\n",
      static_cast<unsigned long long>(result.attempted),
      static_cast<unsigned long long>(result.failed),
      metrics_json(result.metrics, false).c_str());
  return 0;
}

}  // namespace
}  // namespace renewbench

int main(int argc, char** argv) {
  try {
    return renewbench::run(argc, argv);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "renewbench: %s\n", error.what());
    return 1;
  }
}
