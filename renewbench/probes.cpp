#include "probes.hpp"

#include <algorithm>
#include <chrono>
#include <optional>

#include "common/rng.hpp"
#include "crypto/aes128.hpp"
#include "crypto/sha256.hpp"
#include "lease/durability.hpp"
#include "lease/lease_tree.hpp"
#include "lease/sl_local.hpp"
#include "lease/sl_remote.hpp"
#include "sgxsim/attestation.hpp"
#include "storage/journal.hpp"

namespace renewbench {

using sl::lease::LicenseFile;
using sl::lease::WalRecord;
using Clock = std::chrono::steady_clock;

namespace {

constexpr int kBatches = 15;

// Makes `value` observable, so the optimizer cannot drop the call that
// produced it.
void keep(const void* value) { asm volatile("" : : "g"(value) : "memory"); }

double ns_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::nano>(end - start).count();
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

// Median over kBatches of the mean ns per call of `call(batch, i)`, i in
// [0, calls); `prepare(batch)` runs untimed before each batch.
template <typename Prepare, typename Call>
double time_calls(std::size_t calls, Prepare&& prepare, Call&& call) {
  std::vector<double> per_call;
  for (int batch = 0; batch < kBatches; ++batch) {
    prepare(batch);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < calls; ++i) call(batch, i);
    per_call.push_back(ns_between(start, Clock::now()) /
                       static_cast<double>(calls));
  }
  return median(std::move(per_call));
}

constexpr auto kNoPrepare = [](int) {};

// License check + Algorithm 1 for the workload's requesters, after as many
// renewal rounds as the workload ran (capped), so pools sit where the
// workload left them. Consumption reports happen untimed between batches.
double probe_renew(const ProbeInput& in) {
  sl::sgx::AttestationService ias;
  sl::lease::SlRemote remote(*in.vendor, ias,
                             sl::lease::SlLocal::expected_measurement());
  struct Requester {
    sl::lease::Slid slid = 0;
    const LicenseFile* license = nullptr;
    double health = 1.0;
    double network = 1.0;
    std::uint64_t grant = 0;
  };
  sl::Rng rng(sl::splitmix64_key(3, in.seed));
  std::vector<Requester> requesters;
  for (const LicenseFile& license : in.licenses) remote.provision(license);
  for (const LicenseFile& license : in.renewed) {
    for (std::size_t k = 0; k < in.requesters_per_license; ++k) {
      Requester requester;
      requester.license = &license;
      requester.health = 0.85 + 0.15 * rng.next_double();
      requester.network = 0.7 + 0.3 * rng.next_double();
      requester.slid =
          remote.register_peer(requester.health, requester.network);
      requesters.push_back(requester);
    }
  }
  const auto report = [&] {
    for (Requester& r : requesters) {
      if (r.grant > 0) {
        remote.report_consumed(r.slid, r.license->lease_id, r.grant);
      }
      r.grant = 0;
    }
  };
  const auto renew = [&](Requester& r) {
    const sl::lease::SlRemote::RenewResult result =
        remote.renew(r.slid, *r.license, r.health, r.network);
    r.grant += result.granted;
  };
  for (std::uint64_t w = 0; w < in.warm_rounds; ++w) {
    report();
    for (Requester& r : requesters) renew(r);
  }
  const std::size_t calls =
      requesters.size() * std::max<std::size_t>(1, 4096 / requesters.size());
  return time_calls(
      calls, [&](int) { report(); },
      [&](int, std::size_t i) { renew(requesters[i % requesters.size()]); });
}

// Re-seal of one dirty leaf in a cache-mode tree holding every license,
// the commit each renewal group's drain pays.
double probe_commit(const ProbeInput& in, std::vector<std::string>& violations) {
  sl::lease::UntrustedStore store;
  const auto arenas = sl::lease::LeaseTree::make_arenas();
  sl::lease::LeaseTree tree(in.seed | 1, store, arenas.get());
  tree.set_cache_commits(true);
  for (const LicenseFile& license : in.licenses) {
    tree.insert(license.lease_id,
                sl::lease::Gcl(sl::lease::LeaseKind::kCountBased,
                               license.total_count));
    tree.commit_lease(license.lease_id);
  }
  const std::size_t calls = std::min<std::size_t>(in.licenses.size(), 1024);
  const auto lease_at = [&](int batch, std::size_t i) {
    return in.licenses[(static_cast<std::size_t>(batch) * calls + i) %
                       in.licenses.size()]
        .lease_id;
  };
  std::uint64_t pool = 0;
  bool ok = true;
  const double ns = time_calls(
      calls,
      [&](int batch) {
        for (std::size_t i = 0; i < calls; ++i) {
          sl::lease::LeaseRecord* record = tree.find(lease_at(batch, i));
          if (record == nullptr) {
            ok = false;
            continue;
          }
          record->set_gcl(
              sl::lease::Gcl(sl::lease::LeaseKind::kCountBased, ++pool));
          tree.mark_dirty(lease_at(batch, i));
        }
      },
      [&](int batch, std::size_t i) {
        ok = tree.commit_lease(lease_at(batch, i)) && ok;
      });
  if (!ok) violations.push_back("lease_tree probe: a leaf failed to commit");
  return ns;
}

// The intent an enqueue appends (router traffic carries no request id).
WalRecord intent_record(const ProbeInput& in) {
  WalRecord record;
  record.type = sl::lease::WalRecordType::kIntent;
  record.post_digest = 0x0123456789abcdefULL;
  record.lease = in.licenses.front().lease_id;
  record.ticket = 1'000'000;
  record.slid = 1000;
  record.consumed = 1 << 20;
  return record;
}

// One drain's v2 batch record: every license group of one shard's round.
WalRecord batch_record(const ProbeInput& in) {
  WalRecord record;
  record.type = sl::lease::WalRecordType::kRenewBatch;
  record.post_digest = 0x0123456789abcdefULL;
  const std::size_t per_group =
      std::max<std::size_t>(1, in.renewals_per_drain / in.groups_per_drain);
  for (std::size_t g = 0; g < in.groups_per_drain; ++g) {
    sl::lease::WalRenewGroup group;
    group.lease = in.licenses[g % in.licenses.size()].lease_id;
    for (std::size_t e = 0; e < per_group; ++e) {
      sl::lease::WalRenewEntry entry;
      entry.slid = g * per_group + e + 1;
      entry.consumed = 1 << 20;
      entry.granted = 1 << 20;
      entry.health = 0.9;
      entry.network = 0.8;
      group.entries.push_back(entry);
    }
    record.groups.push_back(std::move(group));
  }
  return record;
}

}  // namespace

ProbeResults run_probes(const ProbeInput& in) {
  ProbeResults out;
  out.renew_ns = probe_renew(in);
  out.commit_ns = probe_commit(in, out.violations);

  // WAL records: an intent per renewal, then the drain's batch record.
  const WalRecord intent = intent_record(in);
  const WalRecord batch = batch_record(in);
  sl::Bytes scratch;
  out.serialize_intent_ns = time_calls(4096, kNoPrepare, [&](int, std::size_t) {
    intent.serialize_into(scratch);
    keep(scratch.data());
  });
  out.serialize_batch_ns = time_calls(
      std::max<std::size_t>(1, 4096 / in.renewals_per_drain), kNoPrepare,
      [&](int, std::size_t) {
        batch.serialize_into(scratch);
        keep(scratch.data());
      });
  const sl::Bytes intent_payload = intent.serialize();
  const sl::Bytes batch_payload = batch.serialize();
  const std::optional<WalRecord> parsed = WalRecord::deserialize(batch_payload);
  if (!parsed.has_value() || parsed->groups != batch.groups) {
    out.violations.push_back("durability probe: batch record did not round-trip");
  }
  out.intent_bytes = intent_payload.size();
  out.batch_bytes = batch_payload.size();
  const double records = static_cast<double>(in.renewals_per_drain + 1);
  out.serialize_ns = (static_cast<double>(in.renewals_per_drain) *
                          out.serialize_intent_ns +
                      out.serialize_batch_ns) /
                     records;
  out.record_bytes = static_cast<std::size_t>(
      (static_cast<double>(in.renewals_per_drain * out.intent_bytes +
                           out.batch_bytes)) /
      records);

  // Journal: one drain's appends of mean-size records, then its sync.
  sl::storage::JournalConfig config;
  config.master_key = sl::splitmix64_key(4, in.seed) | 1;
  sl::storage::Journal journal(config);
  const sl::Bytes genesis = WalRecord{}.serialize();
  const sl::Bytes payload(out.record_bytes, 0x5a);
  const std::size_t appends = in.renewals_per_drain + 1;
  std::vector<double> append_ns;
  std::vector<double> sync_ns;
  bool appended = true;
  for (int batch_index = 0; batch_index < kBatches; ++batch_index) {
    journal.reset(genesis);
    const Clock::time_point start = Clock::now();
    for (std::size_t i = 0; i < appends; ++i) {
      appended = journal.append(payload).has_value() && appended;
    }
    const Clock::time_point appended_at = Clock::now();
    journal.sync();
    const Clock::time_point synced_at = Clock::now();
    append_ns.push_back(ns_between(start, appended_at) /
                        static_cast<double>(appends));
    sync_ns.push_back(ns_between(appended_at, synced_at));
  }
  if (!appended) out.violations.push_back("storage probe: an append failed");
  out.append_ns = median(std::move(append_ns));
  out.sync_ns = median(std::move(sync_ns));

  // Replication: a follower verifies one drain's sealed frames against its
  // chain cursor before acking them.
  journal.reset(genesis);
  const std::uint64_t start_chain = journal.chain();
  const std::uint64_t start_seq = journal.next_seq() - 1;
  const std::uint64_t start_epoch = journal.epoch();
  const std::size_t before = journal.durable_bytes();
  for (std::size_t i = 0; i < in.renewals_per_drain; ++i) {
    journal.append(intent_payload);
  }
  journal.append(batch_payload);
  journal.sync();
  const sl::Bytes& image = journal.device().contents();
  const sl::ByteView delta(image.data() + before, image.size() - before);
  out.delta_bytes = delta.size();
  bool verified = true;
  out.verify_ns = time_calls(1, kNoPrepare, [&](int, std::size_t) {
    const sl::storage::ChainExtension extension =
        sl::storage::verify_chain_extension(config.master_key, start_chain,
                                            start_seq, start_epoch, delta);
    verified = extension.ok && extension.records.size() == appends && verified;
  });
  if (!verified) {
    out.violations.push_back("replication probe: the delta did not verify");
  }

  // Crypto under the tree seal and the journal seal.
  sl::crypto::AesKey key{};
  for (std::size_t i = 0; i < key.size(); ++i) {
    key[i] = static_cast<std::uint8_t>(i * 7 + in.seed);
  }
  out.aes_key_ns = time_calls(4096, kNoPrepare, [&](int, std::size_t i) {
    key[0] = static_cast<std::uint8_t>(i);
    const sl::crypto::Aes128 aes(key);
    keep(&aes);
  });
  const sl::crypto::Aes128 aes(key);
  sl::crypto::AesBlock block{};
  out.aes_block_ns = time_calls(4096, kNoPrepare, [&](int, std::size_t) {
    block = aes.encrypt_block(block);
    keep(block.data());
  });
  sl::Rng rng(sl::splitmix64_key(5, in.seed));
  sl::Bytes kib = rng.next_bytes(1024);
  out.sha256_kb_ns = time_calls(256, kNoPrepare, [&](int, std::size_t) {
    const sl::crypto::Sha256Digest digest = sl::crypto::Sha256::hash(kib);
    kib[0] = digest[0];
  });
  return out;
}

}  // namespace renewbench
