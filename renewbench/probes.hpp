// Probes: one layer's public function timed in isolation, on objects the
// benchmark owns and sizes like a workload's final state. Each result is
// the median over batches of the mean time per call within a batch.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "lease/license.hpp"

namespace renewbench {

struct ProbeInput {
  const sl::lease::LicenseAuthority* vendor = nullptr;  // signed the licenses
  std::vector<sl::lease::LicenseFile> licenses;         // every provisioned one
  std::vector<sl::lease::LicenseFile> renewed;          // the ones clients renew
  std::size_t requesters_per_license = 1;
  std::uint64_t warm_rounds = 1;       // renewals per requester before timing
  std::size_t renewals_per_drain = 1;  // one shard's requests in one round
  std::size_t groups_per_drain = 1;    // one shard's license groups in one round
  std::uint64_t seed = 1;
};

struct ProbeResults {
  double renew_ns = 0.0;             // SlRemote::renew
  double commit_ns = 0.0;            // LeaseTree::commit_lease, one dirty leaf
  double serialize_intent_ns = 0.0;  // WalRecord::serialize_into
  double serialize_batch_ns = 0.0;
  double serialize_ns = 0.0;         // per record of one drain's record mix
  std::size_t intent_bytes = 0;
  std::size_t batch_bytes = 0;
  std::size_t record_bytes = 0;      // mean payload of one drain's record mix
  double append_ns = 0.0;            // Journal::append of record_bytes
  double sync_ns = 0.0;              // Journal::sync after one drain's appends
  std::size_t delta_bytes = 0;       // one drain's sealed journal frames
  double verify_ns = 0.0;            // verify_chain_extension over that delta
  double aes_key_ns = 0.0;           // Aes128 key schedule
  double aes_block_ns = 0.0;         // Aes128::encrypt_block
  double sha256_kb_ns = 0.0;         // Sha256::hash, per KiB
  // A probe whose own output was wrong (its timing would mean nothing).
  std::vector<std::string> violations;
};

ProbeResults run_probes(const ProbeInput& input);

}  // namespace renewbench
