// Golden-fingerprint regression corpus: committed (spec, seed) -> archive
// fingerprint pairs for the canonical PMO2-over-photosynthesis workloads.
// The differential suites prove invariances (any thread count, any resume
// point); this corpus pins the ABSOLUTE answers, so a behavioral drift that
// shifts every configuration in lockstep — which no differential test can
// see — still fails loudly.
//
// The fingerprint is api::RunResult::fingerprint, the FNV-1a digest of the
// canonical archive (see api/run.hpp).  Every workload below is small enough
// for a fast ctest lane; the table spans two scenarios (past-low,
// present-high).
//
// Regenerating after an INTENTIONAL behavior change (e.g. a new solver
// default that legitimately moves cycle averages):
//
//     build/tests/integration_golden_fingerprint_test --gtest_also_run_disabled_tests \
//         --gtest_filter='*PrintCurrentTable*'
//
// then paste the printed rows over kGolden below, and say why in the commit
// message.  Goldens were generated with the Release (-O2) toolchain; the
// table must match in every build type — -ffp-contract drift would be a
// portability bug worth catching, not an excuse to fork the table.
#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <string>

#include "api/run.hpp"

namespace rmp::api {
namespace {

struct GoldenRow {
  const char* name;      // stable identifier, also the gtest failure label
  const char* scenario;  // photosynthesis scenario label
  std::uint64_t fingerprint;
};

RunSpec golden_spec(const GoldenRow& row) {
  RunSpec spec;
  spec.problem = std::string("photosynthesis?scenario=") + row.scenario +
                 "&pool=4096";
  spec.optimizer =
      "pmo2?islands=2&population=8&migration_interval=2&migrants=2";
  spec.generations = 5;
  spec.seed = 11;
  spec.threads = 2;
  spec.robustness.enabled = false;
  return spec;
}

// The committed corpus.
constexpr GoldenRow kGolden[] = {
    {"past-low/plain", "past-low", 0xa985cb891e82f523ULL},
    {"present-high/plain", "present-high", 0xf76ff3631708a765ULL},
};

TEST(GoldenFingerprintTest, ArchiveFingerprintsMatchCommittedTable) {
  for (const GoldenRow& row : kGolden) {
    const RunResult result = run(golden_spec(row));
    EXPECT_EQ(result.fingerprint, row.fingerprint) << row.name;
    EXPECT_GT(result.front.size(), 0u) << row.name;
  }
}

TEST(GoldenFingerprintTest, DISABLED_PrintCurrentTable) {
  for (const GoldenRow& row : kGolden) {
    const RunResult result = run(golden_spec(row));
    std::printf("    {\"%s\", \"%s\", 0x%016" PRIx64 "ULL},\n", row.name,
                row.scenario, result.fingerprint);
  }
}

}  // namespace
}  // namespace rmp::api
