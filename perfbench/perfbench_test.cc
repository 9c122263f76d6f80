// Tests of the benchmark's own code: the order statistics, the correctness
// gate and seed handling. Run with `python3 perfbench/run.py --self-test`.

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "stats.h"
#include "workloads.h"

namespace {

namespace fs = std::filesystem;
using namespace perfbench;

int g_failures = 0;

#define CHECK(cond)                                                      \
  do {                                                                   \
    if (!(cond)) {                                                       \
      std::fprintf(stderr, "%s:%d: CHECK failed: %s\n", __FILE__,        \
                   __LINE__, #cond);                                     \
      ++g_failures;                                                      \
    }                                                                    \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

void TestMedian() {
  CHECK(Median({}) == 0.0);
  CHECK(Median({7.0}) == 7.0);
  CHECK(Median({3.0, 1.0, 2.0}) == 2.0);
  CHECK(Median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void TestQuartiles() {
  // Expected values are Python's statistics.quantiles(v, n=4).
  auto q = Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(q && Near((*q)[0], 2.75) && Near((*q)[1], 5.5) && Near((*q)[2], 8.25));
  q = Quartiles({1, 2, 3, 4, 5});
  CHECK(q && Near((*q)[0], 1.5) && Near((*q)[1], 3.0) && Near((*q)[2], 4.5));
  q = Quartiles({3, 1});
  CHECK(q && Near((*q)[0], 0.5) && Near((*q)[1], 2.0) && Near((*q)[2], 3.5));
  q = Quartiles({5, 1, 4, 2, 3, 9.5});
  CHECK(q && Near((*q)[0], 1.75) && Near((*q)[1], 3.5) &&
        Near((*q)[2], 6.125));
  CHECK(!Quartiles({1.0}));
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);
  return v;
}

void TestPercentileNeedsTenSamplesBeyond() {
  CHECK(!Percentile(OneTo(19), 0.5));  // only 9 samples above the median
  CHECK(Percentile(OneTo(20), 0.5) == 10.0);
  CHECK(!Percentile(OneTo(99), 0.9));
  CHECK(Percentile(OneTo(100), 0.9) == 90.0);
  CHECK(!Percentile(OneTo(999), 0.99));
  CHECK(Percentile(OneTo(1000), 0.99) == 990.0);
  CHECK(MinSamplesFor(0.5) == 20);
  CHECK(MinSamplesFor(0.9) == 100);
  CHECK(!Percentile({}, 0.5));
}

void TestScheduleMix() {
  OpSchedule a(7), b(7), c(8);
  std::vector<OpKind> seq_a, seq_c;
  for (int block = 0; block < 10; ++block) {
    int counts[3] = {0, 0, 0};
    for (int i = 0; i < 10; ++i) {
      seq_a.push_back(a.Next());
      CHECK(b.Next() == seq_a.back());
      seq_c.push_back(c.Next());
      ++counts[static_cast<int>(seq_a.back())];
    }
    CHECK(counts[0] == 7 && counts[1] == 2 && counts[2] == 1);
  }
  CHECK(seq_a != seq_c);
  CHECK(MissSeed(42, 0, 0) != MissSeed(42, 1, 0));
  CHECK(MissSeed(42, 0, 1) != MissSeed(43, 0, 1));
  CHECK(MissSeed(~std::uint64_t{0}, 1, 99999) < 10'000'000'000ULL);
}

void TestGate(const std::string& dir) {
  const DiscoverySpec spec = *FindDiscoverySpec("lineitem");
  const std::string csv = dir + "/gate.csv";
  CHECK(WriteDiscoveryInput(spec, kDefaultSeed, csv).ok());
  auto ref = DiscoveryReference(spec, kDefaultSeed, csv);
  CHECK(ref.ok());
  if (!ref.ok()) return;
  CHECK(ref->counts && *ref->counts == spec.default_seed_counts);
  auto op = RunDiscoveryOp(csv, 2, false);
  CHECK(op.ok());
  if (!op.ok()) return;
  Counts counts;
  CHECK(PassesGate(op->json, *ref, &counts));
  CHECK(counts == spec.default_seed_counts);

  // A corrupted expected digest or count makes the op fail the gate.
  Expected bad_digest = *ref;
  bad_digest.digest ^= 1;
  CHECK(!PassesGate(op->json, bad_digest));
  Expected bad_counts = *ref;
  bad_counts.counts->checks += 1;
  CHECK(!PassesGate(op->json, bad_counts));
  bad_counts = *ref;
  bad_counts.counts->ods += 1;
  CHECK(!PassesGate(op->json, bad_counts));
  // So does a corrupted answer, or one that is not JSON at all.
  std::string tampered = op->json;
  const std::size_t at = tampered.find("\"ods\":[");
  CHECK(at != std::string::npos);
  tampered.replace(at, 7, "\"ods\":[{\"lhs\":[],\"rhs\":[]},");
  CHECK(!PassesGate(tampered, *ref));
  CHECK(!PassesGate(op->json.substr(0, op->json.size() / 2), *ref));
}

void TestSeeds(const std::string& dir) {
  const DiscoverySpec spec = *FindDiscoverySpec("lineitem");
  const std::string a = dir + "/a.csv";
  const std::string b = dir + "/b.csv";
  const std::string c = dir + "/c.csv";
  CHECK(WriteDiscoveryInput(spec, kDefaultSeed, a).ok());
  CHECK(WriteDiscoveryInput(spec, kDefaultSeed, b).ok());
  CHECK(WriteDiscoveryInput(spec, kDefaultSeed + 1, c).ok());
  CHECK(ReadFile(a) == ReadFile(b));
  CHECK(ReadFile(a) != ReadFile(c));

  // A second seed still passes the gate (its reference has no fixed
  // counts; its answer must match the one-thread run exactly).
  auto ref = DiscoveryReference(spec, kDefaultSeed + 1, c);
  CHECK(ref.ok() && !ref->counts);
  auto op = RunDiscoveryOp(c, 4, false);
  CHECK(ref.ok() && op.ok() && PassesGate(op->json, *ref));

  const DiscoverySpec lattice = *FindDiscoverySpec("lattice");
  const std::string l1 = dir + "/l1.csv";
  const std::string l2 = dir + "/l2.csv";
  CHECK(WriteDiscoveryInput(lattice, 7, l1).ok());
  CHECK(WriteDiscoveryInput(lattice, 7, l2).ok());
  CHECK(ReadFile(l1) == ReadFile(l2));

  // Serve mix inputs are byte-identical for one seed and differ across.
  auto s1 = WriteServeInputs(kDefaultSeed, dir + "/s1");
  auto s2 = WriteServeInputs(kDefaultSeed, dir + "/s2");
  auto s3 = WriteServeInputs(kDefaultSeed + 1, dir + "/s3");
  CHECK(s1.ok() && s2.ok() && s3.ok());
  if (s1.ok() && s2.ok() && s3.ok()) {
    for (std::size_t i = 0; i < s1->hit_csvs.size(); ++i) {
      CHECK(ReadFile(s1->hit_csvs[i]) == ReadFile(s2->hit_csvs[i]));
      CHECK(ReadFile(s1->hit_csvs[i]) != ReadFile(s3->hit_csvs[i]));
    }
    for (std::size_t i = 0; i < s1->base_csvs.size(); ++i) {
      CHECK(ReadFile(s1->base_csvs[i]) == ReadFile(s2->base_csvs[i]));
      CHECK(ReadFile(s1->base_csvs[i]) != ReadFile(s3->base_csvs[i]));
    }
  }
  const ocdd::rel::Relation pool = AppendPool(kDefaultSeed, 0);
  std::size_t next1 = 0, next2 = 0;
  const auto b1 = MakeApplyBatch(99, 1000, pool, &next1);
  const auto b2 = MakeApplyBatch(99, 1000, pool, &next2);
  CHECK(b1.deletes == b2.deletes && b1.deletes.size() == 3);
  CHECK(b1.appends.size() == 3 && next1 == 3);
}

}  // namespace

int main() {
  const std::string dir =
      (fs::temp_directory_path() /
       ("perfbench_test_" + std::to_string(::getpid())))
          .string();
  fs::create_directories(dir);
  TestMedian();
  TestQuartiles();
  TestPercentileNeedsTenSamplesBeyond();
  TestScheduleMix();
  TestGate(dir);
  TestSeeds(dir);
  fs::remove_all(dir);
  if (g_failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("perfbench_test: all checks passed\n");
  return 0;
}
