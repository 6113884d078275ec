#include <gtest/gtest.h>

#include <atomic>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "connector/remote_text_source.h"
#include "core/executor.h"
#include "core/join_methods.h"
#include "sql/federation_service.h"
#include "tests/test_util.h"
#include "workload/university.h"

/// \file
/// The concurrency contract (DESIGN.md, "Concurrency model"): parallel
/// execution yields byte-identical rows AND meter totals to serial
/// execution, and one FederationService serves many threads at once. Run
/// this file under TEXTJOIN_SANITIZE=thread after any change to the
/// parallel paths.

namespace textjoin {
namespace {

using textjoin::testing::MakeSmallEngine;
using textjoin::testing::MakeStudentTable;
using textjoin::testing::MercuryDecl;

std::vector<std::string> RenderRows(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

TEST(ThreadPoolTest, ParallelForCoversEveryIndexExactlyOnce) {
  ThreadPool pool(3);
  for (size_t n : {0u, 1u, 2u, 7u, 100u, 1000u}) {
    std::vector<std::atomic<int>> hits(n);
    ParallelFor(&pool, n, [&](size_t i) { ++hits[i]; });
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "n=" << n << " i=" << i;
    }
  }
}

TEST(ThreadPoolTest, NestedLoopsOnOneSharedPoolMakeProgress) {
  // Inner loops reuse the same pool the outer loop runs on; caller
  // participation guarantees progress even when every helper is busy.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  ParallelFor(&pool, 8, [&](size_t) {
    ParallelFor(&pool, 8, [&](size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 64);
}

TEST(ThreadPoolTest, NullPoolRunsSerially) {
  std::vector<int> order;
  ParallelFor(nullptr, 5, [&](size_t i) { order.push_back(static_cast<int>(i)); });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

/// Every join method, executed serially and with a pool, must produce the
/// same rows in the same order and charge the exact same meter.
TEST(ParallelByteIdentityTest, AllMethodsMatchSerialExecution) {
  auto engine = MakeSmallEngine();
  auto table = MakeStudentTable();

  ForeignJoinSpec spec;
  spec.left_schema = table->schema();
  spec.text = MercuryDecl();
  spec.selections = {{"belief", "title"}};
  spec.joins = {{"student.name", "author"}, {"student.advisor", "author"}};

  ForeignJoinSpec sj_spec = spec;  // SJ: doc-side semi-join only.
  sj_spec.left_columns_needed = false;
  sj_spec.need_document_fields = false;

  const std::vector<std::tuple<JoinMethodKind, PredicateMask,
                               const ForeignJoinSpec*>>
      cases = {
          {JoinMethodKind::kTS, 0, &spec},
          {JoinMethodKind::kRTP, 0, &spec},
          {JoinMethodKind::kSJ, 0, &sj_spec},
          {JoinMethodKind::kSJRTP, 0, &spec},
          {JoinMethodKind::kPTS, 0b01, &spec},
          {JoinMethodKind::kPTS, 0b10, &spec},
          {JoinMethodKind::kPRTP, 0b01, &spec},
          {JoinMethodKind::kPRTP, 0b11, &spec},
      };
  ThreadPool pool(7);
  for (const auto& [method, mask, case_spec] : cases) {
    RemoteTextSource serial_source(engine.get());
    auto serial = ExecuteForeignJoin(method, *case_spec, table->rows(),
                                     serial_source, mask, nullptr);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();

    RemoteTextSource parallel_source(engine.get());
    auto parallel = ExecuteForeignJoin(method, *case_spec, table->rows(),
                                       parallel_source, mask, &pool);
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

    EXPECT_EQ(RenderRows(serial->rows), RenderRows(parallel->rows))
        << JoinMethodName(method) << " mask=" << mask;
    EXPECT_EQ(serial_source.meter(), parallel_source.meter())
        << JoinMethodName(method) << " mask=" << mask << " serial="
        << serial_source.meter().ToString()
        << " parallel=" << parallel_source.meter().ToString();
  }
}

class ServiceStressTest : public ::testing::Test {
 protected:
  ServiceStressTest() {
    UniversityConfig config;
    config.num_students = 60;
    config.num_faculty = 12;
    config.num_projects = 10;
    config.num_documents = 400;
    auto built = BuildUniversity(config);
    TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
    workload_ = std::move(*built);
  }

  FederationService::Options Options(int parallelism) const {
    FederationService::Options options;
    options.text = workload_.text;
    options.parallelism = parallelism;
    return options;
  }

  UniversityWorkload workload_;
};

const char* const kStressQueries[] = {
    "select student.name, mercury.docid from student, mercury "
    "where student.year > 2 and student.name in mercury.author",
    "select distinct student.name from student, mercury "
    "where student.advisor in mercury.author "
    "and student.name in mercury.author order by student.name",
    "select student.name from student, faculty "
    "where student.advisor = faculty.name and faculty.dept = 'ai'",
    "select count(*) from student, mercury "
    "where student.name in mercury.author",
};

/// N queries from M threads against ONE service: every outcome must equal
/// the serial ground truth — rows byte-for-byte, meter delta byte-for-byte
/// — and the cumulative meter must equal the exact sum of the deltas.
TEST_F(ServiceStressTest, ConcurrentRunsMatchSerialGroundTruth) {
  constexpr int kThreads = 8;
  constexpr int kRounds = 3;
  const size_t num_queries = std::size(kStressQueries);

  // Serial ground truth, one fresh service at parallelism 1.
  std::vector<std::vector<std::string>> expected_rows(num_queries);
  std::vector<AccessMeter> expected_delta(num_queries);
  {
    FederationService serial(workload_.catalog.get(), workload_.engine.get(),
                             Options(1));
    for (size_t q = 0; q < num_queries; ++q) {
      auto outcome = serial.Run(kStressQueries[q]);
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      expected_rows[q] = RenderRows(outcome->rows.rows);
      expected_delta[q] = outcome->meter_delta;
    }
  }

  FederationService service(workload_.catalog.get(), workload_.engine.get(),
                            Options(4));
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < kRounds; ++round) {
        // Stagger the starting query per thread so different queries
        // overlap in flight.
        for (size_t i = 0; i < num_queries; ++i) {
          const size_t q = (static_cast<size_t>(t) + i) % num_queries;
          auto outcome = service.Run(kStressQueries[q]);
          if (!outcome.ok() ||
              RenderRows(outcome->rows.rows) != expected_rows[q] ||
              !(outcome->meter_delta == expected_delta[q])) {
            ++mismatches;
          }
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);

  AccessMeter total;
  for (int i = 0; i < kThreads * kRounds; ++i) {
    for (size_t q = 0; q < num_queries; ++q) total += expected_delta[q];
  }
  EXPECT_EQ(service.meter(), total)
      << "cumulative=" << service.meter().ToString()
      << " expected=" << total.ToString();
}

/// Same service, sampling-mode statistics: concurrent first queries race to
/// acquire stats; the registry lock must keep acquisition single-shot and
/// answers right.
TEST_F(ServiceStressTest, SamplingModeSurvivesConcurrentFirstQueries) {
  auto options = Options(2);
  options.oracle_stats = false;
  options.sample_size = 5;
  FederationService service(workload_.catalog.get(), workload_.engine.get(),
                            options);

  std::vector<std::vector<std::string>> results(6);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < results.size(); ++t) {
    threads.emplace_back([&, t] {
      auto outcome = service.Run(kStressQueries[0]);
      if (outcome.ok()) results[t] = RenderRows(outcome->rows.rows);
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 1; t < results.size(); ++t) {
    EXPECT_EQ(results[t], results[0]) << "thread " << t;
  }
  // Amortization still holds under the race: one more run adds nothing.
  const AccessMeter stats_before = service.stats_meter();
  ASSERT_TRUE(service.Run(kStressQueries[0]).ok());
  EXPECT_EQ(service.stats_meter(), stats_before);
}

/// More distinct texts than the plan cache holds, run from several threads
/// at once: hits, misses, stale re-plans and evictions race on one cache.
/// Every outcome must equal a serial service's, and the cache must never
/// grow past its bound.
TEST_F(ServiceStressTest, PlanCacheEvictionsRaceHits) {
  constexpr int kThreads = 4;
  const size_t num_texts = FederationService::kPlanCacheEntries + 64;
  const auto sql = [](size_t n) {
    return "select student.name from student where student.year > 1 and "
           "student.year < " +
           std::to_string(n);
  };
  std::vector<std::vector<std::string>> expected(num_texts);
  {
    FederationService serial(workload_.catalog.get(), workload_.engine.get(),
                             Options(1));
    for (size_t n = 0; n < num_texts; ++n) {
      auto outcome = serial.Run(sql(n));
      ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
      expected[n] = RenderRows(outcome->rows.rows);
    }
  }

  FederationService service(workload_.catalog.get(), workload_.engine.get(),
                            Options(1));
  std::atomic<int> mismatches{0};
  std::atomic<size_t> max_size{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < num_texts; ++i) {
        const size_t n = (static_cast<size_t>(t) * 97 + i) % num_texts;
        auto outcome = service.Run(sql(n));
        if (!outcome.ok() || RenderRows(outcome->rows.rows) != expected[n]) {
          ++mismatches;
        }
        const size_t size = service.plan_cache_size();
        size_t seen = max_size.load();
        while (size > seen && !max_size.compare_exchange_weak(seen, size)) {
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(max_size.load(), FederationService::kPlanCacheEntries);
  EXPECT_EQ(service.plan_cache_size(), FederationService::kPlanCacheEntries);
}

}  // namespace
}  // namespace textjoin
