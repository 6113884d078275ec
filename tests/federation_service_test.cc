#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <vector>

#include "core/executor.h"
#include "sql/federation_service.h"
#include "sql/parser.h"
#include "workload/paper_queries.h"
#include "workload/university.h"

namespace textjoin {
namespace {

class FederationServiceTest : public ::testing::Test {
 protected:
  FederationServiceTest() {
    UniversityConfig config;
    config.num_students = 50;
    config.num_faculty = 10;
    config.num_projects = 8;
    config.num_documents = 300;
    auto built = BuildUniversity(config);
    TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
    workload_ = std::move(*built);
  }

  FederationService MakeService(FederationService::Options options =
                                    FederationService::Options{}) {
    options.text = workload_.text;
    return FederationService(workload_.catalog.get(), workload_.engine.get(),
                             std::move(options));
  }

  std::multiset<std::string> Reference(const std::string& sql) {
    auto query = ParseQuery(sql, workload_.text);
    TEXTJOIN_CHECK(query.ok(), "%s", query.status().ToString().c_str());
    auto result = ReferenceExecute(*query, *workload_.catalog,
                                   workload_.engine->documents());
    TEXTJOIN_CHECK(result.ok(), "%s", result.status().ToString().c_str());
    std::multiset<std::string> out;
    for (const Row& row : result->rows) out.insert(RowToString(row));
    return out;
  }

  UniversityWorkload workload_;
};

std::vector<std::string> RowStrings(const std::vector<Row>& rows) {
  std::vector<std::string> out;
  for (const Row& row : rows) out.push_back(RowToString(row));
  return out;
}

const char* const kSql =
    "select student.name, mercury.docid from student, mercury "
    "where student.year > 2 and student.name in mercury.author";

TEST_F(FederationServiceTest, QueryEndToEnd) {
  FederationService service = MakeService();
  auto outcome = service.Run(kSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::multiset<std::string> got;
  for (const Row& row : outcome->rows.rows) got.insert(RowToString(row));
  EXPECT_EQ(got, Reference(kSql));
  EXPECT_GT(service.meter().invocations, 0u);
  EXPECT_EQ(outcome->meter_delta.invocations, service.meter().invocations);
}

TEST_F(FederationServiceTest, ExplainDoesNotExecute) {
  FederationService service = MakeService();
  auto text = service.Explain(kSql);
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("ForeignJoin mercury"), std::string::npos);
  EXPECT_NE(text->find("Scan student"), std::string::npos);
  // Oracle stats mode: explaining must not touch the metered source.
  EXPECT_EQ(service.meter().invocations, 0u);
}

TEST_F(FederationServiceTest, ParseErrorsPropagate) {
  FederationService service = MakeService();
  EXPECT_FALSE(service.Run("select from nothing").ok());
  EXPECT_FALSE(service.Run("select * from student where a or b").ok());
  EXPECT_FALSE(service.Run("select * from missing_table, mercury "
                           "where missing_table.x in mercury.author")
                   .ok());
}

TEST_F(FederationServiceTest, SamplingModeChargesStatsMeter) {
  FederationService::Options options;
  options.oracle_stats = false;
  options.sample_size = 5;
  FederationService service = MakeService(options);
  auto outcome = service.Run(kSql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::multiset<std::string> got;
  for (const Row& row : outcome->rows.rows) got.insert(RowToString(row));
  // Sampled statistics may pick a different plan, never a different answer.
  EXPECT_EQ(got, Reference(kSql));
  EXPECT_GT(service.stats_meter().invocations, 0u);
  EXPECT_LE(service.stats_meter().invocations, 5u);
}

TEST_F(FederationServiceTest, StatisticsAmortizedAcrossQueries) {
  FederationService::Options options;
  options.oracle_stats = false;
  options.sample_size = 5;
  FederationService service = MakeService(options);
  ASSERT_TRUE(service.Run(kSql).ok());
  const uint64_t after_first = service.stats_meter().invocations;
  ASSERT_TRUE(service.Run(kSql).ok());
  // Same predicate: no new sampling traffic (paper: "the sampling cost is
  // amortized over queries with the same predicate").
  EXPECT_EQ(service.stats_meter().invocations, after_first);
}

TEST_F(FederationServiceTest, MeterAccumulatesAndResets) {
  FederationService service = MakeService();
  ASSERT_TRUE(service.Run(kSql).ok());
  const uint64_t once = service.meter().invocations;
  ASSERT_TRUE(service.Run(kSql).ok());
  EXPECT_GE(service.meter().invocations, 2 * once);
  service.ResetMeter();
  EXPECT_EQ(service.meter().invocations, 0u);
}

TEST_F(FederationServiceTest, PureRelationalQueriesWork) {
  FederationService service = MakeService();
  auto result = service.Run(
      "select student.name from student, faculty "
      "where student.advisor = faculty.name and faculty.dept = 'ai'");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(service.meter().invocations, 0u);  // no text source involved
}

TEST_F(FederationServiceTest, AliasedTextJoinsPlanInOracleMode) {
  FederationService service = MakeService();
  const std::string sql =
      "select s.name, mercury.docid from student s, mercury "
      "where s.year > 2 and s.name in mercury.author";
  auto outcome = service.Run(sql);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  std::multiset<std::string> got;
  for (const Row& row : outcome->rows.rows) got.insert(RowToString(row));
  EXPECT_EQ(got, Reference(sql));
}

// Sampled join statistics belong to the table column, not to the alias a
// query happened to give it: `s` naming faculty must not reuse the numbers
// sampled while `s` named student.
TEST_F(FederationServiceTest, SampledJoinStatsAreKeyedByTableNotAlias) {
  const std::string student_sql =
      "select s.name, mercury.docid from student s, mercury "
      "where s.name in mercury.author";
  const std::string faculty_sql =
      "select s.name, mercury.docid from faculty s, mercury "
      "where s.name in mercury.author";
  FederationService::Options options;
  options.oracle_stats = false;  // Default sample_size covers every name.
  FederationService service = MakeService(options);
  ASSERT_TRUE(service.Run(student_sql).ok());
  const uint64_t after_student = service.stats_meter().invocations;
  auto faculty = service.Run(faculty_sql);
  ASSERT_TRUE(faculty.ok()) << faculty.status().ToString();
  EXPECT_GT(service.stats_meter().invocations, after_student);

  FederationService fresh = MakeService(options);
  auto reference = fresh.Run(faculty_sql);
  ASSERT_TRUE(reference.ok()) << reference.status().ToString();
  EXPECT_EQ(faculty->chosen_plan, reference->chosen_plan);
  EXPECT_EQ(faculty->meter_delta, reference->meter_delta);
}

/// Forwards to a frozen corpus, counting Search calls — planning's oracle
/// statistics and execution's searches both land here.
class CountingCorpus : public SearchableCorpus {
 public:
  explicit CountingCorpus(const SearchableCorpus* inner) : inner_(inner) {}

  Result<EngineSearchResult> Search(const TextQuery& query) const override {
    searches_.fetch_add(1, std::memory_order_relaxed);
    return inner_->Search(query);
  }
  const Document& GetDocument(DocNum num) const override {
    return inner_->GetDocument(num);
  }
  Result<DocNum> FindDocid(const std::string& docid) const override {
    return inner_->FindDocid(docid);
  }
  size_t num_documents() const override { return inner_->num_documents(); }
  size_t max_search_terms() const override {
    return inner_->max_search_terms();
  }

  uint64_t searches() const {
    return searches_.load(std::memory_order_relaxed);
  }

 private:
  const SearchableCorpus* inner_;
  mutable std::atomic<uint64_t> searches_{0};
};

TEST_F(FederationServiceTest, RepeatsOfAQueryTextDoNotPlanAgain) {
  FederationService::Options options;
  options.text = workload_.text;

  // A fresh service's Run = planning + execution.
  CountingCorpus fresh_corpus(workload_.engine.get());
  FederationService fresh(workload_.catalog.get(), &fresh_corpus, options);
  ASSERT_TRUE(fresh.Run(kSql).ok());
  const uint64_t plan_and_run = fresh_corpus.searches();

  CountingCorpus corpus(workload_.engine.get());
  FederationService service(workload_.catalog.get(), &corpus, options);
  ASSERT_TRUE(service.Explain(kSql).ok());
  const uint64_t planning = corpus.searches();
  EXPECT_GT(planning, 0u);  // Oracle statistics probe the corpus.
  ASSERT_TRUE(service.Explain(kSql).ok());
  EXPECT_EQ(corpus.searches(), planning) << "second Explain planned again";

  // Run after Explain executes only: the plan is the one Explain made.
  ASSERT_TRUE(service.Run(kSql).ok());
  const uint64_t execution = corpus.searches() - planning;
  EXPECT_EQ(planning + execution, plan_and_run);
  ASSERT_TRUE(service.Run(kSql).ok());
  EXPECT_EQ(corpus.searches(), planning + 2 * execution);
  EXPECT_EQ(service.plan_cache_size(), 1u);
}

TEST_F(FederationServiceTest, CorpusGrowthAndTableInsertsReplan) {
  FederationService service = MakeService();
  auto first = service.Run(kSql);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  auto hit = service.Run(kSql);
  ASSERT_TRUE(hit.ok());
  EXPECT_EQ(hit->plan.get(), first->plan.get());

  // A new document by an existing student: the document count moves.
  Table* student = *workload_.catalog->GetTable("student");
  const std::string author = student->row(0).at(0).AsString();
  Document doc;
  doc.docid = "plan-cache-doc";
  doc.fields["title"] = {"plan cache"};
  doc.fields["author"] = {author};
  doc.fields["year"] = {"1995"};
  ASSERT_TRUE(workload_.engine->AddDocument(std::move(doc)).ok());
  auto after_doc = service.Run(kSql);
  ASSERT_TRUE(after_doc.ok()) << after_doc.status().ToString();
  EXPECT_NE(after_doc->plan.get(), hit->plan.get());
  std::multiset<std::string> got;
  for (const Row& row : after_doc->rows.rows) got.insert(RowToString(row));
  EXPECT_EQ(got, Reference(kSql));

  // A new student row: the table version moves.
  Row row = student->row(0);
  row[0] = Value::Str("Newcomer Student");
  ASSERT_TRUE(student->Insert(std::move(row)).ok());
  auto after_row = service.Run(kSql);
  ASSERT_TRUE(after_row.ok()) << after_row.status().ToString();
  EXPECT_NE(after_row->plan.get(), after_doc->plan.get());
  got.clear();
  for (const Row& r : after_row->rows.rows) got.insert(RowToString(r));
  EXPECT_EQ(got, Reference(kSql));
  EXPECT_EQ(service.plan_cache_size(), 1u);  // Replaced, not added.

  // Clear() followed by a refill to the same size still re-plans.
  std::vector<Row> rows = student->rows();
  student->Clear();
  for (Row& r : rows) student->InsertUnchecked(std::move(r));
  auto after_refill = service.Run(kSql);
  ASSERT_TRUE(after_refill.ok());
  EXPECT_NE(after_refill->plan.get(), after_row->plan.get());
  EXPECT_EQ(after_refill->chosen_plan, after_row->chosen_plan);
}

TEST_F(FederationServiceTest, ErrorsAreNotCached) {
  FederationService service = MakeService();
  EXPECT_FALSE(service.Run("select from nothing").ok());
  EXPECT_FALSE(service.Explain("select from nothing").ok());
  EXPECT_FALSE(service.Run("select * from missing_table, mercury "
                           "where missing_table.x in mercury.author")
                   .ok());
  EXPECT_EQ(service.plan_cache_size(), 0u);
}

TEST_F(FederationServiceTest, PlanCacheStaysWithinItsBoundEvictingLru) {
  FederationService service = MakeService();
  const auto sql = [](size_t n) {
    return "select student.name from student where student.year > " +
           std::to_string(n);
  };
  const size_t capacity = FederationService::kPlanCacheEntries;
  // Outcomes hold their plans, so a re-planned text can never get a new
  // plan at a recycled address.
  std::vector<PlanNodePtr> plans;
  for (size_t n = 0; n < capacity; ++n) {
    auto outcome = service.Run(sql(n));
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    plans.push_back(outcome->plan);
  }
  EXPECT_EQ(service.plan_cache_size(), capacity);
  // Touch text 0, so text 1 becomes the least recently used.
  auto touched = service.Run(sql(0));
  ASSERT_TRUE(touched.ok());
  EXPECT_EQ(touched->plan, plans[0]);
  for (size_t n = capacity; n < capacity + 8; ++n) {
    ASSERT_TRUE(service.Run(sql(n)).ok());
    EXPECT_LE(service.plan_cache_size(), capacity);
  }
  auto kept = service.Run(sql(0));
  ASSERT_TRUE(kept.ok());
  EXPECT_EQ(kept->plan, plans[0]);
  auto evicted = service.Run(sql(1));
  ASSERT_TRUE(evicted.ok());
  EXPECT_NE(evicted->plan, plans[1]);
  auto query = ParseQuery(sql(1), workload_.text);
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(evicted->chosen_plan, plans[1]->ToString(*query));
  EXPECT_EQ(service.plan_cache_size(), capacity);
}

// The paper's Q1-Q5 (the serving benchmark's texts): a cached plan is the
// plan a fresh service makes, so everything a Run reports is byte-identical.
TEST(PlanCachePaperQueriesTest, CachedPlansMatchAFreshService) {
  struct Case {
    Result<PaperScenario> built;
    std::string sql;
  };
  Q1Config q1;
  q1.num_documents = 2000;
  Q2Config q2;
  q2.num_documents = 2000;
  Q3Config q3;
  q3.num_documents = 2000;
  Q4Config q4;
  q4.num_documents = 2000;
  Q5Config q5;
  q5.num_documents = 2000;
  Case cases[] = {
      {BuildQ1(q1),
       "select * from student, mercury where student.area = 'area_v0' and "
       "'beliefupdate' in mercury.title and student.name in mercury.author"},
      {BuildQ2(q2),
       "select mercury.docid from student, mercury where student.advisor = "
       "'advisor_v0' and 'textretrieval' in mercury.title and student.name "
       "in mercury.author"},
      {BuildQ3(q3),
       "select project.member, project.name, mercury.docid from project, "
       "mercury where project.sponsor = 'sponsor_v0' and project.name in "
       "mercury.title and project.member in mercury.author"},
      {BuildQ4(q4),
       "select student.name, mercury.docid from student, mercury where "
       "student.area = 'area_v0' and student.advisor in mercury.author and "
       "student.name in mercury.author"},
      {BuildQ5(q5),
       "select student.name, faculty.name, mercury.docid from student, "
       "faculty, mercury where faculty.dept != student.dept and 'year1993' "
       "in mercury.year and student.name in mercury.author and faculty.name "
       "in mercury.author"},
  };
  for (Case& c : cases) {
    ASSERT_TRUE(c.built.ok()) << c.built.status().ToString();
    const Scenario& scenario = c.built->scenario;
    FederationService::Options options;
    options.text = scenario.text;
    FederationService cached(scenario.catalog.get(), scenario.engine.get(),
                             options);
    FederationService fresh(scenario.catalog.get(), scenario.engine.get(),
                            options);
    ASSERT_TRUE(cached.Explain(c.sql).ok());
    auto first = cached.Run(c.sql);
    auto second = cached.Run(c.sql);
    auto reference = fresh.Run(c.sql);
    ASSERT_TRUE(first.ok()) << c.sql << ": " << first.status().ToString();
    ASSERT_TRUE(second.ok());
    ASSERT_TRUE(reference.ok());
    EXPECT_EQ(second->plan, first->plan) << c.sql;
    auto query = ParseQuery(c.sql, scenario.text);
    ASSERT_TRUE(query.ok());
    for (const QueryOutcome* outcome : {&*first, &*second}) {
      EXPECT_EQ(outcome->chosen_plan, reference->chosen_plan) << c.sql;
      EXPECT_EQ(outcome->meter_delta, reference->meter_delta) << c.sql;
      EXPECT_EQ(ExplainAnalyze(*outcome->plan, *query, outcome->profile,
                               CostParams{}, RenderMode::kStable),
                ExplainAnalyze(*reference->plan, *query, reference->profile,
                               CostParams{}, RenderMode::kStable))
          << c.sql;
      EXPECT_EQ(RowStrings(outcome->rows.rows),
                RowStrings(reference->rows.rows))
          << c.sql;
    }
  }
}

}  // namespace
}  // namespace textjoin
