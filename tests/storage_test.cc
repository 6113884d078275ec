#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "common/random.h"
#include "connector/remote_text_source.h"
#include "core/join_methods.h"
#include "tests/test_util.h"
#include "text/storage.h"
#include "workload/scenario.h"

namespace textjoin {
namespace {

using textjoin::testing::MakeSmallEngine;

std::string TempPath(const char* name) {
  return ::testing::TempDir() + "/" + name;
}

TEST(CorpusFileTest, Roundtrip) {
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("corpus_roundtrip.tjc");
  ASSERT_TRUE(WriteCorpusFile(*engine, path).ok());

  auto loaded = ReadCorpusFile(path, /*max_search_terms=*/33);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ((*loaded)->num_documents(), engine->num_documents());
  EXPECT_EQ((*loaded)->max_search_terms(), 33u);
  // Documents identical, field by field.
  for (DocNum n = 0; n < engine->num_documents(); ++n) {
    const Document& a = engine->GetDocument(n);
    const Document& b = (*loaded)->GetDocument(n);
    EXPECT_EQ(a.docid, b.docid);
    EXPECT_EQ(a.fields, b.fields);
  }
  // The rebuilt index answers searches identically.
  auto q = ParseTextQuery("title='belief update' and author='radhika'");
  auto ra = engine->Search(**q);
  auto rb = (*loaded)->Search(**q);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(ra->docs, rb->docs);
  std::remove(path.c_str());
}

TEST(CorpusFileTest, Errors) {
  EXPECT_EQ(ReadCorpusFile("/nonexistent/nope.tjc").status().code(),
            StatusCode::kNotFound);
  // Not a corpus file (wrong magic).
  const std::string path = TempPath("garbage.tjc");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage bytes here, definitely not a corpus", f);
  std::fclose(f);
  EXPECT_EQ(ReadCorpusFile(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(CorpusFileTest, TruncatedFileRejected) {
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("truncated.tjc");
  ASSERT_TRUE(WriteCorpusFile(*engine, path).ok());
  // Truncate to half.
  std::FILE* f = std::fopen(path.c_str(), "rb");
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(path.c_str(), size / 2), 0);
  EXPECT_FALSE(ReadCorpusFile(path).ok());
  std::remove(path.c_str());
}

TEST(IndexFileTest, DiskListsMatchMemoryLists) {
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("index_small.tji");
  ASSERT_TRUE(WriteIndexFile(*engine, path).ok());
  auto disk = DiskPostingIndex::Open(path);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();

  size_t checked = 0;
  engine->index().ForEachList([&](const std::string& field,
                                  const std::string& token,
                                  const BlockPostings& block) {
    const PostingList mem = block.Materialize();
    auto from_disk = (*disk)->ReadBlockList(field, token);
    ASSERT_TRUE(from_disk.ok());
    const PostingList disk_list = (*from_disk)->Materialize();
    ASSERT_EQ(disk_list.size(), mem.size()) << field << "/" << token;
    for (size_t i = 0; i < mem.size(); ++i) {
      EXPECT_EQ(disk_list[i].doc, mem[i].doc);
      EXPECT_EQ(disk_list[i].positions, mem[i].positions);
    }
    EXPECT_EQ((*disk)->DocFrequency(field, token), mem.size());
    ++checked;
  });
  EXPECT_EQ(checked, (*disk)->directory_size());
  EXPECT_GT(checked, 10u);
  // Missing tokens: empty list, zero frequency, no error.
  auto missing = (*disk)->ReadBlockList("title", "zzznotthere");
  ASSERT_TRUE(missing.ok());
  EXPECT_TRUE((*missing)->empty());
  EXPECT_EQ((*disk)->DocFrequency("title", "zzznotthere"), 0u);
  // Case-insensitive like the in-memory directory.
  EXPECT_EQ((*disk)->DocFrequency("title", "BELIEF"), 2u);

  // Truncated searches: the disk directory picks the same tokens, in the
  // same order, with the same postings as the in-memory index.
  size_t nonempty = 0;
  for (const char* field : {"title", "author", "year", "nofield"}) {
    for (const char* prefix :
         {"", "b", "belie", "BELIE", "gr", "s", "1", "zzz"}) {
      const std::vector<const BlockPostings*> mem =
          engine->index().LookupPrefix(field, prefix);
      auto from_disk = (*disk)->ReadBlockPrefixLists(field, prefix);
      ASSERT_TRUE(from_disk.ok()) << field << "/" << prefix;
      ASSERT_EQ(from_disk->size(), mem.size()) << field << "/" << prefix;
      for (size_t i = 0; i < mem.size(); ++i) {
        const PostingList want = mem[i]->Materialize();
        const PostingList got = (*from_disk)[i]->Materialize();
        ASSERT_EQ(got.size(), want.size()) << field << "/" << prefix;
        for (size_t p = 0; p < want.size(); ++p) {
          EXPECT_EQ(got[p].doc, want[p].doc);
          EXPECT_EQ(got[p].positions, want[p].positions);
        }
      }
      if (!mem.empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 8u);
  std::remove(path.c_str());
}

TEST(IndexFileTest, TruncatedListRejected) {
  // Cut the last byte of the index file: the directory still loads, the
  // lists before the cut still read, and the cut list is rejected rather
  // than returned partially decoded.
  auto engine = MakeSmallEngine();
  const std::string cpath = TempPath("truncated_list.tjc");
  const std::string ipath = TempPath("truncated_list.tji");
  ASSERT_TRUE(WriteCorpusFile(*engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*engine, ipath).ok());
  // Lists are laid out in ForEachList order, so the last one visited is
  // the one the cut lands in.
  std::string first_field, first_token, last_field, last_token;
  engine->index().ForEachList([&](const std::string& field,
                                  const std::string& token,
                                  const BlockPostings&) {
    if (first_field.empty()) {
      first_field = field;
      first_token = token;
    }
    last_field = field;
    last_token = token;
  });
  ASSERT_NE(first_field + "/" + first_token, last_field + "/" + last_token);
  std::FILE* f = std::fopen(ipath.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  ASSERT_EQ(truncate(ipath.c_str(), size - 1), 0);

  auto index = DiskPostingIndex::Open(ipath);
  ASSERT_TRUE(index.ok()) << index.status().ToString();
  auto intact = (*index)->ReadBlockList(first_field, first_token);
  ASSERT_TRUE(intact.ok()) << intact.status().ToString();
  EXPECT_EQ((*intact)->size(),
            engine->index().Lookup(first_field, first_token).size());
  EXPECT_EQ((*index)->ReadBlockList(last_field, last_token).status().code(),
            StatusCode::kInvalidArgument);

  auto disk = DiskTextEngine::Open(cpath, ipath);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  auto query = ParseTextQuery(last_field + "='" + last_token + "'");
  ASSERT_TRUE(query.ok()) << query.status().ToString();
  EXPECT_EQ((*disk)->Search(**query).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}

TEST(IndexFileTest, LargeRandomCorpusRoundtrip) {
  ScenarioConfig config;
  config.relations = {{"r", 100, {}}};
  config.predicates = {{"r", "c", "author", 80, 0.5, 3.0}};
  config.num_documents = 2000;
  config.filler_vocabulary = 500;
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok());

  const std::string cpath = TempPath("corpus_large.tjc");
  const std::string ipath = TempPath("index_large.tji");
  ASSERT_TRUE(WriteCorpusFile(*scenario->engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*scenario->engine, ipath).ok());

  auto loaded = ReadCorpusFile(cpath);
  ASSERT_TRUE(loaded.ok());
  auto disk = DiskPostingIndex::Open(ipath);
  ASSERT_TRUE(disk.ok());

  // Random spot checks: disk lists equal both the original and the
  // reloaded engine's lists.
  Rng rng(17);
  for (int i = 0; i < 50; ++i) {
    const std::string token =
        "p0v" + std::to_string(rng.Uniform(0, 79));
    const PostingList mem =
        scenario->engine->index().Lookup("author", token).Materialize();
    const PostingList reloaded =
        (*loaded)->index().Lookup("author", token).Materialize();
    auto from_disk = (*disk)->ReadBlockList("author", token);
    ASSERT_TRUE(from_disk.ok());
    EXPECT_EQ(DocsOf((*from_disk)->Materialize()), DocsOf(mem));
    EXPECT_EQ(DocsOf(reloaded), DocsOf(mem));
  }
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}

TEST(DiskEngineTest, SearchesMatchInMemoryEngine) {
  auto engine = MakeSmallEngine();
  const std::string cpath = TempPath("disk_engine.tjc");
  const std::string ipath = TempPath("disk_engine.tji");
  ASSERT_TRUE(WriteCorpusFile(*engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*engine, ipath).ok());
  auto disk = DiskTextEngine::Open(cpath, ipath, /*max_search_terms=*/70);
  ASSERT_TRUE(disk.ok()) << disk.status().ToString();
  EXPECT_EQ((*disk)->num_documents(), engine->num_documents());

  const char* queries[] = {
      "title='belief update'",
      "author='gravano' or author='kao'",
      "title='belief' and author='smith'",
      "author='gravano' and not title='text'",
      "title='belie?'",
      "title='zzznothing'",
  };
  for (const char* q : queries) {
    auto parsed = ParseTextQuery(q);
    ASSERT_TRUE(parsed.ok());
    auto mem = engine->Search(**parsed);
    auto dsk = (*disk)->Search(**parsed);
    ASSERT_TRUE(mem.ok());
    ASSERT_TRUE(dsk.ok()) << q;
    EXPECT_EQ(dsk->docs, mem->docs) << q;
    EXPECT_EQ(dsk->postings_processed, mem->postings_processed) << q;
  }
  // Long forms come back identical.
  auto num = (*disk)->FindDocid("d3");
  ASSERT_TRUE(num.ok());
  EXPECT_EQ((*disk)->GetDocument(*num).fields,
            engine->GetDocument(*engine->FindDocid("d3")).fields);
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}

TEST(DiskEngineTest, FullFederatedQueryOverDiskServer) {
  // The whole point of the loose-integration design: the join methods and
  // executor run unchanged against a server whose lists live on disk.
  auto engine = MakeSmallEngine();
  const std::string cpath = TempPath("fed_disk.tjc");
  const std::string ipath = TempPath("fed_disk.tji");
  ASSERT_TRUE(WriteCorpusFile(*engine, cpath).ok());
  ASSERT_TRUE(WriteIndexFile(*engine, ipath).ok());
  auto disk = DiskTextEngine::Open(cpath, ipath);
  ASSERT_TRUE(disk.ok());

  RemoteTextSource source(disk->get());
  ForeignJoinSpec spec;
  auto table = textjoin::testing::MakeStudentTable();
  spec.left_schema = table->schema();
  spec.text = textjoin::testing::MercuryDecl();
  spec.selections = {{"belief", "title"}};
  spec.joins = {{"student.name", "author"}};
  auto result = ExecuteForeignJoin(JoinMethodKind::kTS, spec, table->rows(),
                                   source);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(textjoin::testing::PairSet(*result,
                                       table->schema().num_columns())
                .size(),
            3u);  // Radhika/d1, Smith/d1, Kao/d4
  EXPECT_EQ(source.meter().invocations, 5u);
  std::remove(cpath.c_str());
  std::remove(ipath.c_str());
}


TEST(IndexFileTest, CompressionShrinksTheIndex) {
  // The delta+varint lists must be much smaller than a naive fixed-width
  // encoding (12+ bytes per posting for doc + count + one position).
  ScenarioConfig config;
  config.relations = {{"r", 100, {}}};
  config.predicates = {{"r", "c", "author", 40, 1.0, 50.0}};
  config.num_documents = 10000;
  config.filler_vocabulary = 300;
  auto scenario = BuildScenario(config);
  ASSERT_TRUE(scenario.ok());
  const std::string path = TempPath("compressed.tji");
  ASSERT_TRUE(WriteIndexFile(*scenario->engine, path).ok());
  std::FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long file_size = std::ftell(f);
  std::fclose(f);
  const uint64_t postings = scenario->engine->index().TotalPostings();
  // Naive encoding would be >= 12 bytes/posting plus the directory.
  EXPECT_LT(static_cast<uint64_t>(file_size), 12 * postings)
      << "postings=" << postings << " file=" << file_size;
  // And decoding still roundtrips exactly (spot check the fattest lists).
  auto disk = DiskPostingIndex::Open(path);
  ASSERT_TRUE(disk.ok());
  for (int j = 0; j < 40; ++j) {
    const std::string token = "p0v" + std::to_string(j);
    const PostingList mem =
        scenario->engine->index().Lookup("author", token).Materialize();
    auto from_disk = (*disk)->ReadBlockList("author", token);
    ASSERT_TRUE(from_disk.ok());
    const PostingList disk_list = (*from_disk)->Materialize();
    ASSERT_EQ(disk_list.size(), mem.size());
    for (size_t i = 0; i < mem.size(); ++i) {
      EXPECT_EQ(disk_list[i].doc, mem[i].doc);
      EXPECT_EQ(disk_list[i].positions, mem[i].positions);
    }
  }
  std::remove(path.c_str());
}

TEST(IndexFileTest, OpenErrors) {
  EXPECT_EQ(DiskPostingIndex::Open("/nonexistent/nope.tji").status().code(),
            StatusCode::kNotFound);
  // Corpus file is not an index file.
  auto engine = MakeSmallEngine();
  const std::string path = TempPath("wrongkind.tjc");
  ASSERT_TRUE(WriteCorpusFile(*engine, path).ok());
  EXPECT_EQ(DiskPostingIndex::Open(path).status().code(),
            StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace textjoin
