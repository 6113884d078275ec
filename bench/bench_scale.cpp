// Scaling experiment (beyond the paper's evaluation, enabled by the
// simulated substrate): how each method's cost grows with the corpus size
// D while the relation and the per-predicate statistics stay fixed.
//
// The Section-4 model predicts: invocation-dominated methods (TS, P+TS on
// a docid-only query) are ~flat in D; fetch-dominated methods scale with
// the number of matched documents, which is held constant here by keeping
// fanouts fixed — so the *costs* stay flat while the *index* grows, and
// only the c_p (postings) component moves. The interesting check is that
// the simulated seconds match the model across two orders of magnitude of
// D, i.e. the simulator has no hidden scale effects.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "bench/bench_util.h"
#include "workload/paper_queries.h"

namespace {

using namespace textjoin;

int Run(const std::string& snapshot_path) {
  bench::PrintHeader(
      "Scaling — measured vs predicted cost as the corpus grows (Q3)");
  std::printf("%8s %12s %12s %12s %12s %14s\n", "D", "TS meas", "TS pred",
              "P+TS meas", "P+TS pred", "build(ms)");

  std::vector<bench::BenchRecord> records;
  bool prediction_tracks = true;
  for (size_t d : {2000, 5000, 20000, 50000, 100000}) {
    Q3Config config;
    config.num_documents = d;
    const auto t0 = std::chrono::steady_clock::now();
    auto built = BuildQ3(config);
    const auto t1 = std::chrono::steady_clock::now();
    TEXTJOIN_CHECK(built.ok(), "%s", built.status().ToString().c_str());
    auto prepared =
        bench::PrepareSingleJoin(built->query, *built->scenario.catalog);
    TEXTJOIN_CHECK(prepared.ok(), "prepare");
    auto model = bench::BuildModel(built->query, *prepared,
                                   *built->scenario.catalog,
                                   *built->scenario.engine, 1);
    TEXTJOIN_CHECK(model.ok(), "model");

    // Wall-clock + allocation records for the snapshot: the simulated
    // seconds above track the paper's cost model, while these track the
    // engine's real execution speed across corpus scales.
    bench::MethodRun ts;
    records.push_back(bench::TimeLoop(
        "scale_ts_D" + std::to_string(d), 1, 0.0, [&] {
          ts = bench::RunMethod(JoinMethodKind::kTS, *prepared,
                                *built->scenario.engine);
        }));
    records.back().rows = static_cast<double>(ts.result_rows);
    bench::MethodRun pts;
    records.push_back(bench::TimeLoop(
        "scale_pts_D" + std::to_string(d), 1, 0.0, [&] {
          pts = bench::RunMethod(JoinMethodKind::kPTS, *prepared,
                                 *built->scenario.engine, 0b01);
        }));
    records.back().rows = static_cast<double>(pts.result_rows);
    const double ts_pred = model->CostTS();
    const double pts_pred = model->CostProbeTS(0b01);
    std::printf("%8zu %12.1f %12.1f %12.1f %12.1f %14.1f\n", d,
                ts.simulated_seconds, ts_pred, pts.simulated_seconds,
                pts_pred,
                std::chrono::duration<double, std::milli>(t1 - t0).count());
    // Prediction within 2x of measurement at every scale.
    if (ts.simulated_seconds > 0 &&
        (ts_pred / ts.simulated_seconds > 2.0 ||
         ts.simulated_seconds / ts_pred > 2.0)) {
      prediction_tracks = false;
    }
    if (pts.simulated_seconds > 0 &&
        (pts_pred / pts.simulated_seconds > 2.0 ||
         pts.simulated_seconds / pts_pred > 2.0)) {
      prediction_tracks = false;
    }
  }
  if (!snapshot_path.empty()) {
    bench::WriteBenchSnapshot(snapshot_path, "scale", records);
    std::printf("\nwrote %zu scale records to %s\n", records.size(),
                snapshot_path.c_str());
  }
  std::printf("shape check (model within 2x of measurement at every D): "
              "%s\n",
              prediction_tracks ? "PASS" : "FAIL");
  return prediction_tracks ? 0 : 1;
}

}  // namespace

TEXTJOIN_BENCH_ALLOC_HOOKS()

int main(int argc, char** argv) {
  std::string snapshot_path;  // Empty: write no snapshot file.
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg.rfind("--snapshot_path=", 0) == 0) {
      snapshot_path = std::string(arg.substr(std::strlen("--snapshot_path=")));
    }
  }
  return Run(snapshot_path);
}
