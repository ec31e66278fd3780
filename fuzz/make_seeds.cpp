// Seed-corpus generator for tests/fuzz/corpus/ (DESIGN.md §13).
//
// Run once with the corpus root as argv[1]; the seeds are checked in, so
// every clone replays the same inputs through fuzz_regression_test and
// tools/fuzz.sh --regress. Seeds are built with the real encoders and
// trainers — a corpus of structurally valid artifacts plus targeted
// near-valid mutants (bad CRC, hostile length, truncated tail) reaches far
// deeper than random bytes would.
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "ann/mlp.h"
#include "core/model_io.h"
#include "data/matrix.h"
#include "forest/random_forest.h"
#include "serve/wire.h"
#include "smart/drive.h"
#include "store/telemetry_store.h"
#include "tree/tree.h"

namespace fs = std::filesystem;
using namespace hdd;

namespace {

void put(const fs::path& dir, const std::string& name,
         const std::string& bytes) {
  std::ofstream os(dir / name, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) {
    std::cerr << "write failed: " << (dir / name) << '\n';
    std::exit(1);
  }
}

smart::Sample sample_at(std::int64_t hour, float base) {
  smart::Sample s;
  s.hour = hour;
  for (std::size_t f = 0; f < s.attrs.size(); ++f) {
    s.attrs[f] = base + static_cast<float>(f);
  }
  return s;
}

// A tiny separable training matrix: class by the first feature's sign
// region, 12 SMART-like columns.
data::DataMatrix tiny_matrix() {
  data::DataMatrix m(smart::kNumAttributes);
  std::vector<float> row(smart::kNumAttributes, 0.0f);
  for (int i = 0; i < 64; ++i) {
    const bool failed = i % 2 == 0;
    for (int f = 0; f < smart::kNumAttributes; ++f) {
      row[static_cast<std::size_t>(f)] =
          static_cast<float>((i * 7 + f * 3) % 40) + (failed ? 60.0f : 0.0f);
    }
    m.add_row(row, failed ? -1.0f : 1.0f);
  }
  return m;
}

void frame_seeds(const fs::path& dir) {
  // Leading byte picks the harness's feed-chunk size; 0x07 => 8-byte reads.
  const std::string chunk(1, '\x07');

  serve::IngestBatch batch;
  batch.serials = {"drv-a", "drv-a", "drv-b"};
  batch.samples = {sample_at(10, 1.0f), sample_at(11, 2.0f),
                   sample_at(10, 3.0f)};
  put(dir, "ingest",
      chunk + serve::frame_payload(serve::encode_ingest_request(batch)));
  put(dir, "ingest_traced",
      chunk + serve::frame_payload(
                  serve::encode_ingest_request(batch, 0x1122334455667788u)));
  put(dir, "query",
      chunk + serve::frame_payload(serve::encode_query_request("drv-a")));
  put(dir, "stats_then_shutdown",
      chunk + serve::frame_payload(serve::encode_stats_request()) +
          serve::frame_payload(serve::encode_shutdown_request(42)));

  std::string bad_crc =
      serve::frame_payload(serve::encode_query_request("drv-a"));
  bad_crc[5] = static_cast<char>(bad_crc[5] ^ 0x40);
  put(dir, "bad_crc", chunk + bad_crc);

  std::string truncated =
      serve::frame_payload(serve::encode_stats_request());
  truncated.resize(truncated.size() - 3);
  put(dir, "truncated", chunk + truncated);

  // Hostile declared length: 0xffffffff | crc | nothing.
  put(dir, "hostile_length",
      chunk + std::string("\xff\xff\xff\xff\x00\x00\x00\x00", 8));

  // Valid frame followed by a hostile header — the feed()-time walk case.
  put(dir, "valid_then_hostile",
      chunk + serve::frame_payload(serve::encode_stats_request()) +
          std::string("\x00\x00\x00\xff\x00\x00\x00\x00", 8));

  // Raw responses exercise the decoder-only path.
  serve::StatsResponse stats;
  stats.drives = 3;
  stats.samples = 99;
  stats.generation = 2;
  put(dir, "stats_response", chunk + serve::encode_stats_response(stats));
}

void segment_seeds(const fs::path& dir, const fs::path& scratch) {
  fs::create_directories(scratch);
  store::StoreOptions opt;
  opt.segment_bytes = 512;  // force at least one rotation
  {
    store::TelemetryStore st(scratch.string(), opt);
    const auto a = st.register_drive("seed-drv-a");
    const auto b = st.register_drive("seed-drv-b");
    for (int h = 1; h <= 24; ++h) {
      st.append(a, sample_at(h, 5.0f));
      if (h % 2 == 0) st.append(b, sample_at(h, 9.0f));
    }
    st.flush();
  }
  std::vector<std::string> segs;
  for (const auto& e : fs::directory_iterator(scratch)) {
    std::ifstream is(e.path(), std::ios::binary);
    std::ostringstream buf;
    buf << is.rdbuf();
    segs.push_back(buf.str());
  }
  if (segs.empty()) {
    std::cerr << "no segment files produced\n";
    std::exit(1);
  }
  int n = 0;
  for (const std::string& seg : segs) {
    put(dir, "segment_" + std::to_string(n++), seg);
  }
  std::string torn = segs[0];
  torn.resize(torn.size() - torn.size() / 3);  // torn tail mid-frame
  put(dir, "torn_tail", torn);
  std::string flipped = segs[0];
  flipped[flipped.size() / 2] ^= 0x10;  // CRC drop mid-segment
  put(dir, "crc_flip", flipped);
  std::string bad_header = segs[0];
  bad_header[0] ^= 0x01;  // unrecognizable magic: header skip path
  put(dir, "bad_magic", bad_header);
  fs::remove_all(scratch);
}

void model_seeds(const fs::path& dir) {
  const data::DataMatrix m = tiny_matrix();

  tree::DecisionTree ct;
  tree::TreeParams tp;
  tp.min_split = 4;
  tp.min_bucket = 2;
  ct.fit(m, tree::Task::kClassification, tp);
  std::ostringstream ct_os;
  core::save_tree(ct, ct_os);
  put(dir, "tree_ct", ct_os.str());

  tree::DecisionTree rt;
  rt.fit(m, tree::Task::kRegression, tp);
  std::ostringstream rt_os;
  core::save_tree(rt, rt_os);
  put(dir, "tree_rt", rt_os.str());

  forest::RandomForest rf;
  forest::ForestConfig fc;
  fc.n_trees = 3;
  fc.tree_params = tp;
  rf.fit(m, tree::Task::kClassification, fc);
  std::ostringstream rf_os;
  rf.save(rf_os);
  put(dir, "forest", rf_os.str());

  ann::MlpModel mlp;
  ann::MlpConfig mc;
  mc.hidden = 4;
  mc.epochs = 20;
  mlp.fit(m, mc);
  std::ostringstream mlp_os;
  mlp.save(mlp_os);
  put(dir, "mlp", mlp_os.str());

  // Hostile declared sizes: the ParseError pre-allocation gates.
  put(dir, "tree_hostile_nodes",
      "hddpred-tree v1\ntask classification\nfeatures 12\n"
      "nodes 4000000000\n");
  put(dir, "forest_hostile_trees",
      "hddpred-forest v1\ntask classification\nfeatures 12\n"
      "trees 4000000000\n");
  put(dir, "mlp_hostile_width", "hddpred-mlp v1\ninputs 123456789\n");
  put(dir, "unknown_header", "hddpred-quantum v7\nqubits 8\n");

  // Shapes training never produces but from_nodes admits: a stump (the
  // root is a leaf) and a node list whose splits share children. The
  // packed inference form must keep both intact (FlatEnsemble::validate).
  const auto leaf = [](double value) {
    tree::Node n;
    n.value = value;
    n.weight = 1.0;
    n.count = 1;
    return n;
  };
  const auto split = [](std::int32_t feature, float threshold,
                        std::int32_t left, std::int32_t right) {
    tree::Node n;
    n.feature = feature;
    n.threshold = threshold;
    n.left = left;
    n.right = right;
    n.weight = 1.0;
    n.count = 1;
    n.gain = 0.5;
    return n;
  };
  const auto stump = tree::DecisionTree::from_nodes(
      {leaf(0.5)}, tree::Task::kClassification, smart::kNumAttributes);
  std::ostringstream stump_os;
  core::save_tree(stump, stump_os);
  put(dir, "tree_stump", stump_os.str());

  // Nodes 1 and 2 both lead to leaves 3 and 4.
  const std::vector<tree::Node> dag_nodes{
      split(0, 40.0f, 1, 2), split(1, 20.0f, 3, 4), split(2, 20.0f, 3, 4),
      leaf(-0.5), leaf(0.5)};
  const auto dag = tree::DecisionTree::from_nodes(
      dag_nodes, tree::Task::kClassification, smart::kNumAttributes);
  std::ostringstream dag_os;
  core::save_tree(dag, dag_os);
  put(dir, "tree_dag", dag_os.str());

  // A forest whose members are a stump, the DAG on a permuted 3-column
  // subspace, and the first trained member.
  const auto narrow_stump = tree::DecisionTree::from_nodes(
      {leaf(-0.25)}, tree::Task::kClassification, 1);
  const auto narrow_dag = tree::DecisionTree::from_nodes(
      dag_nodes, tree::Task::kClassification, 3);
  std::ostringstream mixed_os;
  mixed_os << "hddpred-forest v1\nfeatures " << smart::kNumAttributes
           << "\ntrees 3\nsubspace 7\n";
  narrow_stump.save(mixed_os);
  mixed_os << "subspace 9 2 5\n";
  narrow_dag.save(mixed_os);
  mixed_os << "subspace";
  for (int f : rf.member_features(0)) mixed_os << ' ' << f;
  mixed_os << '\n';
  rf.member_tree(0).save(mixed_os);
  put(dir, "forest_stump_dag", mixed_os.str());

  std::string bad_tail = ct_os.str();
  bad_tail.resize(bad_tail.size() / 2);  // truncated mid-node-table
  put(dir, "tree_truncated", bad_tail);
}

void store_op_seeds(const fs::path& dir) {
  // Byte stream: segment-size byte, then (op, arg[, extras]) pairs.
  // Ops mod 8: 0=register 1=append 2=batch 3=flush 4=compact 5=reopen
  // 6=crash-reopen 7=read-probes.
  const auto bytes = [](std::initializer_list<int> v) {
    std::string s;
    for (int b : v) s.push_back(static_cast<char>(b));
    return s;
  };
  put(dir, "basic",
      bytes({4, 0, 0, 0, 1, 1, 0, 7, 2, 0, 3, 5, 3, 0, 7, 1}));
  put(dir, "rotate_compact",
      bytes({0, 0, 0, 0, 1, 2, 0, 11, 1, 2, 1, 11, 2, 2, 0, 11, 3,
             4, 8, 7, 0, 5, 0, 7, 0}));
  put(dir, "crash_recover",
      bytes({2, 0, 0, 0, 1, 2, 0, 9, 4, 3, 0, 6, 5, 7, 7, 0, 1, 0, 5,
             5, 0, 7, 3}));
  put(dir, "many_drives",
      bytes({8, 0, 0, 0, 1, 0, 2, 0, 3, 0, 4, 0, 5, 0, 6, 0, 7, 2, 3,
             6, 2, 6, 13, 11, 7, 5, 3, 0}));
}

void cli_seeds(const fs::path& dir) {
  put(dir, "help_like", "stats\n");
  put(dir, "predict",
      "predict --model model.txt --telemetry data.csv --vote 3");
  put(dir, "train", "train --preset ct --out model.txt --seed 7");
  put(dir, "serve", "serve --port 0 --store /tmp/s --threads 2");
  put(dir, "globals", "--log-format json --log-level warn lint --model m");
  put(dir, "adversary",
      "adversary --data f.csv --model m --epsilons 0.01,0.1 --format json");
  put(dir, "unknown_command", "frobnicate --hard");
  put(dir, "unknown_flag", "train --preset ct --does-not-exist 1");
  put(dir, "missing_value", "train --preset");
  put(dir, "not_a_number", "serve --port banana");
  put(dir, "empty", "");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::cerr << "usage: make_seeds <corpus-root>\n";
    return 2;
  }
  const fs::path root = argv[1];
  for (const char* name :
       {"frame", "segment", "model", "store_op", "cli"}) {
    fs::create_directories(root / name);
  }
  frame_seeds(root / "frame");
  segment_seeds(root / "segment",
                fs::temp_directory_path() / "hdd_make_seeds_store");
  model_seeds(root / "model");
  store_op_seeds(root / "store_op");
  cli_seeds(root / "cli");
  std::cout << "seed corpus written under " << root << '\n';
  return 0;
}
