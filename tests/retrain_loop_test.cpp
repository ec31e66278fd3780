// Serve-level continuous-update tests (ctest label: pipeline).
//
// Exercises the RetrainLoop promotion state machine against a live Server:
// a forced tick training from the daemon's own journals and hot-swapping a
// promoted generation fleet-wide, guardrail rejections leaving the
// incumbent untouched, the shadow-then-promote deferral, and
// ShardEngine::resume()'s generation reconciliation after a promotion that
// only reached a subset of shards (the crash-mid-promotion heal), and a
// promotion that fails partway dropping its candidate's shadow.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/log.h"
#include "core/predictor.h"
#include "core/runtime.h"
#include "core/swappable.h"
#include "io/env.h"
#include "obs/metrics.h"
#include "pipeline/pipeline.h"
#include "serve/client.h"
#include "serve/retrain_loop.h"
#include "serve/server.h"
#include "serve/shard_engine.h"
#include "store/telemetry_store.h"

namespace hdd::serve {
namespace {

namespace fs = std::filesystem;

constexpr std::int64_t kWeek = 168;
constexpr std::uint32_t kGoods = 12;
constexpr std::uint32_t kFaileds = 6;

float hval(std::uint32_t d, std::int64_t h, std::uint32_t salt) {
  std::uint32_t x = d * 2654435761u +
                    static_cast<std::uint32_t>(h) * 40503u + salt * 97u;
  x ^= x >> 13;
  x *= 2246822519u;
  x ^= x >> 16;
  return static_cast<float>(x & 0xFFFF) / 32768.0f - 1.0f;  // [-1, 1)
}

smart::FeatureSet two_features() {
  return {"t2",
          {{smart::Attr::kRawReadErrorRate, 0},
           {smart::Attr::kTemperatureCelsius, 6}}};
}

// Separable telemetry: goods at +0.8, failures at -0.8 (same construction
// as pipeline_test, so train_and_gate promotes under default rails).
smart::Sample sample_at(std::uint32_t d, std::int64_t h, float bias) {
  smart::Sample s;
  s.hour = h;
  s.set(smart::Attr::kRawReadErrorRate, bias + 0.15f * hval(d, h, 1));
  s.set(smart::Attr::kTemperatureCelsius, hval(d, h, 2));
  return s;
}

std::string good_serial(std::uint32_t d) {
  return "good-" + std::to_string(d);
}

std::vector<smart::DriveRecord> failure_pool() {
  std::vector<smart::DriveRecord> out;
  for (std::uint32_t d = 0; d < kFaileds; ++d) {
    smart::DriveRecord rec;
    rec.serial = "failed-" + std::to_string(d);
    rec.failed = true;
    rec.fail_hour = kWeek;  // training anchors failed rows at fail_hour
    for (std::int64_t h = 0; h < kWeek; ++h) {
      rec.samples.push_back(sample_at(100 + d, h, -0.8f));
    }
    out.push_back(std::move(rec));
  }
  return out;
}

pipeline::PipelineConfig pipeline_config(obs::Registry* reg) {
  pipeline::PipelineConfig pc;
  pc.trainer = core::paper_ct_config();
  pc.trainer.training.features = two_features();
  pc.trainer.training.good_samples_per_drive = 8;
  pc.trainer.vote.voters = 5;
  pc.metrics = reg;
  return pc;
}

class RetrainLoopTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_log_level(LogLevel::kError);
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    base_dir_ = fs::temp_directory_path() /
                (std::string("hdd_retrain_") + info->name());
    fs::remove_all(base_dir_);
    fs::create_directories(base_dir_);

    std::vector<smart::DriveRecord> goods;
    for (std::uint32_t d = 0; d < kGoods; ++d) {
      smart::DriveRecord rec;
      rec.serial = good_serial(d);
      for (std::int64_t h = 0; h < kWeek; ++h) {
        rec.samples.push_back(sample_at(d, h, 0.8f));
      }
      goods.push_back(std::move(rec));
    }
    const auto gate = pipeline::train_and_gate(std::move(goods),
                                               failure_pool(), 1,
                                               pipeline_config(nullptr));
    ASSERT_EQ(gate.outcome, pipeline::Outcome::kPromoted) << gate.reason;
    seed_ = gate.candidate;
  }
  void TearDown() override { fs::remove_all(base_dir_); }

  ShardEngineConfig engine_config(std::size_t shards, obs::Registry* reg) {
    ShardEngineConfig ec;
    ec.dir = (base_dir_ / "s").string();
    ec.shards = shards;
    ec.runtime.scorer = seed_.get();
    ec.runtime.features = two_features();
    ec.runtime.vote.voters = 5;
    ec.runtime.block_rows = 4;
    ec.runtime.metrics = reg;
    ec.runtime.store.metrics = reg;
    ec.runtime.hot_swappable = true;
    return ec;
  }

  // Streams good-drive telemetry into the daemon over the wire.
  static void ingest_goods(Client& client, std::int64_t from,
                           std::int64_t to) {
    for (std::uint32_t d = 0; d < kGoods; ++d) {
      IngestBatch b;
      for (std::int64_t h = from; h < to; ++h) {
        b.serials.push_back(good_serial(d));
        b.samples.push_back(sample_at(d, h, 0.8f));
      }
      const auto r = client.ingest(b);
      ASSERT_EQ(r.accepted, static_cast<std::uint64_t>(to - from));
    }
  }

  fs::path base_dir_;
  std::shared_ptr<const core::SampleScorer> seed_;
};

TEST_F(RetrainLoopTest, ForcedTickPromotesFleetWide) {
  obs::Registry reg;
  ShardEngine engine(engine_config(2, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));

  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  const auto r = loop.tick(/*force=*/true);
  ASSERT_EQ(r.outcome, pipeline::Outcome::kPromoted) << r.reason;
  EXPECT_EQ(r.generation, 1u);
  EXPECT_EQ(engine.model_stats().generation, 1u);
  // Every shard journaled the generation record durably.
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    ASSERT_TRUE(engine.shard(k).store().latest_generation().has_value());
    EXPECT_EQ(engine.shard(k).store().latest_generation()->generation, 1u);
  }
  // The wire stats report the new generation and the promotion outcome.
  const auto st = client.stats();
  EXPECT_EQ(st.generation, 1u);
  EXPECT_EQ(st.last_outcome,
            static_cast<std::uint8_t>(pipeline::Outcome::kPromoted));
  EXPECT_EQ(reg.gauge("hdd_pipeline_generation", "").value(), 1.0);
  EXPECT_EQ(reg.counter("hdd_pipeline_promotions_total", "").value(), 1u);

  // Ingest keeps working against the promoted generation.
  ingest_goods(client, kWeek, kWeek + 4);
  server.stop();
}

TEST_F(RetrainLoopTest, GuardrailRejectionLeavesIncumbent) {
  obs::Registry reg;
  ShardEngine engine(engine_config(1, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.pipeline.guardrail.min_fdr = 1.01;  // unsatisfiable rail
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));

  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  const auto r = loop.tick(/*force=*/true);
  EXPECT_EQ(r.outcome, pipeline::Outcome::kRejectedGuardrail);
  EXPECT_EQ(engine.model_stats().generation, 0u);
  EXPECT_FALSE(engine.shard(0).store().latest_generation().has_value());
  EXPECT_EQ(reg.counter("hdd_pipeline_rejections_total", "",
                        {{"reason", "guardrail"}})
                .value(),
            1u);
  const auto st = client.stats();
  EXPECT_EQ(st.generation, 0u);
  EXPECT_EQ(st.last_outcome,
            static_cast<std::uint8_t>(pipeline::Outcome::kRejectedGuardrail));
  server.stop();
}

TEST_F(RetrainLoopTest, ShadowsBeforePromoting) {
  obs::Registry reg;
  ShardEngine engine(engine_config(2, &reg));
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.pipeline.min_shadow_samples = 50;
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));

  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);

  // Gates pass, but promotion is deferred until the candidate has
  // shadow-scored enough live traffic.
  const auto first = loop.tick(/*force=*/true);
  EXPECT_EQ(first.outcome, pipeline::Outcome::kSkipped);
  EXPECT_TRUE(loop.shadowing());
  EXPECT_EQ(engine.model_stats().generation, 0u);

  // Not enough shadow samples yet: the loop keeps waiting.
  const auto waiting = loop.tick(/*force=*/false);
  EXPECT_EQ(waiting.outcome, pipeline::Outcome::kSkipped);
  EXPECT_TRUE(loop.shadowing());

  // 12 drives x 10 hours = 120 live rows >= 50: the next tick promotes.
  ingest_goods(client, kWeek, kWeek + 10);
  const auto st_shadow = client.stats();
  EXPECT_GE(st_shadow.shadow_samples, 50u);
  const auto second = loop.tick(/*force=*/false);
  EXPECT_EQ(second.outcome, pipeline::Outcome::kPromoted) << second.reason;
  EXPECT_FALSE(loop.shadowing());
  EXPECT_EQ(engine.model_stats().generation, 1u);
  EXPECT_EQ(reg.counter("hdd_pipeline_promotions_total", "").value(), 1u);
  server.stop();
}

// The daemon's loop and the offline UpdatePipeline run one cycle core: on
// the same journal and config they reach the same outcome, journal
// byte-identical model text and count the same hdd_pipeline_* values —
// with and without the shadow stage, and on a rejection.
TEST_F(RetrainLoopTest, TickAndRunCycleAgreeOnTheSameJournal) {
  struct Case {
    std::uint64_t min_shadow_samples;
    double min_fdr;
    pipeline::Outcome outcome;
  };
  for (const Case c : {Case{0, 0.0, pipeline::Outcome::kPromoted},
                       Case{50, 0.0, pipeline::Outcome::kPromoted},
                       Case{0, 1.01, pipeline::Outcome::kRejectedGuardrail}}) {
    SCOPED_TRACE(testing::Message() << "min_shadow_samples "
                                    << c.min_shadow_samples << ", min_fdr "
                                    << c.min_fdr);
    fs::remove_all(base_dir_ / "s");
    const std::string snapshot = (base_dir_ / "snapshot").string();
    fs::remove_all(snapshot);
    auto config = [&](obs::Registry* reg) {
      auto pc = pipeline_config(reg);
      pc.min_shadow_samples = c.min_shadow_samples;
      pc.guardrail.min_fdr = c.min_fdr;
      return pc;
    };

    obs::Registry loop_reg;
    std::string loop_text;
    {
      ShardEngine engine(engine_config(1, &loop_reg));
      ServeOptions so;
      so.metrics = &loop_reg;
      Server server(engine, so);
      server.start();
      RetrainLoopConfig lc;
      lc.pipeline = config(&loop_reg);
      lc.failed_pool = failure_pool();
      RetrainLoop loop(engine, server, std::move(lc));
      Client client;
      client.connect("127.0.0.1", server.port());
      ingest_goods(client, 0, kWeek);
      ASSERT_TRUE(server.run_on_shard(
          0, [&] { (void)engine.shard(0).store().snapshot_to(snapshot); }));

      auto r = loop.tick(/*force=*/true);
      if (c.min_shadow_samples > 0) {
        EXPECT_EQ(r.outcome, pipeline::Outcome::kSkipped);
        r = loop.tick(/*force=*/true);  // forced past the shadow stage
      }
      ASSERT_EQ(r.outcome, c.outcome) << r.reason;
      server.stop();
      const auto& gen = engine.shard(0).store().latest_generation();
      if (gen) loop_text = gen->model_text;
    }

    obs::Registry pipe_reg;
    store::TelemetryStore st(snapshot);
    core::SwappableScorer slot(seed_, 0);
    pipeline::UpdatePipeline pipe(slot, st, failure_pool(), config(&pipe_reg));
    const auto r = pipe.run_cycle(/*force=*/true);
    ASSERT_EQ(r.outcome, c.outcome) << r.reason;
    const auto& gen = st.latest_generation();
    EXPECT_EQ(gen ? gen->model_text : "", loop_text);
    EXPECT_EQ(loop_text.empty(), c.outcome != pipeline::Outcome::kPromoted);

    const auto counter = [](obs::Registry& reg, const char* name,
                            const char* reason) {
      return reason == nullptr
                 ? reg.counter(name, "").value()
                 : reg.counter(name, "", {{"reason", reason}}).value();
    };
    for (const auto& [name, reason] :
         std::vector<std::pair<const char*, const char*>>{
             {"hdd_pipeline_retrain_cycles_total", nullptr},
             {"hdd_pipeline_promotions_total", nullptr},
             {"hdd_pipeline_rejections_total", "lint"},
             {"hdd_pipeline_rejections_total", "guardrail"},
             {"hdd_pipeline_rejections_total", "no_data"},
             {"hdd_pipeline_rejections_total", "train_failed"}}) {
      EXPECT_EQ(counter(loop_reg, name, reason),
                counter(pipe_reg, name, reason))
          << name << (reason != nullptr ? reason : "");
    }
    EXPECT_EQ(counter(pipe_reg, "hdd_pipeline_retrain_cycles_total", nullptr),
              1u);
    EXPECT_EQ(loop_reg.gauge("hdd_pipeline_generation", "").value(),
              pipe_reg.gauge("hdd_pipeline_generation", "").value());
  }
}

// Fails every fsync of shard 1's journal files while `armed` is set: a
// generation record's append makes it that far and then throws.
class ShardOneSyncFails final : public io::EnvWrapper {
 public:
  ShardOneSyncFails() : io::EnvWrapper(io::Env::posix()) {}

  io::IoStatus new_append_file(const std::string& path, bool truncate,
                               std::unique_ptr<io::File>& out) override {
    io::IoStatus s = target().new_append_file(path, truncate, out);
    if (s.ok() && path.find("shard-1") != std::string::npos) {
      out = std::make_unique<Failing>(std::move(out), &armed);
    }
    return s;
  }

  std::atomic<bool> armed{false};

 private:
  class Failing final : public io::File {
   public:
    Failing(std::unique_ptr<io::File> inner, const std::atomic<bool>* armed)
        : inner_(std::move(inner)), armed_(armed) {}
    io::IoStatus append(std::string_view data) override {
      return inner_->append(data);
    }
    io::IoStatus sync() override {
      if (armed_->load()) {
        return io::IoStatus::permanent_error("injected fsync failure");
      }
      return inner_->sync();
    }
    io::IoStatus close() override { return inner_->close(); }

   private:
    std::unique_ptr<io::File> inner_;
    const std::atomic<bool>* armed_;
  };
};

TEST_F(RetrainLoopTest, FailedPromotionDropsTheShadow) {
  obs::Registry reg;
  ShardOneSyncFails env;
  ShardEngineConfig ec = engine_config(2, &reg);
  ec.runtime.store.env = &env;
  ShardEngine engine(ec);
  ServeOptions so;
  so.metrics = &reg;
  Server server(engine, so);
  server.start();

  RetrainLoopConfig lc;
  lc.pipeline = pipeline_config(&reg);
  lc.pipeline.min_shadow_samples = 50;
  lc.failed_pool = failure_pool();
  RetrainLoop loop(engine, server, std::move(lc));

  Client client;
  client.connect("127.0.0.1", server.port());
  ingest_goods(client, 0, kWeek);
  ASSERT_EQ(loop.tick(/*force=*/true).outcome, pipeline::Outcome::kSkipped);
  ASSERT_TRUE(loop.shadowing());
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    ASSERT_TRUE(engine.shard(k).fleet().has_shadow()) << "shard " << k;
  }

  // Shard 0 journals the generation; shard 1's record fails to sync.
  env.armed = true;
  EXPECT_THROW((void)loop.tick(/*force=*/true), DataError);
  env.armed = false;
  EXPECT_FALSE(loop.shadowing());
  EXPECT_EQ(engine.model_stats().generation, 0u);
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    EXPECT_FALSE(engine.shard(k).fleet().has_shadow()) << "shard " << k;
  }
  // Live traffic is no longer shadow-scored by the abandoned candidate.
  const std::uint64_t shadowed = client.stats().shadow_samples;
  ingest_goods(client, kWeek, kWeek + 10);
  EXPECT_EQ(client.stats().shadow_samples, shadowed);
  server.stop();
}

TEST_F(RetrainLoopTest, ResumeReconcilesPartialPromotion) {
  obs::Registry reg;
  std::string model_text;
  {
    std::ostringstream os;
    seed_->save(os);
    model_text = os.str();
  }
  {
    // Ingest directly into a 2-shard engine (no server), then simulate a
    // kill -9 between the two shards' generation appends: only shard 0's
    // journal records generation 1.
    ShardEngine engine(engine_config(2, &reg));
    for (std::uint32_t d = 0; d < kGoods; ++d) {
      IngestBatch b;
      for (std::int64_t h = 0; h < 24; ++h) {
        b.serials.push_back(good_serial(d));
        b.samples.push_back(sample_at(d, h, 0.8f));
      }
      engine.ingest(engine.shard_of(good_serial(d)), b);
    }
    engine.shard(0).store().append_generation(1, model_text);
    engine.seal();
  }
  // A fresh engine resumes: reconciliation re-journals the newest
  // generation into the lagging shard and swaps it in everywhere.
  ShardEngine engine(engine_config(2, nullptr));
  engine.resume();
  EXPECT_EQ(engine.model_stats().generation, 1u);
  for (std::size_t k = 0; k < engine.shard_count(); ++k) {
    EXPECT_EQ(engine.shard(k).model_generation(), 1u) << "shard " << k;
    ASSERT_TRUE(engine.shard(k).store().latest_generation().has_value())
        << "shard " << k;
    EXPECT_EQ(engine.shard(k).store().latest_generation()->generation, 1u);
    EXPECT_EQ(engine.shard(k).store().latest_generation()->model_text,
              model_text);
  }
}

}  // namespace
}  // namespace hdd::serve
