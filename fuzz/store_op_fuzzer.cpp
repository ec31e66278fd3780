// store_op_fuzzer — byte-driven op sequences against a real TelemetryStore,
// cross-checked per step against an in-memory reference map (the CalicoDB
// db_fuzzer idiom: the fuzzer explores interleavings of the public API, a
// trivial model says what the store must answer).
//
// Ops: register drive / append / append_batch / flush / compact / clean
// reopen / fault reopen (a FaultEnv CrashPoint at a byte-chosen op, or a
// write failure — an ENOSPC budget or short writes — then recovery).
// After every mutating op the store must agree exactly with the
// reference. After a failed write the live store must agree with a clean
// reopen of its directory. After either fault the recovered store must
// hold a per-drive prefix of what was appended, every sample
// byte-identical to what we wrote, and then becomes the new reference
// (lost-tail semantics of kill -9).
#include "fuzz/harness.h"

#include <unistd.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/error.h"
#include "io/env.h"
#include "io/fault_env.h"
#include "store/telemetry_store.h"

namespace hdd::fuzz {

namespace {

struct ByteReader {
  const std::uint8_t* p;
  std::size_t n;
  std::size_t i = 0;

  bool done() const { return i >= n; }
  std::uint8_t u8() { return done() ? 0 : p[i++]; }
};

struct RefDrive {
  std::string serial;
  std::vector<smart::Sample> samples;  // append order, hours strictly up
  std::int64_t next_hour = 0;
};

smart::Sample make_sample(std::int64_t hour, std::uint8_t salt) {
  smart::Sample s;
  s.hour = hour;
  for (std::size_t f = 0; f < s.attrs.size(); ++f) {
    s.attrs[f] = static_cast<float>((salt + 31u * f) % 253u + 1u);
  }
  return s;
}

bool same_sample(const smart::Sample& a, const smart::Sample& b) {
  return a.hour == b.hour && a.attrs == b.attrs;
}

void check_same(const std::vector<smart::Sample>& got,
                const std::vector<smart::Sample>& want) {
  if (got.size() != want.size()) __builtin_trap();
  for (std::size_t k = 0; k < got.size(); ++k) {
    if (!same_sample(got[k], want[k])) __builtin_trap();
  }
}

// Exact agreement: every reference drive is registered, and both
// read_drive and the unbounded read_window return exactly the reference
// samples in order.
void check_exact(const store::TelemetryStore& store,
                 const std::vector<RefDrive>& ref) {
  if (store.drive_count() != ref.size()) __builtin_trap();
  const auto window = store.read_window();
  if (window.size() != ref.size()) __builtin_trap();
  for (std::uint32_t id = 0; id < ref.size(); ++id) {
    if (store.drive(id).serial != ref[id].serial) __builtin_trap();
    if (window[id].serial != ref[id].serial) __builtin_trap();
    check_same(store.read_drive(id), ref[id].samples);
    check_same(window[id].samples, ref[id].samples);
  }
}

// Post-crash agreement: registrations and samples may have lost a tail,
// but whatever survived must be a per-drive prefix of the reference,
// byte-identical sample by sample.
void check_prefix(const store::TelemetryStore& store,
                  const std::vector<RefDrive>& ref) {
  if (store.drive_count() > ref.size()) __builtin_trap();
  for (std::uint32_t id = 0; id < store.drive_count(); ++id) {
    if (store.drive(id).serial != ref[id].serial) __builtin_trap();
    const auto got = store.read_drive(id);
    if (got.size() > ref[id].samples.size()) __builtin_trap();
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (!same_sample(got[k], ref[id].samples[k])) __builtin_trap();
    }
  }
}

// After a failed write (no crash): every drive of the live store answers
// exactly what a clean reopen of its directory recovers.
void check_live_matches_reopen(const store::TelemetryStore& live,
                               const store::StoreOptions& opt) {
  const store::TelemetryStore reopened(live.directory(), opt);
  if (reopened.drive_count() != live.drive_count()) __builtin_trap();
  for (std::uint32_t id = 0; id < live.drive_count(); ++id) {
    const store::DriveInfo& a = live.drive(id);
    const store::DriveInfo& b = reopened.drive(id);
    if (a.serial != b.serial || a.n_samples != b.n_samples ||
        a.last_hour != b.last_hour) {
      __builtin_trap();
    }
    check_same(live.read_drive(id), reopened.read_drive(id));
  }
}

const std::string& scratch_dir() {
  static const std::string dir =
      "/tmp/hdd_store_op_fuzz." + std::to_string(getpid());
  return dir;
}

void wipe_dir(io::Env& env, const std::string& dir) {
  std::vector<std::string> names;
  (void)env.create_dirs(dir);
  if (env.list_dir(dir, names).ok()) {
    for (const std::string& name : names) {
      (void)env.remove_file(dir + "/" + name);
    }
  }
}

}  // namespace

int fuzz_store_op(const std::uint8_t* data, std::size_t size) {
  ByteReader in{data, size};
  io::Env& posix = io::Env::posix();
  const std::string& dir = scratch_dir();
  wipe_dir(posix, dir);

  store::StoreOptions opt;
  // Tiny rotation threshold so op sequences cross segment boundaries.
  opt.segment_bytes = 1024 + 128u * in.u8();
  std::unique_ptr<store::TelemetryStore> store;
  try {
    store = std::make_unique<store::TelemetryStore>(dir, opt);
  } catch (const DataError&) {
    return 0;  // scratch dir unusable; nothing to test
  }

  std::vector<RefDrive> ref;
  constexpr std::size_t kMaxDrives = 8;
  constexpr int kMaxOps = 96;

  for (int step = 0; step < kMaxOps && !in.done(); ++step) {
    const std::uint8_t op = in.u8();
    const std::uint8_t arg = in.u8();
    switch (op % 8) {
      case 0: {  // register (idempotent for a known serial)
        const std::size_t slot = arg % kMaxDrives;
        const std::string serial = "drv-" + std::to_string(slot);
        const std::uint32_t id = store->register_drive(serial);
        if (id >= ref.size()) {
          if (id != ref.size()) __builtin_trap();
          ref.push_back({serial, {}, 0});
        } else if (ref[id].serial != serial) {
          __builtin_trap();
        }
        break;
      }
      case 1:    // append one sample
      case 2: {  // append a small batch
        if (ref.empty()) break;
        const auto id = static_cast<std::uint32_t>(arg % ref.size());
        const std::size_t count = op % 8 == 1 ? 1 : 1 + (in.u8() % 12);
        std::vector<smart::Sample> batch;
        batch.reserve(count);
        for (std::size_t k = 0; k < count; ++k) {
          RefDrive& d = ref[id];
          d.next_hour += 1 + (arg % 5);
          batch.push_back(make_sample(d.next_hour, in.u8()));
        }
        if (op % 8 == 1) {
          store->append(id, batch[0]);
        } else {
          store->append_batch(id, batch.data(), batch.size());
        }
        auto& samples = ref[id].samples;
        samples.insert(samples.end(), batch.begin(), batch.end());
        break;
      }
      case 3:
        store->flush();
        break;
      case 4: {  // compact at a byte-chosen horizon
        const std::int64_t min_hour = static_cast<std::int64_t>(arg) * 2;
        (void)store->compact(min_hour);
        for (RefDrive& d : ref) {
          std::erase_if(d.samples, [min_hour](const smart::Sample& s) {
            return s.hour < min_hour;
          });
        }
        break;
      }
      case 5: {  // clean reopen: close flushes, recovery must lose nothing
        store.reset();
        store = std::make_unique<store::TelemetryStore>(dir, opt);
        break;
      }
      case 6: {  // fault reopen: kill the store mid-op or fail a write
        io::FaultPlan plan;
        plan.seed = arg;
        const std::uint8_t at = in.u8();
        const bool crash = (arg & 2) == 0;
        if (crash) {
          plan.crash_at_op = 1 + (at % 24);
          plan.torn_crash = (arg & 1) != 0;
        } else if ((arg & 4) != 0) {
          plan.enospc_after_bytes = 8u * at;  // within the 32 appends' bytes
        } else {
          plan.short_write_prob = 0.5;
        }
        store.reset();
        auto fault = std::make_unique<io::FaultEnv>(posix, plan);
        store::StoreOptions fopt = opt;
        fopt.env = fault.get();
        try {
          store = std::make_unique<store::TelemetryStore>(dir, fopt);
          // Drive appends until the crash point fires (or the budget runs
          // out — a plan deeper than the remaining ops just never crashes).
          for (int k = 0; k < 32 && !ref.empty(); ++k) {
            const auto id = static_cast<std::uint32_t>(k % ref.size());
            RefDrive& d = ref[id];
            d.next_hour += 1;
            const auto s = make_sample(d.next_hour, arg);
            store->append(id, s);
            d.samples.push_back(s);
          }
          store->flush();
        } catch (const io::CrashPoint&) {
          // Simulated kill -9 mid-op.
        } catch (const DataError&) {
          // A fault surfaced as an I/O failure (before any crash point).
          if (!crash && store != nullptr) {
            check_live_matches_reopen(*store, opt);
          }
        }
        store.reset();  // teardown after a crash must be safe
        fault.reset();
        store = std::make_unique<store::TelemetryStore>(dir, opt);
        check_prefix(*store, ref);
        // Adopt what durably survived: the lost tail stays lost.
        std::vector<RefDrive> survived;
        for (std::uint32_t id = 0; id < store->drive_count(); ++id) {
          RefDrive d;
          d.serial = store->drive(id).serial;
          d.samples = store->read_drive(id);
          d.next_hour = ref[id].next_hour;  // keep hours monotonic
          survived.push_back(std::move(d));
        }
        ref = std::move(survived);
        break;
      }
      case 7: {  // read-path probes on the live store
        (void)store->sample_count();
        (void)store->last_hour();
        if (!ref.empty()) {
          const auto id = static_cast<std::uint32_t>(arg % ref.size());
          (void)store->find_drive(ref[id].serial);
          check_same(store->read_window(arg, arg + 64)[id].samples,
                     store->read_drive(id, arg, arg + 64));
        }
        break;
      }
    }
    check_exact(*store, ref);
  }
  return 0;
}

}  // namespace hdd::fuzz

#ifdef HDD_FUZZ_TARGET
extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  return hdd::fuzz::fuzz_store_op(data, size);
}
#endif
