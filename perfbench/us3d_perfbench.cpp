// us3d_perfbench: one workload of the repository benchmark, in one process.
//
// A single-threaded, seeded load generator drives ImagingService through
// its public API (open_session / submit / poll / stats / close_session). It
// streams one record per frame and per delivered volume to the --records
// file and prints a JSON summary (set-up times, CPU and /proc/stat marks,
// ledgers, spans) on stdout. perfbench/run.py builds this program, runs one
// process per workload (so peak RSS is per workload) and turns the raw
// records into metrics; the arithmetic lives there, next to its tests.
//
//   us3d_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  --records <path>
//   us3d_perfbench --workload <name> --setup 1
//
// The second form times one set-up (ImagingService construction until every
// initial session is admitted) and prints {"setup_s": ...}. It is the first
// set-up of a fresh process, so it pays its own page faults and thread
// spawns; run.py runs it in several processes and reports the median.
//
// Every delivered volume is compared bit for bit against a single-thread
// Beamformer::reconstruct oracle computed once per distinct input during
// set-up (the shot-order sum for compounded sessions), and every closed
// session's ledger must reconcile.
//
// --trace 1 additionally records spans from this file around the calls
// into each layer (the program itself is not instrumented differently),
// during the second half of the timed window and in an attribution phase
// after it:
//   C1  single-thread Beamformer::reconstruct_span with a forwarding
//       DelayEngine that times compute_block and captures each DelayPlane;
//       DasKernel::accumulate_block is then replayed on the captured
//       planes, so scatter = sweep - delay - DAS.
//   C2  a FramePipeline built from the same Scenario the way the service
//       builds one: reconstruct_frame is the parallel sweep, and the
//       session's own client loop replayed against a bare AsyncPipeline
//       gives the runtime's submit-to-delivery latency without the
//       service layer.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "acoustic/echo_synth.h"
#include "beamform/beamformer.h"
#include "common/json_writer.h"
#include "common/prng.h"
#include "imaging/scan_order.h"
#include "imaging/volume.h"
#include "probe/apodization.h"
#include "runtime/async_pipeline.h"
#include "runtime/frame_pipeline.h"
#include "service/imaging_service.h"
#include "service/scenario.h"
#include "simd/dispatch.h"

namespace {

using namespace us3d;
using Clock = std::chrono::steady_clock;
using beamform::VolumeImage;
using runtime::EchoFrame;
using service::EngineFamily;
using service::ImagingService;
using service::PriorityClass;
using service::Scenario;
using service::ServiceBudget;

const Clock::time_point kEpoch = Clock::now();

std::int64_t ns_of(Clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - kEpoch)
      .count();
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double process_cpu_s() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// The number leading a /proc/self/status field ("VmHWM", "Threads", ...).
double status_field(const char* field) {
  std::ifstream status("/proc/self/status");
  const std::string key = std::string(field) + ":";
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind(key, 0) == 0) return std::atof(line.c_str() + key.size());
  }
  return 0.0;
}

/// Peak RSS of this process image. VmHWM rather than getrusage's
/// ru_maxrss: the latter keeps the high-water mark of the process that
/// forked us from before exec (a Python launcher's own RSS), which made
/// the figure depend on the caller.
double peak_rss_mb() { return status_field("VmHWM") / 1024.0; }

double current_rss_mb() { return status_field("VmRSS") / 1024.0; }

int current_threads() { return static_cast<int>(status_field("Threads")); }

// ------------------------------------------------------------------ spans --

/// Spans recorded by this file around calls into the program. Single
/// writer: the generator and the attribution phase both run on the main
/// thread, and the forwarding engine is only swept single-threaded.
class SpanLog {
 public:
  struct Record {
    const char* name;
    std::int64_t start_ns;
    std::int64_t end_ns;
    int parent;
  };

  bool enabled = false;

  int open(const char* name) {
    if (!enabled) return -1;
    const int parent = stack_.empty() ? -1 : stack_.back();
    records_.push_back(Record{name, ns_of(Clock::now()), -1, parent});
    stack_.push_back(static_cast<int>(records_.size()) - 1);
    return stack_.back();
  }
  void close(int index) {
    if (index < 0) return;
    records_[static_cast<std::size_t>(index)].end_ns = ns_of(Clock::now());
    stack_.pop_back();
  }
  const std::vector<Record>& records() const { return records_; }

 private:
  std::vector<Record> records_;
  std::vector<int> stack_;
};

class Span {
 public:
  Span(SpanLog& log, const char* name) : log_(log), index_(log.open(name)) {}
  ~Span() { log_.close(index_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanLog& log_;
  int index_;
};

/// Forwarding engine for the layer split: times every compute_block of the
/// inner engine and, when asked, keeps a copy of each plane so the DAS
/// kernel can be replayed on exactly the planes the sweep consumed.
class TimedEngine final : public delay::DelayEngine {
 public:
  TimedEngine(std::unique_ptr<delay::DelayEngine> inner, SpanLog& log,
              std::vector<delay::DelayPlane>* captured)
      : inner_(std::move(inner)), log_(log), captured_(captured) {}

  std::string name() const override { return inner_->name(); }
  int element_count() const override { return inner_->element_count(); }
  std::unique_ptr<delay::DelayEngine> clone() const override {
    return std::make_unique<TimedEngine>(inner_->clone(), log_, captured_);
  }

 protected:
  void do_begin_frame(const Vec3& origin) override {
    inner_->begin_frame(origin);
  }
  void do_compute(const imaging::FocalPoint& fp,
                  std::span<std::int32_t> out) override {
    inner_->compute(fp, out);
  }
  void do_compute_block(const imaging::FocalBlock& block,
                        delay::DelayPlane& plane) override {
    {
      Span span(log_, "layer.delay");
      inner_->compute_block(block, plane);
    }
    if (captured_ != nullptr) {
      Span span(log_, "layer.capture");
      captured_->push_back(plane);
    }
  }

 private:
  std::unique_ptr<delay::DelayEngine> inner_;
  SpanLog& log_;
  std::vector<delay::DelayPlane>* captured_;
};

// -------------------------------------------------------------- workloads --

struct SessionPlan {
  const char* label;  ///< priority class name, also the record class
  Scenario scenario;
  PriorityClass priority;
  /// Insonifications per second; 0 = closed loop (keep the granted depth
  /// in flight).
  double rate_hz = 0.0;
  /// > 0: the session is closed and reopened every churn_s seconds.
  double churn_s = 0.0;
};

struct WorkloadPlan {
  ServiceBudget budget;
  std::vector<SessionPlan> sessions;
};

constexpr double kWarmupS = 1.0;
constexpr double kStatsPeriodS = 0.1;
constexpr int kDistinctInputs = 4;  ///< per session (groups when K > 1)

Scenario base_scenario(const char* name, EngineFamily engine, int lines,
                       int depth, int workers, int queue_depth) {
  Scenario s;
  s.name = name;
  s.probe_elements = 8;
  s.n_lines = lines;
  s.n_depth = depth;
  s.engine = engine;
  s.worker_threads = workers;
  s.queue_depth = queue_depth;
  return s;
}

std::optional<WorkloadPlan> make_plan(const std::string& workload) {
  WorkloadPlan plan;
  if (workload == "tablefree-stream") {
    plan.budget = ServiceBudget{.worker_threads = 2, .inflight_volumes = 2};
    plan.sessions.push_back(SessionPlan{
        "interactive",
        base_scenario("tablefree-stream", EngineFamily::kTableFree, 12, 24,
                      2, 2),
        PriorityClass::kInteractive});
    return plan;
  }
  if (workload == "fulltable-stream") {
    plan.budget = ServiceBudget{.worker_threads = 2, .inflight_volumes = 3};
    plan.sessions.push_back(SessionPlan{
        "interactive",
        base_scenario("fulltable-stream", EngineFamily::kFullTable, 12, 48,
                      2, 3),
        PriorityClass::kInteractive});
    return plan;
  }
  if (workload == "service-mix") {
    plan.budget = ServiceBudget{.worker_threads = 3, .inflight_volumes = 12};
    plan.sessions.push_back(SessionPlan{
        "interactive",
        base_scenario("mix-interactive-tablefree", EngineFamily::kTableFree,
                      12, 24, 2, 4),
        PriorityClass::kInteractive, 20.0});
    Scenario routine = base_scenario("mix-routine-tablesteer-18b",
                                     EngineFamily::kTableSteer, 12, 24, 1, 4);
    routine.table_bits = 18;
    plan.sessions.push_back(
        SessionPlan{"routine", routine, PriorityClass::kRoutine, 50.0});
    Scenario bulk = base_scenario("mix-bulk-tablesteer-sa",
                                  EngineFamily::kTableSteerSA, 12, 24, 1, 4);
    bulk.compound_origins = 4;
    bulk.sa_origins = 4;
    plan.sessions.push_back(
        SessionPlan{"bulk", bulk, PriorityClass::kBulk, 48.0, 1.0});
    return plan;
  }
  return std::nullopt;
}

// ----------------------------------------------------------------- inputs --

/// The distinct echo frames of one session and their oracle volumes. Frame
/// `sequence` is shot sequence % K of input group (sequence / K) % G, so a
/// session restarted at sequence 0 stays aligned with its compound groups.
struct Inputs {
  int k = 1;
  std::vector<EchoFrame> frames;   ///< G * K, group-major
  std::vector<VolumeImage> oracle;  ///< G

  const EchoFrame& frame(std::int64_t sequence) const {
    const std::int64_t groups = static_cast<std::int64_t>(oracle.size());
    const std::int64_t g = (sequence / k) % groups;
    return frames[static_cast<std::size_t>(g * k + sequence % k)];
  }
  const VolumeImage& expected(std::int64_t last_sequence) const {
    const std::int64_t groups = static_cast<std::int64_t>(oracle.size());
    return oracle[static_cast<std::size_t>((last_sequence / k) % groups)];
  }
};

probe::ApodizationMap service_apodization(const imaging::SystemConfig& cfg) {
  // The apodization ImagingService::open_session builds for every session.
  return probe::ApodizationMap(probe::MatrixProbe(cfg.probe),
                               probe::WindowKind::kRect);
}

Inputs make_inputs(const Scenario& scenario, int groups, SplitMix64& rng) {
  Inputs in;
  in.k = scenario.compound_origins;
  const imaging::SystemConfig cfg = scenario.system();
  const imaging::VolumeGrid grid(cfg.volume);
  const std::vector<Vec3> origins = scenario.origins(in.k);
  const beamform::Beamformer bf(cfg, service_apodization(cfg));
  auto engine = scenario.make_engine();
  for (int g = 0; g < groups; ++g) {
    acoustic::Phantom phantom;
    for (int s = 0; s < 3; ++s) {
      const auto pick = [&](int n) {
        return static_cast<int>(rng.next_below(static_cast<std::uint64_t>(n)));
      };
      phantom.push_back(acoustic::PointScatterer{
          grid.focal_point(pick(cfg.volume.n_theta), pick(cfg.volume.n_phi),
                           pick(cfg.volume.n_depth))
              .position,
          rng.next_in(0.5, 1.5)});
    }
    std::optional<VolumeImage> sum;
    for (int shot = 0; shot < in.k; ++shot) {
      const Vec3 origin = origins[static_cast<std::size_t>(shot)];
      acoustic::SynthesisOptions synth;
      synth.origin = origin;
      EchoFrame frame{acoustic::synthesize_echoes(cfg, phantom, synth), origin,
                      0};
      beamform::BeamformOptions options;
      options.order = scenario.order;
      options.origin = origin;
      VolumeImage volume = bf.reconstruct(frame.echoes, *engine, options);
      // Shot-order sum, as the compound stage accumulates.
      if (sum) {
        sum->add(volume);
      } else {
        sum.emplace(std::move(volume));
      }
      in.frames.push_back(std::move(frame));
    }
    in.oracle.push_back(std::move(*sum));
  }
  return in;
}

bool same_bits(const VolumeImage& a, const VolumeImage& b) {
  const imaging::VolumeSpec& s = a.spec();
  if (a.voxel_count() != b.voxel_count()) return false;
  for (int t = 0; t < s.n_theta; ++t) {
    for (int p = 0; p < s.n_phi; ++p) {
      for (int d = 0; d < s.n_depth; ++d) {
        if (std::bit_cast<std::uint32_t>(a.at(t, p, d)) !=
            std::bit_cast<std::uint32_t>(b.at(t, p, d))) {
          return false;
        }
      }
    }
  }
  return true;
}

// -------------------------------------------------------------- generator --

enum Status : int { kDelivered = 0, kWrong = 1, kShed = 2, kLost = 3 };

struct Record {
  int cls;
  std::int64_t due_ns;
  std::int64_t sent_ns;
  std::int64_t delivered_ns = -1;
  int status = kLost;
};

/// Process CPU seconds and the machine's /proc/stat counters at an
/// instant: slices the window for per-slice CPU cost and for the share of
/// the vCPUs' time the hypervisor stole.
struct CpuMark {
  std::int64_t t_ns;
  double cpu_s;
  std::int64_t steal_ticks;
  std::int64_t idle_ticks;  ///< idle + iowait
  std::int64_t total_ticks;
};

CpuMark cpu_mark() {
  CpuMark m{ns_of(Clock::now()), process_cpu_s(), 0, 0, 0};
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // aggregate "cpu" line: user nice system idle iowait irq
                // softirq steal guest guest_nice
  for (int field = 0; field < 8; ++field) {
    std::int64_t ticks = 0;
    stat >> ticks;
    m.total_ticks += ticks;
    if (field == 3 || field == 4) m.idle_ticks += ticks;
    if (field == 7) m.steal_ticks = ticks;
  }
  return m;
}

/// Finished records, streamed to a file as they complete, so the
/// benchmark's own memory stays flat and peak RSS is the program's. One
/// line each: "<tag> cls due_ns sent_ns delivered_ns status" for a frame
/// ("s" service run, "a" AsyncPipeline replay) and "d t_ns voxels
/// insonifications" for a delivered volume.
class RecordFile {
 public:
  explicit RecordFile(const std::string& path) : out_(path) {
    if (!out_) throw std::runtime_error("cannot write " + path);
  }
  void frame(char tag, const Record& r) {
    out_ << tag << ' ' << r.cls << ' ' << r.due_ns << ' ' << r.sent_ns << ' '
         << r.delivered_ns << ' ' << r.status << '\n';
  }
  void delivery(std::int64_t t_ns, std::int64_t voxels, int insonifications) {
    out_ << "d " << t_ns << ' ' << voxels << ' ' << insonifications << '\n';
  }
  void close() {
    out_.close();
    if (!out_) throw std::runtime_error("record file write failed");
  }

 private:
  std::ofstream out_;
};

/// Where a client's frames go: an ImagingService session, or (attribution
/// phase C2) a bare AsyncPipeline.
struct Endpoint {
  std::function<bool(EchoFrame&&)> submit;
  std::function<void(const runtime::VolumeSink&)> poll;
};

struct Client {
  int index = 0;  ///< position in WorkloadPlan::sessions
  const SessionPlan* plan = nullptr;
  const Inputs* inputs = nullptr;
  Endpoint endpoint;
  int session = -1;  ///< service session id (service runs only)
  int depth = 1;     ///< granted depth: closed-loop frames in flight
  int workers = 1;   ///< granted worker cap at admission
  std::int64_t next_seq = 0;
  /// The copy of the next frame, made right after the previous submit so
  /// that copying an MB-sized echo buffer never sits between a frame's due
  /// time and its submit.
  std::optional<EchoFrame> spare;
  std::map<std::int64_t, Record> outstanding;  ///< by sequence
  Clock::time_point next_due{};
  Clock::time_point next_churn{};
  bool draining = false;
};

class Generator {
 public:
  /// `tag` marks this generator's frame records in `records`.
  Generator(SpanLog& log, RecordFile& records, char tag)
      : log_(log), records_(records), tag_(tag) {}

  /// Makes the spare copy of frame `next_seq` unless it is already there.
  static void prepare(Client& c) {
    if (c.spare && c.spare->sequence == c.next_seq) return;
    c.spare = c.inputs->frame(c.next_seq);
    c.spare->sequence = c.next_seq;
  }

  void submit(Client& c, Clock::time_point due) {
    prepare(c);
    EchoFrame frame = std::move(*c.spare);
    c.spare.reset();
    Record r{c.index, ns_of(due), 0};
    const Clock::time_point sent = Clock::now();
    bool accepted = false;
    {
      Span span(log_, "service.submit");
      accepted = c.endpoint.submit(std::move(frame));
    }
    r.sent_ns = ns_of(sent);
    ++attempted;
    if (accepted) {
      c.outstanding.emplace(c.next_seq, r);
      backlog_max = std::max(backlog_max,
                             static_cast<std::int64_t>(c.outstanding.size()));
    } else {
      r.status = kShed;
      records_.frame(tag_, r);
    }
    ++c.next_seq;
    prepare(c);
  }

  /// Writes out whatever the client never got back.
  void lose_outstanding(Client& c) {
    for (const auto& [seq, r] : c.outstanding) records_.frame(tag_, r);
    c.outstanding.clear();
  }

  runtime::VolumeSink sink(Client& c) {
    return [this, &c](const VolumeImage& volume, std::int64_t sequence) {
      const Clock::time_point now = Clock::now();
      bool ok = false;
      {
        Span span(log_, "bench.verify");
        ok = same_bits(volume, c.inputs->expected(sequence));
      }
      if (!ok) ++mismatches;
      int folded = 0;
      for (auto it = c.outstanding.begin();
           it != c.outstanding.end() && it->first <= sequence;) {
        Record& r = it->second;
        r.delivered_ns = ns_of(now);
        r.status = ok ? kDelivered : kWrong;
        records_.frame(tag_, r);
        ++folded;
        it = c.outstanding.erase(it);
      }
      records_.delivery(ns_of(now), volume.voxel_count(), folded);
    };
  }

  void poll(Client& c) {
    const runtime::VolumeSink s = sink(c);
    Span span(log_, "service.poll");
    c.endpoint.poll(s);
  }

  /// Submits whatever the client's loop calls for at `now`. With
  /// `finish_group`, only the rest of a compound group that the end of a
  /// window cut short: every delivered volume must sum a whole group, or
  /// it would not match its oracle.
  void feed(Client& c, Clock::time_point now, bool finish_group = false) {
    const auto wanted = [&] {
      return !finish_group || c.next_seq % c.inputs->k != 0;
    };
    if (c.draining) return;
    if (c.plan->rate_hz <= 0.0) {
      while (static_cast<int>(c.outstanding.size()) < c.depth && wanted()) {
        submit(c, now);
      }
      return;
    }
    const auto period = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(1.0 / c.plan->rate_hz));
    while (c.next_due <= now && wanted()) {
      submit(c, c.next_due);
      c.next_due += period;
    }
  }

  std::int64_t mismatches = 0;
  std::int64_t attempted = 0;
  std::int64_t backlog_max = 0;

 private:
  SpanLog& log_;
  RecordFile& records_;
  char tag_;
};

constexpr auto kPollInterval = std::chrono::microseconds(100);

/// `"key":[v, ...]`.
template <typename T>
void json_array(JsonWriter& w, std::string_view key,
                const std::vector<T>& values) {
  w.key(key).begin_array();
  for (const T& v : values) w.value(v);
  w.end_array();
}

// ------------------------------------------------------------- the phases --

struct ClosedSession {
  std::string label;
  bool reconciles = false;
  bool failed = false;
  std::int64_t delivered_insonifications = 0;
  std::string simd_backend;
  std::string precision;
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool setup_only = false;  ///< --setup 1: time one set-up and exit
  std::string records;      ///< path of the streamed record file
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      a.trace = value == "1";
    } else if (key == "--setup") {
      a.setup_only = value == "1";
    } else if (key == "--records") {
      a.records = value;
    } else {
      return std::nullopt;
    }
  }
  if (argc % 2 != 1 || a.workload.empty() ||
      (a.records.empty() && !a.setup_only) || !(a.seconds > 0.0)) {
    return std::nullopt;
  }
  return a;
}

/// Times one set-up: ImagingService construction until every initial
/// session is admitted.
int run_setup(const WorkloadPlan& plan) {
  const Clock::time_point t0 = Clock::now();
  ImagingService svc(plan.budget);
  std::vector<int> sessions;
  for (const SessionPlan& sp : plan.sessions) {
    const service::Admission adm = svc.open_session(
        sp.scenario, service::SessionOptions{.priority = sp.priority});
    if (!adm.admitted) {
      throw std::runtime_error("admission refused: " + adm.reason);
    }
    sessions.push_back(adm.session);
  }
  const double setup_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  for (const int id : sessions) svc.close_session(id);
  std::ostringstream os;
  os.precision(17);
  JsonWriter w(os);
  w.begin_object().kv("setup_s", setup_s).end_object();
  std::cout << os.str() << '\n';
  return 0;
}

int run(const Args& args) {
  const std::optional<WorkloadPlan> maybe_plan = make_plan(args.workload);
  if (!maybe_plan) {
    std::cerr << "unknown workload '" << args.workload << "'\n";
    return 2;
  }
  const WorkloadPlan& plan = *maybe_plan;
  if (args.setup_only) return run_setup(plan);

  // Inputs and oracles: outside every timed region.
  SplitMix64 rng(args.seed);
  std::vector<Inputs> inputs;
  for (const SessionPlan& sp : plan.sessions) {
    inputs.push_back(make_inputs(sp.scenario, kDistinctInputs, rng));
  }

  SpanLog log;
  RecordFile record_file(args.records);
  Generator gen(log, record_file, 's');
  std::vector<Client> clients(plan.sessions.size());
  std::vector<ClosedSession> closed;
  std::vector<double> open_ms;
  std::vector<double> close_ms;

  std::unique_ptr<ImagingService> svc;
  const auto open = [&](Client& c) {
    const Clock::time_point t0 = Clock::now();
    service::Admission adm;
    {
      Span span(log, "service.open_session");
      adm = svc->open_session(c.plan->scenario,
                              service::SessionOptions{.priority = c.plan->priority});
    }
    open_ms.push_back(ms_between(t0, Clock::now()));
    if (!adm.admitted) {
      throw std::runtime_error("admission refused: " + adm.reason);
    }
    c.session = adm.session;
    c.depth = adm.granted_depth;
    c.workers = adm.granted_workers;
    c.next_seq = 0;
    c.outstanding.clear();
    ImagingService* service = svc.get();
    const int id = c.session;
    c.endpoint.submit = [service, id](EchoFrame&& f) {
      return service->submit(id, std::move(f));
    };
    c.endpoint.poll = [service, id](const runtime::VolumeSink& sink) {
      service->poll(id, sink);
    };
  };
  const auto close = [&](Client& c) {
    const Clock::time_point t0 = Clock::now();
    service::SessionStats st;
    {
      Span span(log, "service.close_session");
      st = svc->close_session(c.session, gen.sink(c));
    }
    close_ms.push_back(ms_between(t0, Clock::now()));
    closed.push_back(ClosedSession{c.plan->label, st.reconciles(), st.failed,
                                   st.delivered_insonifications,
                                   st.pipeline.simd_backend, st.precision});
    c.session = -1;
  };

  // The service that runs the workload. setup_s is timed in fresh
  // processes instead (run_setup): this one's heap is already warm from
  // synthesising the inputs.
  const double rss0 = current_rss_mb();
  svc = std::make_unique<ImagingService>(plan.budget);
  for (std::size_t i = 0; i < clients.size(); ++i) {
    clients[i].index = static_cast<int>(i);
    clients[i].plan = &plan.sessions[i];
    clients[i].inputs = &inputs[i];
    open(clients[i]);
  }
  const double session_rss_mb = current_rss_mb() - rss0;
  int threads_peak = current_threads();

  // The timed run.
  const Clock::time_point t_start = Clock::now();
  const auto to_duration = [](double s) {
    return std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(s));
  };
  const Clock::time_point w_start = t_start + to_duration(kWarmupS);
  const Clock::time_point w_end = w_start + to_duration(args.seconds);
  const Clock::time_point trace_from =
      args.trace ? w_start + to_duration(args.seconds / 2.0) : w_end;
  for (std::size_t i = 0; i < clients.size(); ++i) {
    Client& c = clients[i];
    // Stagger open-loop sessions so their frames do not all fall due at
    // the same instant.
    if (c.plan->rate_hz > 0.0) {
      c.next_due = t_start + to_duration(static_cast<double>(i) /
                                         (c.plan->rate_hz *
                                          static_cast<double>(clients.size())));
    }
    if (c.plan->churn_s > 0.0) c.next_churn = t_start + to_duration(c.plan->churn_s);
  }
  std::vector<double> stats_ms;
  std::vector<CpuMark> cpu_marks;
  std::int64_t stats_unbounded = 0;
  Clock::time_point next_stats = t_start;
  double cpu_w_start = 0.0;
  double cpu_trace_from = 0.0;
  bool in_window = false;
  for (Clock::time_point now = Clock::now(); now < w_end; now = Clock::now()) {
    if (!in_window && now >= w_start) {
      in_window = true;
      cpu_w_start = process_cpu_s();
    }
    if (!log.enabled && now >= trace_from) {
      cpu_trace_from = process_cpu_s();
      log.enabled = true;
    }
    for (Client& c : clients) {
      gen.poll(c);
      if (c.draining && c.outstanding.empty()) {
        close(c);
        open(c);
        // next_due stays on its schedule: the frames that fell due during
        // the churn go out now, timed from their original due times.
        c.draining = false;
        c.next_churn += to_duration(c.plan->churn_s);
      }
      now = Clock::now();
      if (c.plan->churn_s > 0.0 && !c.draining && now >= c.next_churn &&
          c.next_seq % c.inputs->k == 0) {
        c.draining = true;  // finish the last group, then close and reopen
      }
      gen.feed(c, now);
    }
    if (now >= next_stats) {
      const Clock::time_point t0 = Clock::now();
      {
        Span span(log, "service.stats");
        if (!svc->stats().ledger_bounded()) ++stats_unbounded;
      }
      stats_ms.push_back(ms_between(t0, Clock::now()));
      cpu_marks.push_back(cpu_mark());
      threads_peak = std::max(threads_peak, current_threads());
      next_stats += to_duration(kStatsPeriodS);
    }
    // Poll every kPollInterval while a frame is out (or a session drains);
    // otherwise sleep until the next frame falls due or the next tick.
    bool waiting = false;
    Clock::time_point wake = std::min(next_stats, w_end);
    for (const Client& c : clients) {
      waiting = waiting || c.draining || !c.outstanding.empty();
      if (c.plan->rate_hz > 0.0 && !c.draining) wake = std::min(wake, c.next_due);
    }
    if (waiting) wake = std::min(wake, Clock::now() + kPollInterval);
    std::this_thread::sleep_until(wake);
  }
  const double cpu_w_end = process_cpu_s();
  if (!args.trace) cpu_trace_from = cpu_w_end;
  log.enabled = false;

  // Drain: complete any cut-short compound group, then every accepted
  // frame must come back before close.
  const Clock::time_point drain_deadline = Clock::now() + std::chrono::seconds(30);
  for (bool pending = true; pending && Clock::now() < drain_deadline;) {
    pending = false;
    for (Client& c : clients) {
      gen.poll(c);
      gen.feed(c, Clock::now(), /*finish_group=*/true);
      pending = pending || !c.outstanding.empty() ||
                c.next_seq % c.inputs->k != 0;
    }
    if (pending) std::this_thread::sleep_for(kPollInterval);
  }
  std::string simd_backend;
  std::string precision;
  for (Client& c : clients) {
    close(c);
    gen.lose_outstanding(c);
  }
  for (const ClosedSession& cs : closed) {
    if (simd_backend.empty()) simd_backend = cs.simd_backend;
    if (precision.empty()) precision = cs.precision;
  }
  threads_peak = std::max(threads_peak, current_threads());
  svc.reset();
  const double rss_peak = peak_rss_mb();

  // Attribution (trace runs only).
  std::vector<std::int64_t> frame_voxels;
  std::vector<int> c2_workers;
  if (args.trace) {
    log.enabled = true;
    Generator async_gen(log, record_file, 'a');
    for (std::size_t i = 0; i < plan.sessions.size(); ++i) {
      // One top-level span per session plan groups its C1/C2 spans.
      Span attribution(log, "attribution");
      const SessionPlan& sp = plan.sessions[i];
      const Scenario& sc = sp.scenario;
      const imaging::SystemConfig cfg = sc.system();
      const probe::ApodizationMap apod = service_apodization(cfg);
      const runtime::PipelineConfig pc_base = sc.pipeline_config();
      beamform::BeamformOptions options;
      options.order = pc_base.order;
      options.simd = simd::resolve_backend(pc_base.simd);
      options.precision = simd::resolve_precision(pc_base.precision);

      // C1: single-thread layer split.
      const beamform::Beamformer bf(cfg, apod);
      std::vector<delay::DelayPlane> captured;
      const TimedEngine prototype(sc.make_engine(), log, &captured);
      const std::unique_ptr<delay::DelayEngine> engine = prototype.clone();
      beamform::BeamformScratch scratch;
      VolumeImage image(cfg.volume);
      std::vector<double> acc(static_cast<std::size_t>(
          beamform::Beamformer::auto_block_points(engine->element_count())));
      const imaging::ScanRange range =
          imaging::full_scan_range(cfg.volume, options.order);
      const Clock::time_point c1_end = Clock::now() + std::chrono::milliseconds(600);
      for (std::int64_t f = 0; f < 4 || Clock::now() < c1_end; ++f) {
        const EchoFrame& frame = inputs[i].frame(f);
        options.origin = frame.origin;
        engine->begin_frame(frame.origin);
        captured.clear();
        {
          Span span(log, "layer.sweep");
          bf.reconstruct_span(frame.echoes, *engine, range, image, scratch,
                              options);
        }
        for (const delay::DelayPlane& plane : captured) {
          if (acc.size() < static_cast<std::size_t>(plane.point_count())) {
            acc.resize(static_cast<std::size_t>(plane.point_count()));
          }
          Span span(log, "layer.das");
          bf.kernel().accumulate_block(frame.echoes, plane, acc, options.simd);
        }
      }

      frame_voxels.push_back(image.voxel_count());

      // C2: the service's pipeline shape, without the service.
      runtime::PipelineConfig pc = pc_base;
      pc.worker_threads = std::min(sc.worker_threads, plan.budget.worker_threads);
      pc.queue_depth = clients[i].depth;
      runtime::FramePipeline pipeline(cfg, apod, *sc.make_engine(), pc);
      pipeline.set_worker_cap(clients[i].workers);
      c2_workers.push_back(pipeline.worker_cap());
      const Clock::time_point c2_end = Clock::now() + std::chrono::milliseconds(400);
      for (std::int64_t f = 0; f < 4 || Clock::now() < c2_end; ++f) {
        const EchoFrame& frame = inputs[i].frame(f * sc.compound_origins);
        Span span(log, "runtime.sweep");
        pipeline.reconstruct_frame(frame.echoes, frame.origin);
      }
      runtime::AsyncPipeline async(
          pipeline, runtime::AsyncOptions{.depth = clients[i].depth,
                                          .compound_origins = sc.compound_origins});
      Client c;
      c.index = static_cast<int>(i);
      c.plan = &sp;
      c.inputs = &inputs[i];
      c.depth = clients[i].depth;
      c.endpoint.submit = [&async](EchoFrame&& f) { return async.try_submit(f); };
      c.endpoint.poll = [&async](const runtime::VolumeSink& sink) {
        while (async.poll(sink)) {
        }
      };
      const Clock::time_point a_start = Clock::now();
      const Clock::time_point a_end = a_start + std::chrono::milliseconds(1000);
      c.next_due = a_start;
      for (Clock::time_point now = a_start;
           now < a_end || c.next_seq % c.inputs->k != 0; now = Clock::now()) {
        async_gen.poll(c);
        async_gen.feed(c, Clock::now(), /*finish_group=*/now >= a_end);
        Clock::time_point wake =
            now < a_end ? a_end : Clock::time_point::max();
        if (sp.rate_hz > 0.0) wake = std::min(wake, c.next_due);
        if (!c.outstanding.empty()) {
          wake = std::min(wake, Clock::now() + kPollInterval);
        }
        std::this_thread::sleep_until(wake);
      }
      async.close();
      async.finish(async_gen.sink(c));
      async.rethrow_if_failed();
      if (!c.outstanding.empty()) throw std::runtime_error("async replay lost frames");
      gen.mismatches += async_gen.mismatches;
    }
    log.enabled = false;
  }

  // ------------------------------------------------------------ output --
  record_file.close();
  std::ostringstream os;
  os.precision(17);
  JsonWriter w(os);
  w.begin_object()
      .kv("workload", args.workload)
      .kv("seed", args.seed)
      .kv("seconds", args.seconds)
      .kv("trace", args.trace ? 1 : 0)
      .kv("simd_backend", simd_backend)
      .kv("precision", precision);
  w.key("classes").begin_array();
  for (const SessionPlan& sp : plan.sessions) w.value(sp.label);
  w.end_array();
  json_array(w, "open_session_ms", open_ms);
  json_array(w, "close_session_ms", close_ms);
  w.kv("session_rss_mb", session_rss_mb)
      .kv("window_start_ns", ns_of(w_start))
      .kv("window_end_ns", ns_of(w_end))
      .kv("trace_from_ns", ns_of(trace_from))
      .kv("cpu_window_start_s", cpu_w_start)
      .kv("cpu_trace_from_s", cpu_trace_from)
      .kv("cpu_window_end_s", cpu_w_end)
      .kv("peak_rss_mb", rss_peak)
      .kv("threads_peak", threads_peak)
      .kv("backlog_max", gen.backlog_max)
      .kv("attempted", gen.attempted)
      .kv("mismatches", gen.mismatches)
      .kv("stats_unbounded", stats_unbounded);
  json_array(w, "stats_ms", stats_ms);
  w.key("cpu_marks").begin_array();
  for (const CpuMark& m : cpu_marks) {
    w.begin_array()
        .value(m.t_ns)
        .value(m.cpu_s)
        .value(m.steal_ticks)
        .value(m.idle_ticks)
        .value(m.total_ticks)
        .end_array();
  }
  w.end_array();
  w.key("sessions").begin_array();
  for (const ClosedSession& cs : closed) {
    w.begin_object()
        .kv("class", cs.label)
        .kv("reconciles", cs.reconciles)
        .kv("failed", cs.failed)
        .kv("delivered_insonifications", cs.delivered_insonifications)
        .end_object();
  }
  w.end_array();
  json_array(w, "frame_voxels", frame_voxels);
  json_array(w, "c2_workers", c2_workers);
  w.key("spans").begin_array();
  for (const SpanLog::Record& sr : log.records()) {
    w.begin_array()
        .value(sr.name)
        .value(sr.start_ns)
        .value(sr.end_ns)
        .value(sr.parent)
        .end_array();
  }
  w.end_array().end_object();
  std::cout << os.str() << '\n';
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<Args> args = parse_args(argc, argv);
  if (!args) {
    std::cerr << "usage: us3d_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --records <path>\n"
                 "       us3d_perfbench --workload <name> --setup 1\n";
    return 2;
  }
  try {
    return run(*args);
  } catch (const std::exception& e) {
    std::cerr << "us3d_perfbench: " << e.what() << '\n';
    return 1;
  }
}
