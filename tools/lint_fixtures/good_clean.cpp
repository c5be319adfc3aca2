// Lint fixture: code that satisfies all six checks — literal trace and
// event names and keys (an event's detail argument may be a static
// non-literal expression), no fused multiply-add (comments and strings
// mentioning std::fma or _mm256_fmadd_ps must NOT trip the token scan),
// locking via the annotated wrappers, and a to_json whose keys all
// round-trip. It defines no delay block path, so raw-hot-path has nothing
// to flag.
#include <string>

#include "common/annotated_mutex.h"

struct GoodWidget {
  int size = 0;
  std::string to_json() const;
  static GoodWidget from_json(const std::string& json);

  mutable us3d::Mutex mutex_;
  int guarded_value_ = 0;
};

float clean_kernel(float acc, float w, float g) {
  const char* note = "std::fma is banned; so is _mm256_fmadd_ps";
  (void)note;
  US3D_TRACE_SPAN("kernel.accumulate", "width", 8);
  acc += w * g;  // the contract: multiply, round, add, round
  return acc;
}

void clean_locking(GoodWidget& widget) {
  us3d::MutexLock lock(widget.mutex_);
  ++widget.guarded_value_;
  US3D_TRACE_INSTANT("widget.touched");
}

const char* policy_name(int policy) { return policy == 0 ? "drop" : "keep"; }

void clean_events(int session, int seq, int policy, int depth) {
  US3D_EVENT_INFO("widget.admit");
  US3D_EVENT_WARN("widget.shed", session, seq, policy_name(policy),
                  "depth", depth, "seq", seq);
  US3D_EVENT_ERROR("widget.failed", session, -1,
                   policy == 0 ? "sink" : "worker");
}

std::string GoodWidget::to_json() const {
  JsonWriter w;
  w.begin_object().kv("size", size).end_object();
  return w.str();
}

GoodWidget GoodWidget::from_json(const std::string& json) {
  GoodWidget out;
  for (const auto& [key, value] : parse_json(json).members()) {
    if (key == "size") {
      out.size = value.as_int(key);
    } else {
      throw std::runtime_error("unknown field " + key);
    }
  }
  return out;
}
