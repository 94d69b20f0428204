// hvbench_driver: runs one benchmark workload for a stated time and prints
// the raw per-repetition results as one JSON line; hvbench/run.py turns them
// into metrics.
//
//   hvbench_driver --workload fleet|compute|lifecycle --seed N --seconds S
//                  [--trace 0|1 --trace-out FILE] [--workers K] [--perturb]
//
// A repetition builds the workload from scratch (set-up), runs its fixed,
// seed-derived scenario (the timed region), then checks its outputs.
// Repetitions repeat while another one is expected to end within S seconds
// (at least kMinReps). Each one simulates the same thing, so their digests
// must agree.

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "hvbench/bench.h"

namespace {

using namespace hvbench;

constexpr size_t kMinReps = 3;
constexpr double kHardLimitSeconds = 140;  // keep a run well inside 180 s

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void PrintSummary(const Options& o, const std::vector<RepResult>& reps) {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::printf("{\"workload\":%s,\"seed\":%llu,\"trace\":%d,\"workers\":%d,\"peak_rss_kib\":%ld,"
              "\"reps\":[",
              JsonString(o.workload).c_str(), static_cast<unsigned long long>(o.seed),
              o.trace ? 1 : 0, o.workers, usage.ru_maxrss);
  for (size_t i = 0; i < reps.size(); ++i) {
    const RepResult& r = reps[i];
    std::printf("%s{\"setup_s\":%.9g,\"sim_ms\":%.9g,\"instructions\":%.17g,"
                "\"attempted\":%llu,\"failed\":%llu,\"digest\":\"%016llx\",\"net_frames\":%.17g,"
                "\"blackout_ms_sim\":[",
                i == 0 ? "" : ",", r.setup_s, r.sim_ms, r.instructions,
                static_cast<unsigned long long>(r.attempted),
                static_cast<unsigned long long>(r.failed),
                static_cast<unsigned long long>(r.digest), r.net_frames);
    for (size_t k = 0; k < r.blackout_ms_sim.size(); ++k) {
      std::printf("%s%.9g", k == 0 ? "" : ",", r.blackout_ms_sim[k]);
    }
    std::printf("],\"call_ms\":[");
    for (size_t k = 0; k < r.call_ms.size(); ++k) {
      std::printf("%s%.6f", k == 0 ? "" : ",", r.call_ms[k]);
    }
    std::printf("],\"ops\":[");
    for (size_t k = 0; k < r.ops.size(); ++k) {
      std::printf("%s[%s,%.6f]", k == 0 ? "" : ",", JsonString(r.ops[k].kind).c_str(),
                  r.ops[k].ms);
    }
    std::printf("],\"failures\":[");
    for (size_t k = 0; k < r.failures.size(); ++k) {
      std::printf("%s%s", k == 0 ? "" : ",", JsonString(r.failures[k]).c_str());
    }
    std::printf("]}");
  }
  std::printf("]}\n");
}

int Usage() {
  std::fprintf(stderr,
               "usage: hvbench_driver --workload fleet|compute|lifecycle --seed N --seconds S\n"
               "                      [--trace 0|1 --trace-out FILE] [--workers K] [--perturb]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    const char* v = nullptr;
    if (arg == "--perturb") {
      o.perturb = true;
    } else if ((v = value()) == nullptr) {
      return Usage();
    } else if (arg == "--workload") {
      o.workload = v;
    } else if (arg == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
    } else if (arg == "--seconds") {
      o.seconds = std::strtod(v, nullptr);
    } else if (arg == "--trace") {
      o.trace = std::strcmp(v, "0") != 0;
    } else if (arg == "--trace-out") {
      o.trace_out = v;
    } else if (arg == "--workers") {
      o.workers = std::atoi(v);
    } else {
      return Usage();
    }
  }
  RepResult (*run)(const Options&, Tracer&) = nullptr;
  if (o.workload == "fleet") {
    run = RunFleet;
  } else if (o.workload == "compute") {
    run = RunCompute;
  } else if (o.workload == "lifecycle") {
    run = RunLifecycle;
  } else {
    return Usage();
  }
  if (o.trace && o.trace_out.empty()) {
    return Usage();
  }
  if (o.workers < 0) {
    // The driver thread plus nproc - 2 workers leaves one core for the rest
    // of the machine: on a shared 4-core Xeon, a fourth simulator thread
    // was no faster than three and swung far more with other load, since
    // every round waits for its slowest lane.
    unsigned n = std::thread::hardware_concurrency();
    o.workers = n > 2 ? static_cast<int>(n) - 2 : 0;
  }

  Tracer tracer(o.trace);
  std::vector<RepResult> reps;
  Stopwatch total;
  for (int i = 0;; ++i) {
    tracer.SetRep(i);
    int span = tracer.Open("rep");
    reps.push_back(run(o, tracer));
    tracer.Close(span);
    double elapsed = total.Seconds();
    double per_rep = elapsed / static_cast<double>(reps.size());
    if (reps.back().failed != 0 || elapsed + per_rep > kHardLimitSeconds) {
      break;
    }
    if (reps.size() >= kMinReps && elapsed + per_rep > o.seconds) {
      break;
    }
  }
  if (o.trace && !tracer.Write(o.trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n", o.trace_out.c_str());
    return 1;
  }
  PrintSummary(o, reps);
  return 0;
}
