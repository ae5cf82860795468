// splitft_perfbench: runs one benchmark workload against the public API of
// Testbed / StorageApp / NclFile and prints one JSON object with the
// report's virt / host / traced maps. perfbench/run.py drives it.
//
//   splitft_perfbench --workload ycsb_a_kv|tenants_pooled|recover_redis
//                     [--seed N] [--seconds S] [--trace 0|1] [--small]
//                     [--inject-mismatch] [--out-dir DIR]
//
// Exit status: 0 when the workload ran (failures are counted in the JSON),
// 2 on a usage error.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "perfbench/src/bench.h"

namespace {

using perfbench::Report;
using perfbench::RunConfig;

std::string Escape(const std::string& in) {
  std::string out;
  for (char c : in) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out.push_back(' ');
    } else {
      out.push_back(c);
    }
  }
  return out;
}

void PrintMap(const char* key, const std::map<std::string, double>& values) {
  std::printf(", \"%s\": {", key);
  bool first = true;
  for (const auto& [name, value] : values) {
    double v = std::isfinite(value) ? value : 0.0;
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", Escape(name).c_str(), v);
    first = false;
  }
  std::printf("}");
}

int Usage(const char* msg) {
  std::fprintf(stderr,
               "error: %s\nusage: splitft_perfbench --workload NAME "
               "[--seed N] [--seconds S] [--trace 0|1] [--small] "
               "[--inject-mismatch] [--out-dir DIR]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--small") {
      config.small = true;
    } else if (arg == "--inject-mismatch") {
      config.inject_mismatch = true;
    } else if (arg == "--workload" || arg == "--seed" || arg == "--seconds" ||
               arg == "--trace" || arg == "--out-dir") {
      const char* v = value();
      if (v == nullptr) {
        return Usage((arg + " needs a value").c_str());
      }
      char* end = nullptr;
      if (arg == "--workload") {
        config.workload = v;
      } else if (arg == "--out-dir") {
        config.out_dir = v;
      } else if (arg == "--seed") {
        config.seed = std::strtoull(v, &end, 0);
      } else if (arg == "--seconds") {
        config.seconds = std::strtod(v, &end);
      } else {
        config.trace = std::strtol(v, &end, 10) != 0;
      }
      if (end != nullptr && (end == v || *end != '\0')) {
        return Usage(("bad value for " + arg + ": " + v).c_str());
      }
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!(config.seconds > 0) || config.seconds > 3600) {
    return Usage("--seconds must be in (0, 3600]");
  }
  // Warnings from the layers (e.g. a failed commit) go to stderr; the
  // report counts the failures themselves.
  Report report;
  if (config.workload == "ycsb_a_kv") {
    perfbench::RunYcsbKv(config, &report);
  } else if (config.workload == "tenants_pooled") {
    perfbench::RunTenantsPooled(config, &report);
  } else if (config.workload == "recover_redis") {
    perfbench::RunRecoverRedis(config, &report);
  } else {
    return Usage(("unknown workload '" + config.workload + "'").c_str());
  }
  report.host["peak_rss_mb"] = perfbench::PeakRssMb();

  std::printf("{\"workload\": \"%s\", \"seed\": %llu, \"attempted\": %llu, "
              "\"failed\": %llu, \"errors\": [",
              Escape(config.workload).c_str(),
              static_cast<unsigned long long>(config.seed),
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (size_t i = 0; i < report.errors.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                Escape(report.errors[i]).c_str());
  }
  std::printf("]");
  PrintMap("virt", report.virt);
  PrintMap("host", report.host);
  PrintMap("traced", report.traced);
  std::printf("}\n");
  return 0;
}
