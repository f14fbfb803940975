#include "provenance.hpp"

#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>

namespace hhc::bench {
namespace {

std::string cpu_model() {
  std::ifstream in{"/proc/cpuinfo"};
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Standard output of a shell command, trailing whitespace trimmed.
std::string command_output(const char* command) {
  std::string out;
  if (FILE* pipe = popen(command, "r")) {
    char buffer[256];
    while (std::fgets(buffer, sizeof buffer, pipe) != nullptr) out += buffer;
    pclose(pipe);
  }
  while (!out.empty() && std::isspace(static_cast<unsigned char>(out.back()))) {
    out.pop_back();
  }
  return out;
}

std::string git_sha() {
  const std::string sha = command_output("git rev-parse HEAD 2>/dev/null");
  if (sha.empty()) return "unknown";
  const bool dirty = !command_output(
      "git status --porcelain --untracked-files=no 2>/dev/null").empty();
  return dirty ? sha + "-dirty" : sha;
}

}  // namespace

void write_provenance(core::JsonWriter& json) {
  json.key("provenance").begin_object()
      .key("git_sha").value(git_sha())
      .key("nproc").value(std::uint64_t{std::thread::hardware_concurrency()})
      .key("cpu").value(cpu_model())
      .key("compiler").value(HHC_BENCH_COMPILER)
      .key("build_type").value(HHC_BENCH_BUILD_TYPE)
      .end_object();
}

}  // namespace hhc::bench
