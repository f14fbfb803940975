// Self-test of the benchmark's answer gate: deliberately corrupted answers
// must fail the checks, so a run cannot report "correct" vacuously.
// Registered with CTest in the benchmark package; exits non-zero on a miss.
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "check.hpp"
#include "core/container_cache.hpp"
#include "core/disjoint.hpp"
#include "pairs.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (ok) return;
  ++failures;
  std::printf("FAIL: %s\n", what.c_str());
}

// The timed phases check ContainerHandles in place; corrupt one node of a
// flattened container and make sure the handle path of the check sees it.
void corrupted_handle_is_caught(const hhc::core::HhcTopology& net) {
  const perfbench::Node s = 1;
  const perfbench::Node t = net.node_count() - 2;
  const hhc::core::DisjointPathSet set = hhc::core::node_disjoint_paths(net, s, t);
  hhc::core::FlatContainer flat;
  flat.offsets.push_back(0);
  for (const hhc::core::Path& path : set.paths) {
    flat.nodes.insert(flat.nodes.end(), path.begin(), path.end());
    flat.offsets.push_back(static_cast<std::uint32_t>(flat.nodes.size()));
  }
  const hhc::core::ContainerHandle good{
      std::make_shared<const hhc::core::FlatContainer>(flat), 0};
  expect(perfbench::check_container(net, s, t, good).empty(),
         "m=" + std::to_string(net.m()) + ": a correct handle is rejected");

  flat.nodes[1] = flat.nodes[flat.offsets[1] + 1];  // share an interior node
  const hhc::core::ContainerHandle bad{
      std::make_shared<const hhc::core::FlatContainer>(flat), 0};
  expect(!perfbench::check_container(net, s, t, bad).empty(),
         "m=" + std::to_string(net.m()) + ": a corrupted handle passes");
  expect(perfbench::walk(good) != perfbench::walk(bad),
         "m=" + std::to_string(net.m()) +
             ": corrupted and correct answers share a fingerprint");
}

}  // namespace

int main() {
  for (unsigned m = 1; m <= 4; ++m) {
    const hhc::core::HhcTopology net{m};
    for (const std::string& name : perfbench::gate_self_test(net)) {
      expect(false, "m=" + std::to_string(m) + ": not caught: " + name);
    }
    corrupted_handle_is_caught(net);
  }
  std::printf("%s\n", failures == 0 ? "perfbench gate self-test: ok"
                                    : "perfbench gate self-test: FAILED");
  return failures == 0 ? 0 : 1;
}
