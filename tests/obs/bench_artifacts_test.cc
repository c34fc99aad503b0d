// Every committed benchmark artifact (BENCH_*.json at the repository root)
// must parse with the obs/validate.h JSON parser: a hand-built emitter
// once shipped an object without a key, and nothing noticed.

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/csv.h"
#include "obs/validate.h"

namespace semtag::obs {
namespace {

std::vector<std::string> BenchArtifacts() {
  std::vector<std::string> paths;
  for (const auto& entry :
       std::filesystem::directory_iterator(SEMTAG_SOURCE_DIR)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("BENCH_", 0) == 0 && entry.path().extension() == ".json") {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

TEST(BenchArtifactsTest, EveryCommittedBenchJsonParses) {
  const std::vector<std::string> paths = BenchArtifacts();
  ASSERT_FALSE(paths.empty()) << "no BENCH_*.json under " << SEMTAG_SOURCE_DIR;
  for (const std::string& path : paths) {
    const auto content = ReadFileToString(path);
    ASSERT_TRUE(content.ok()) << path;
    JsonValue root;
    std::string error;
    EXPECT_TRUE(ParseJson(*content, &root, &error)) << path << ": " << error;
    EXPECT_TRUE(root.is_object()) << path;
  }
}

}  // namespace
}  // namespace semtag::obs
