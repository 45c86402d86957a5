// flower-sim end to end: the replica of seed S in a --seeds=N run is the
// single run of seed S.

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <sstream>
#include <string>
#include <vector>

namespace {

// Runs flower-sim with `args`; returns its stdout.
std::string RunFlowerSim(const std::string& args) {
  std::string cmd = std::string(FLOWER_SIM_BIN) + " " + args + " 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return "";
  std::string out;
  char buf[4096];
  size_t n;
  while ((n = fread(buf, 1, sizeof(buf), pipe)) > 0) out.append(buf, n);
  EXPECT_EQ(pclose(pipe), 0) << cmd;
  return out;
}

// The cells of each "| a | b | ... |" table row.
std::vector<std::vector<std::string>> TableRows(const std::string& text) {
  std::vector<std::vector<std::string>> rows;
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] != '|') continue;
    std::vector<std::string> cells;
    std::istringstream parts(line.substr(1));
    std::string cell;
    while (std::getline(parts, cell, '|')) {
      size_t b = cell.find_first_not_of(' ');
      size_t e = cell.find_last_not_of(' ');
      cells.push_back(b == std::string::npos ? ""
                                             : cell.substr(b, e - b + 1));
    }
    rows.push_back(cells);
  }
  return rows;
}

TEST(FlowerSimTest, SeedReplicaRowEqualsSingleRun) {
  const std::string flags = "--hours=2 --monitoring-period=60 --seed=42";
  std::map<std::string, std::string> single;
  for (const auto& row : TableRows(RunFlowerSim(flags + " --quiet"))) {
    if (row.size() >= 2) single[row[0]] = row[1];
  }
  std::vector<std::string> replica;
  for (const auto& row : TableRows(RunFlowerSim(flags + " --seeds=2"))) {
    if (!row.empty() && row[0] == "42") replica = row;
  }
  ASSERT_EQ(replica.size(), 6u);
  EXPECT_EQ(replica[1], single["drop rate %"]);
  EXPECT_EQ(replica[2], single["analytics out-of-band %"]);
  EXPECT_EQ(replica[3], single["analytics overload %"]);
  EXPECT_EQ(replica[4], single["analytics MAE"]);
  EXPECT_EQ(replica[5], single["resizes"]);
}

}  // namespace
