// kgacc_audit end to end: the durable CLI path driven as a subprocess.
// The binary's path is compiled in (KGACC_AUDIT_BIN, set by CMake).

#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "kgacc/store/annotation_store.h"
#include "kgacc/util/random.h"

#include <gtest/gtest.h>

namespace kgacc {
namespace {

struct CliRun {
  int exit_code = -1;
  std::string out;
};

std::string Slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

/// Runs kgacc_audit with `args`; stdout is captured, stderr goes to
/// `stderr_path`.
CliRun Audit(const std::string& args, const std::string& stderr_path) {
  const std::string out_path = stderr_path + ".out";
  const std::string command = std::string(KGACC_AUDIT_BIN) + " " + args +
                              " > " + out_path + " 2> " + stderr_path;
  const int status = std::system(command.c_str());
  CliRun run;
  run.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  run.out = Slurp(out_path);
  std::remove(out_path.c_str());
  return run;
}

class KgaccAuditTest : public testing::Test {
 protected:
  void SetUp() override {
    dir_ = testing::TempDir() + "/kgacc_audit_test_" +
           std::to_string(::getpid());
    ASSERT_EQ(std::system(("mkdir -p " + dir_).c_str()), 0);
    // A TWCS-friendly labeled KG: 400 entities with 1-6 facts each.
    kg_ = dir_ + "/kg.tsv";
    std::ofstream tsv(kg_);
    Rng rng(11);
    for (int e = 0; e < 400; ++e) {
      const uint64_t facts = 1 + rng.UniformInt(6);
      for (uint64_t t = 0; t < facts; ++t) {
        tsv << "s" << e << "\tp" << t % 5 << "\to" << rng.UniformInt(1000)
            << "\t" << (rng.Bernoulli(0.85) ? 1 : 0) << "\n";
      }
    }
  }
  void TearDown() override {
    ASSERT_EQ(std::system(("rm -rf " + dir_).c_str()), 0);
  }

  std::string Base() const {
    return "--kg=" + kg_ + " --design=twcs --seed=11 --json";
  }

  std::string dir_;
  std::string kg_;
};

TEST_F(KgaccAuditTest, RefusedLabelIsNeverCheckpointedAndResumeRejudgesIt) {
  const CliRun reference = Audit(Base(), dir_ + "/ref.err");
  ASSERT_EQ(reference.exit_code, 0) << Slurp(dir_ + "/ref.err");
  ASSERT_FALSE(reference.out.empty());

  // Fail-fast store whose first label append exhausts its retries: the
  // audit must stop on that step, before any snapshot certifies it.
  const std::string wal = dir_ + "/audit.wal";
  const CliRun refused =
      Audit(Base() + " --store=" + wal +
                " --store-errors=fail --failpoints=store.append=times:4",
            dir_ + "/refused.err");
  EXPECT_EQ(refused.exit_code, 1) << Slurp(dir_ + "/refused.err");
  {
    auto store = AnnotationStore::Open(wal);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->num_labeled(), 0u);
    EXPECT_EQ((*store)->stats().checkpoints_replayed, 0u);
    EXPECT_FALSE((*store)->HasCheckpoint(11));
  }

  // The disarmed resume re-judges the refused labels (they land in the
  // store) and prints the uninterrupted report byte for byte.
  const CliRun resumed =
      Audit(Base() + " --store=" + wal + " --resume", dir_ + "/resumed.err");
  ASSERT_EQ(resumed.exit_code, 0) << Slurp(dir_ + "/resumed.err");
  EXPECT_EQ(resumed.out, reference.out);
  auto store = AnnotationStore::Open(wal);
  ASSERT_TRUE(store.ok());
  EXPECT_GT((*store)->num_labeled(), 0u);
}

TEST_F(KgaccAuditTest, CrashBetweenStepAndCheckpointResumesByteIdentical) {
  const CliRun reference = Audit(Base(), dir_ + "/ref.err");
  ASSERT_EQ(reference.exit_code, 0) << Slurp(dir_ + "/ref.err");
  const std::string wal = dir_ + "/crash.wal";
  const std::string crash_command = std::string(KGACC_AUDIT_BIN) + " " +
                                    Base() + " --store=" + wal +
                                    " --crash-after-steps=5 > /dev/null";
  const int status = std::system(crash_command.c_str());
  // Died by SIGKILL: seen directly when the shell exec'd the tool, else
  // as the shell's 128 + 9.
  EXPECT_TRUE(WIFSIGNALED(status) ? WTERMSIG(status) == SIGKILL
                                  : WEXITSTATUS(status) == 137)
      << status;
  {
    // Step 5's labels are on file; its snapshot is not.
    auto store = AnnotationStore::Open(wal);
    ASSERT_TRUE(store.ok());
    EXPECT_EQ((*store)->stats().checkpoints_replayed, 4u);
  }
  const CliRun resumed =
      Audit(Base() + " --store=" + wal + " --resume", dir_ + "/resumed.err");
  ASSERT_EQ(resumed.exit_code, 0) << Slurp(dir_ + "/resumed.err");
  EXPECT_EQ(resumed.out, reference.out);
  EXPECT_NE(Slurp(dir_ + "/resumed.err").find("resumed at step 4"),
            std::string::npos);
}

}  // namespace
}  // namespace kgacc
