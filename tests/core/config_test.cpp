#include "dedukt/core/config.hpp"

#include <gtest/gtest.h>

namespace dedukt::core {
namespace {

TEST(ConfigTest, DefaultsAreThePaperOperatingPoint) {
  PipelineConfig config;
  EXPECT_EQ(config.kind, PipelineKind::kGpuSupermer);
  EXPECT_EQ(config.k, 17);
  EXPECT_EQ(config.m, 7);
  EXPECT_EQ(config.window, 15);
  EXPECT_EQ(config.order, kmer::MinimizerOrder::kRandomized);
  EXPECT_EQ(config.exchange, ExchangeMode::kStaged);
  EXPECT_FALSE(config.canonical);
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigTest, EncodingFollowsMinimizerOrder) {
  PipelineConfig config;
  config.order = kmer::MinimizerOrder::kRandomized;
  EXPECT_EQ(config.encoding(), io::BaseEncoding::kRandomized);
  config.order = kmer::MinimizerOrder::kLexicographic;
  EXPECT_EQ(config.encoding(), io::BaseEncoding::kStandard);
}

TEST(ConfigTest, SupermerConfigMirrorsFields) {
  PipelineConfig config;
  config.k = 11;
  config.m = 5;
  config.window = 9;
  const kmer::SupermerConfig sc = config.supermer_config();
  EXPECT_EQ(sc.k, 11);
  EXPECT_EQ(sc.m, 5);
  EXPECT_EQ(sc.window, 9);
}

TEST(ConfigTest, SupermerKindValidatesWindowPacking) {
  PipelineConfig config;
  config.kind = PipelineKind::kGpuSupermer;
  config.window = 16;  // 17+16-1 = 32 > 31 packable bases
  EXPECT_THROW(config.validate(), PreconditionError);
}

TEST(ConfigTest, KmerKindIgnoresWindow) {
  PipelineConfig config;
  config.kind = PipelineKind::kGpuKmer;
  config.window = 100;  // irrelevant for the k-mer pipeline
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigTest, CanonicalOnlyOnCpu) {
  PipelineConfig config;
  config.canonical = true;
  config.kind = PipelineKind::kGpuKmer;
  EXPECT_THROW(config.validate(), PreconditionError);
  config.kind = PipelineKind::kCpu;
  EXPECT_NO_THROW(config.validate());
}

TEST(ConfigTest, ToStringNames) {
  EXPECT_EQ(to_string(PipelineKind::kCpu), "cpu");
  EXPECT_EQ(to_string(PipelineKind::kGpuKmer), "gpu-kmer");
  EXPECT_EQ(to_string(PipelineKind::kGpuSupermer), "gpu-supermer");
  EXPECT_EQ(to_string(ExchangeMode::kStaged), "staged");
  EXPECT_EQ(to_string(ExchangeMode::kGpuDirect), "gpudirect");
}

}  // namespace
}  // namespace dedukt::core
