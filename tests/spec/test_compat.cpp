// Compatibility-lattice properties (cross-key sharing).
//
// compatible() must be an equivalence relation over randomly generated
// specs, siblings of one image must land in one class, and two specs whose
// base images fall in different Fig. 2(b) categories must *never* share a
// class — the invariant that keeps re-specialization from ever crossing an
// image-family boundary.
#include "spec/compat.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/rng.hpp"
#include "spec/corpus.hpp"
#include "spec/dockerfile.hpp"

namespace hotc::spec {
namespace {

RunSpec sibling(const std::string& image, const std::string& tag,
                const std::string& func) {
  RunSpec s;
  s.image = ImageRef{image, tag};
  s.network = NetworkMode::kBridge;
  s.env["FUNC"] = func;
  s.command = "handler " + func;
  return s;
}

/// A random spec drawn from a small grid: enough shape variety to exercise
/// every class-identity field and every delta field.
RunSpec random_spec(Rng& rng) {
  static const char* kImages[] = {"python", "golang", "node", "ubuntu",
                                  "redis"};
  static const char* kTags[] = {"latest", "3.8", "slim"};
  RunSpec s;
  s.image = ImageRef{kImages[rng.index(5)], kTags[rng.index(3)]};
  s.network = rng.index(2) == 0 ? NetworkMode::kBridge : NetworkMode::kHost;
  s.uts = rng.index(2) == 0 ? NamespaceMode::kPrivate : NamespaceMode::kHost;
  s.privileged = rng.index(4) == 0;
  s.read_only_rootfs = rng.index(4) == 0;
  for (std::size_t i = 0, n = rng.index(3); i < n; ++i) {
    s.env["K" + std::to_string(i)] = std::to_string(rng.index(10));
  }
  for (std::size_t i = 0, n = rng.index(2); i < n; ++i) {
    s.volumes.push_back("/host" + std::to_string(rng.index(4)) + ":/data");
  }
  if (rng.index(2) == 0) s.memory_limit = 256 * 1024 * 1024;
  s.command = rng.index(2) == 0 ? "run.sh" : "serve";
  return s;
}

TEST(CompatLattice, ReflexiveAndSymmetric) {
  Rng rng(7);
  std::vector<RunSpec> specs;
  for (int i = 0; i < 64; ++i) specs.push_back(random_spec(rng));
  for (const auto& a : specs) {
    EXPECT_TRUE(compatible(a, a));
    for (const auto& b : specs) {
      EXPECT_EQ(compatible(a, b), compatible(b, a));
    }
  }
}

TEST(CompatLattice, TransitiveOverRandomSpecs) {
  Rng rng(11);
  std::vector<RunSpec> specs;
  for (int i = 0; i < 32; ++i) specs.push_back(random_spec(rng));
  for (const auto& a : specs) {
    for (const auto& b : specs) {
      if (!compatible(a, b)) continue;
      for (const auto& c : specs) {
        if (compatible(b, c)) {
          EXPECT_TRUE(compatible(a, c));
        }
      }
    }
  }
}

TEST(CompatLattice, ClassEqualityMatchesCompatible) {
  // compatible() compares the class-shaping fields in place; it must
  // agree with equality of the interned class text on every pair.  The
  // corpus brings realistic image names (many shared, Zipf-popular); a
  // copy of each with a random sandbox shape and the random grid cover
  // the remaining class fields.
  CorpusOptions opt;
  opt.files = 120;
  std::vector<RunSpec> specs;
  for (const CorpusEntry& entry : generate_corpus(opt)) {
    auto parsed = Dockerfile::parse(entry.dockerfile_text);
    if (parsed.ok()) specs.push_back(spec_from_dockerfile(parsed.value()));
  }
  ASSERT_GT(specs.size(), 100u);
  Rng rng(19);
  const std::size_t corpus_size = specs.size();
  for (std::size_t i = 0; i < corpus_size; ++i) {
    RunSpec s = specs[i];
    s.network = static_cast<NetworkMode>(rng.index(6));
    s.ipc = static_cast<NamespaceMode>(rng.index(3));
    s.pid = static_cast<NamespaceMode>(rng.index(3));
    s.read_only_rootfs = rng.index(2) == 0;
    specs.push_back(std::move(s));
  }
  Rng grid(13);
  for (int i = 0; i < 128; ++i) specs.push_back(random_spec(grid));

  std::vector<CompatClass> classes;
  classes.reserve(specs.size());
  for (const RunSpec& s : specs) classes.push_back(CompatClass::from_spec(s));
  std::size_t compatible_pairs = 0;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    for (std::size_t j = 0; j < specs.size(); ++j) {
      const bool same_class = classes[i] == classes[j];
      ASSERT_EQ(compatible(specs[i], specs[j]), same_class)
          << classes[i].text() << " vs " << classes[j].text();
      if (same_class && i != j) ++compatible_pairs;
    }
  }
  EXPECT_GT(compatible_pairs, 0u);  // both outcomes were exercised
}

TEST(CompatLattice, SiblingsOfOneImageShareAClass) {
  const RunSpec a = sibling("python", "3.8", "thumbnail");
  const RunSpec b = sibling("python", "3.8", "resize");
  EXPECT_TRUE(compatible(a, b));
  const CompatDelta d = compat_delta(a, b);
  EXPECT_EQ(d.env_changes, 1u);  // FUNC rewritten
  EXPECT_TRUE(d.command_differs);
  EXPECT_FALSE(d.tag_differs);
}

TEST(CompatLattice, TagIsDeltaNotIdentity) {
  const RunSpec a = sibling("python", "3.8", "fn");
  const RunSpec b = sibling("python", "3.9", "fn");
  EXPECT_TRUE(compatible(a, b));
  EXPECT_TRUE(compat_delta(a, b).tag_differs);
}

TEST(CompatLattice, NeverAcrossBaseImageCategories) {
  // Exhaustive over the image grid: whenever two names classify into
  // different Fig. 2(b) categories, no combination of the remaining
  // fields may make them compatible (the name is part of the class, so
  // this holds a fortiori — the test pins the stronger categorical claim).
  Rng rng(17);
  for (int i = 0; i < 256; ++i) {
    const RunSpec a = random_spec(rng);
    const RunSpec b = random_spec(rng);
    if (classify_base_image(a.image.name) !=
        classify_base_image(b.image.name)) {
      EXPECT_FALSE(compatible(a, b))
          << a.image.name << " vs " << b.image.name;
    }
  }
}

TEST(CompatLattice, SandboxShapeSplitsClasses) {
  const RunSpec base = sibling("python", "3.8", "fn");

  RunSpec host_net = base;
  host_net.network = NetworkMode::kHost;
  EXPECT_FALSE(compatible(base, host_net));

  RunSpec priv = base;
  priv.privileged = true;
  EXPECT_FALSE(compatible(base, priv));

  RunSpec extra_vol = base;
  extra_vol.volumes.push_back("/h:/c");
  EXPECT_FALSE(compatible(base, extra_vol));  // topology, not host path

  RunSpec revolume = base;
  revolume.volumes.push_back("/h1:/c");
  RunSpec revolume2 = base;
  revolume2.volumes.push_back("/h2:/c");
  EXPECT_TRUE(compatible(revolume, revolume2));  // same count, new source
  EXPECT_EQ(compat_delta(revolume, revolume2).volume_changes, 1u);
}

TEST(CompatLattice, DeltaOfIdenticalSpecsIsEmpty) {
  const RunSpec a = sibling("node", "14", "fn");
  EXPECT_TRUE(compat_delta(a, a).empty());
}

TEST(CompatLattice, HashIsStableAndConsistent) {
  const RunSpec a = sibling("golang", "1.15", "alpha");
  const RunSpec b = sibling("golang", "1.15", "beta");
  const CompatClass ca = CompatClass::from_spec(a);
  const CompatClass cb = CompatClass::from_spec(b);
  EXPECT_EQ(ca, cb);
  EXPECT_EQ(ca.hash(), cb.hash());
  EXPECT_EQ(ca.text(), cb.text());
  EXPECT_EQ(ca.hash(), CompatClass::from_spec(a).hash());  // deterministic
  EXPECT_FALSE(ca.empty());
}

}  // namespace
}  // namespace hotc::spec
