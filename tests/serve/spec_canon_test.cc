#include "src/serve/spec_canon.h"

#include <gtest/gtest.h>

#include <string>

#include "src/apps/apps.h"
#include "src/measure/mixes.h"
#include "src/runner/cell_seed.h"
#include "src/runner/sweep.h"

namespace affsched {
namespace {

SweepSpec MustParse(const std::string& text) {
  SweepSpec spec;
  std::string error;
  EXPECT_TRUE(ParseSweepSpec(text, &spec, &error)) << text << ": " << error;
  return spec;
}

TEST(SpecCanonTest, EquivalentSpecsCanonicalizeIdentically) {
  // The caching satellite's core claim: override order and float spelling
  // are provenance, not identity. These three parse to the same grid.
  const SweepSpec a = MustParse("smoke;procs=8;speed=2.0;seed=7");
  const SweepSpec b = MustParse("smoke;seed=7;speed=2;procs=8");
  const SweepSpec c = MustParse("smoke;speed=2.000;procs=8;seed=7");
  EXPECT_NE(a.name, b.name);  // provenance differs...
  EXPECT_EQ(CanonicalSpecText(a), CanonicalSpecText(b));  // ...identity does not
  EXPECT_EQ(CanonicalSpecText(b), CanonicalSpecText(c));
  EXPECT_EQ(SweepKey(a), SweepKey(b));
  EXPECT_EQ(SweepKey(b), SweepKey(c));
}

TEST(SpecCanonTest, DifferentGridsGetDifferentKeys) {
  const SweepSpec base = MustParse("smoke");
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;procs=8")));
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;seed=7")));
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;mixes=1")));
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;policies=equi")));
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;observability=1")));
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;balance-interval=10")));
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;topology=cmp-2x10")));
  // Real-time fields are identity: the deadline stamp and the partitioned
  // substrate both change every cell's stats.
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;rt=1")));
  EXPECT_NE(SweepKey(base), SweepKey(MustParse("smoke;colors=8")));
  EXPECT_NE(SweepKey(MustParse("smoke;rt=1")),
            SweepKey(MustParse("smoke;rt=1;deadline-mix=hard")));
  EXPECT_NE(SweepKey(MustParse("smoke;colors=8")), SweepKey(MustParse("smoke;colors=4")));
}

std::string Key(const SweepSpec& spec, PolicyKind policy, int mix, size_t rep, uint64_t seed,
                const std::string& rev = "rev") {
  const std::string jobs = MixJobsDigest(MixJobs(spec, PaperMixes()[mix - 1]));
  return CellKey(CellSpecText(spec), policy, mix, jobs, rep, seed, rev);
}

TEST(SpecCanonTest, CellKeyIgnoresGridShape) {
  // A cell is addressed by what its simulation consumes; which *other*
  // policies ran, the replication bounds, and the observability flag are
  // grid shape. Widening the sweep must reuse the narrow sweep's cells.
  const SweepSpec narrow = MustParse("smoke;policies=equi;reps=2");
  const SweepSpec wide = MustParse("smoke;policies=equi,dyn-aff;reps=2-8;observability=1");
  const uint64_t seed = DeriveCellSeed(narrow.root_seed, 1, 0);
  EXPECT_EQ(Key(narrow, PolicyKind::kEquipartition, 1, 0, seed),
            Key(wide, PolicyKind::kEquipartition, 1, 0, seed));
}

TEST(SpecCanonTest, CellKeyCoversSimulationInputs) {
  const SweepSpec spec = MustParse("smoke");
  const uint64_t seed = DeriveCellSeed(spec.root_seed, 1, 0);
  const PolicyKind equi = PolicyKind::kEquipartition;
  const std::string base = Key(spec, equi, 1, 0, seed);
  // Policy, coordinates, seed, build revision: all identity.
  EXPECT_NE(base, Key(spec, PolicyKind::kDynAff, 1, 0, seed));
  EXPECT_NE(base, Key(spec, equi, 5, 0, seed));
  EXPECT_NE(base, Key(spec, equi, 1, 1, seed));
  EXPECT_NE(base, Key(spec, equi, 1, 0, seed + 1));
  EXPECT_NE(base, Key(spec, equi, 1, 0, seed, "rev2"));
  // Every field CellSpecText renders is identity too, the rt stamp and the
  // color budget included (unlike grid shape).
  for (const char* text :
       {"smoke;procs=8", "smoke;speed=2", "smoke;cache=2", "smoke;topology=cmp-2x10",
        "smoke;balance-interval=10", "smoke;colors=8", "smoke;rt=1"}) {
    EXPECT_NE(base, Key(MustParse(text), equi, 1, 0, seed)) << text;
  }
  EXPECT_NE(Key(MustParse("smoke;rt=1"), equi, 1, 0, seed),
            Key(MustParse("smoke;rt=1;deadline-mix=hard"), equi, 1, 0, seed));
  // With rt off the deadline mix stamps nothing, so it is not identity.
  EXPECT_EQ(base, Key(MustParse("smoke;deadline-mix=hard"), equi, 1, 0, seed));
}

TEST(SpecCanonTest, CellKeyCoversTheMixJobs) {
  // The mix number alone does not say what runs: a library caller may bring
  // its own profiles or its own composition under the same number.
  SweepSpec spec = MustParse("smoke");
  const uint64_t seed = DeriveCellSeed(spec.root_seed, 1, 0);
  const WorkloadMix mix = PaperMixes()[0];
  const std::string cell_spec = CellSpecText(spec);
  const auto key = [&](const SweepSpec& s, const WorkloadMix& m) {
    return CellKey(cell_spec, PolicyKind::kEquipartition, 1, MixJobsDigest(MixJobs(s, m)), 0,
                   seed, "rev");
  };
  const std::string base = key(spec, mix);
  EXPECT_EQ(base, Key(spec, PolicyKind::kEquipartition, 1, 0, seed));

  SweepSpec small = spec;
  small.apps = {MakeSmallMvaProfile(), MakeSmallMatrixProfile(), MakeSmallGravityProfile()};
  EXPECT_NE(base, key(small, mix));

  WorkloadMix other = mix;
  other.gravity += 1;
  EXPECT_NE(base, key(spec, other));

  // One profile field is enough.
  SweepSpec tweaked = spec;
  tweaked.apps[0].thread_overlap += 0.01;
  tweaked.apps[1].thread_overlap += 0.01;
  tweaked.apps[2].thread_overlap += 0.01;
  EXPECT_NE(base, key(tweaked, mix));
}

TEST(SpecCanonTest, KeysAreWellFormedHex) {
  const SweepSpec spec = MustParse("smoke");
  const std::string sweep_key = SweepKey(spec);
  EXPECT_EQ(sweep_key.size(), 16u);
  const std::string cell_key = Key(spec, PolicyKind::kEquipartition, 1, 0, 123);
  EXPECT_EQ(cell_key.size(), 32u);
  for (const char c : cell_key) {
    EXPECT_TRUE((c >= '0' && c <= '9') || (c >= 'a' && c <= 'f')) << cell_key;
  }
}

TEST(SpecCanonTest, Fnv1aIsStable) {
  // Pin the digest so cache keys never drift silently across refactors
  // (entries written by older builds of the *same* git revision must stay
  // reachable).
  EXPECT_EQ(Fnv1a64(""), 14695981039346656037ull);
  EXPECT_EQ(Fnv1a64("a"), 12638187200555641996ull);
  EXPECT_EQ(HashHex(0), "0000000000000000");
  EXPECT_EQ(HashHex(0xdeadbeefull), "00000000deadbeef");
}

}  // namespace
}  // namespace affsched
