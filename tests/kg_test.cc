#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <unordered_set>

#include "kg/etl.h"
#include "kg/key_relations.h"
#include "kg/split.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_store.h"
#include "kg/vocab.h"

namespace pkgm::kg {
namespace {

// ----------------------------------------------------------------- Vocab --

TEST(VocabTest, InterningAssignsDenseIds) {
  Vocab v;
  EXPECT_EQ(v.GetOrAdd("a"), 0u);
  EXPECT_EQ(v.GetOrAdd("b"), 1u);
  EXPECT_EQ(v.GetOrAdd("a"), 0u);
  EXPECT_EQ(v.size(), 2u);
  EXPECT_EQ(v.Name(1), "b");
}

TEST(VocabTest, FindMissing) {
  Vocab v;
  v.GetOrAdd("x");
  EXPECT_EQ(v.Find("y"), kInvalidId);
  EXPECT_TRUE(v.Contains("x"));
  EXPECT_FALSE(v.Contains("y"));
}

// ----------------------------------------------------------- TripleStore --

TEST(TripleStoreTest, AddAndContains) {
  TripleStore s;
  EXPECT_TRUE(s.Add(1, 2, 3));
  EXPECT_FALSE(s.Add(1, 2, 3));  // duplicate
  EXPECT_EQ(s.size(), 1u);
  EXPECT_TRUE(s.Contains(1, 2, 3));
  EXPECT_FALSE(s.Contains(1, 2, 4));
}

TEST(TripleStoreTest, TailsAndHeads) {
  TripleStore s;
  s.Add(1, 7, 10);
  s.Add(1, 7, 11);
  s.Add(2, 7, 10);
  auto tails = s.Tails(1, 7);
  EXPECT_EQ(tails.size(), 2u);
  EXPECT_NE(std::find(tails.begin(), tails.end(), 10u), tails.end());
  EXPECT_NE(std::find(tails.begin(), tails.end(), 11u), tails.end());
  auto heads = s.Heads(7, 10);
  EXPECT_EQ(heads.size(), 2u);
  EXPECT_TRUE(s.Tails(3, 7).empty());
  EXPECT_TRUE(s.Heads(8, 10).empty());
}

TEST(TripleStoreTest, RelationsOfDeduplicates) {
  TripleStore s;
  s.Add(5, 1, 10);
  s.Add(5, 1, 11);  // same relation again
  s.Add(5, 2, 12);
  auto rels = s.RelationsOf(5);
  EXPECT_EQ(rels.size(), 2u);
  EXPECT_TRUE(s.HasRelation(5, 1));
  EXPECT_TRUE(s.HasRelation(5, 2));
  EXPECT_FALSE(s.HasRelation(5, 3));
  EXPECT_TRUE(s.RelationsOf(99).empty());
}

TEST(TripleStoreTest, RelationFrequencies) {
  TripleStore s;
  s.Add(1, 0, 2);
  s.Add(3, 0, 4);
  s.Add(1, 2, 5);
  auto freq = s.RelationFrequencies(3);
  EXPECT_EQ(freq[0], 2u);
  EXPECT_EQ(freq[1], 0u);
  EXPECT_EQ(freq[2], 1u);
}

TEST(TripleStoreTest, RelationFrequenciesKeepOutOfRangeIds) {
  // Regression: a relation id at or above the caller's count used to be
  // silently dropped from the tally; the result must grow instead.
  TripleStore s;
  s.Add(1, 0, 2);
  s.Add(3, 7, 4);  // id 7 >= the declared count of 2
  s.Add(5, 7, 6);
  auto freq = s.RelationFrequencies(2);
  ASSERT_EQ(freq.size(), 8u);
  EXPECT_EQ(freq[0], 1u);
  EXPECT_EQ(freq[1], 0u);
  EXPECT_EQ(freq[7], 2u);
  // Asking for more relations than seen still pads with zeros.
  EXPECT_EQ(s.RelationFrequencies(12).size(), 12u);
}

TEST(TripleStoreTest, RelationCountsTrackAdds) {
  TripleStore s;
  s.Add(1, 0, 2);
  s.Add(1, 0, 3);
  s.Add(1, 0, 3);  // duplicate: ignored
  s.Add(2, 4, 1);
  EXPECT_EQ(s.RelationCount(0), 2u);
  EXPECT_EQ(s.RelationCount(4), 1u);
  EXPECT_EQ(s.RelationCount(3), 0u);
  EXPECT_EQ(s.RelationCount(99), 0u);
}

TEST(TripleStoreTest, MaxIds) {
  TripleStore s;
  s.Add(10, 3, 42);
  EXPECT_EQ(s.MaxEntityId(), 43u);
  EXPECT_EQ(s.MaxRelationId(), 4u);
}

// Property test: random insert sets keep the indexes consistent.
class TripleStoreProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TripleStoreProperty, IndexesConsistentWithTripleList) {
  Rng rng(GetParam());
  TripleStore s;
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> reference;
  for (int i = 0; i < 500; ++i) {
    Triple t{static_cast<EntityId>(rng.Uniform(20)),
             static_cast<RelationId>(rng.Uniform(5)),
             static_cast<EntityId>(rng.Uniform(20))};
    bool added = s.Add(t);
    bool ref_added = reference.insert({t.head, t.relation, t.tail}).second;
    EXPECT_EQ(added, ref_added);
  }
  EXPECT_EQ(s.size(), reference.size());
  // Every stored triple is reachable via both indexes.
  for (const Triple& t : s.triples()) {
    const auto& tails = s.Tails(t.head, t.relation);
    EXPECT_NE(std::find(tails.begin(), tails.end(), t.tail), tails.end());
    const auto& heads = s.Heads(t.relation, t.tail);
    EXPECT_NE(std::find(heads.begin(), heads.end(), t.head), heads.end());
    const auto& rels = s.RelationsOf(t.head);
    EXPECT_NE(std::find(rels.begin(), rels.end(), t.relation), rels.end());
  }
  // RelationsOf contains no duplicates.
  for (EntityId h = 0; h < 20; ++h) {
    const auto& rels = s.RelationsOf(h);
    std::set<RelationId> unique(rels.begin(), rels.end());
    EXPECT_EQ(unique.size(), rels.size());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TripleStoreProperty,
                         ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------------- ETL --

TEST(EtlTest, DropsRareRelations) {
  TripleStore in;
  for (uint32_t i = 0; i < 10; ++i) in.Add(i, 0, 100 + i);  // freq 10
  in.Add(0, 1, 200);                                        // freq 1
  in.Add(1, 1, 201);                                        // freq 2
  EtlStats stats;
  TripleStore out = FilterByRelationFrequency(in, 2, 5, &stats);
  EXPECT_EQ(out.size(), 10u);
  EXPECT_FALSE(out.HasRelation(0, 1));
  EXPECT_EQ(stats.input_triples, 12u);
  EXPECT_EQ(stats.output_triples, 10u);
  EXPECT_EQ(stats.dropped_triples, 2u);
  EXPECT_EQ(stats.input_relations, 2u);
  EXPECT_EQ(stats.output_relations, 1u);
  EXPECT_EQ(stats.dropped_relations, 1u);
}

TEST(EtlTest, ThresholdOneKeepsEverything) {
  TripleStore in;
  in.Add(0, 0, 1);
  in.Add(0, 1, 2);
  EtlStats stats;
  TripleStore out = FilterByRelationFrequency(in, 2, 1, &stats);
  EXPECT_EQ(out.size(), 2u);
  EXPECT_EQ(stats.dropped_triples, 0u);
}

TEST(EtlTest, PreservesIds) {
  TripleStore in;
  in.Add(7, 1, 9);
  in.Add(8, 1, 9);
  TripleStore out = FilterByRelationFrequency(in, 2, 2, nullptr);
  EXPECT_TRUE(out.Contains(7, 1, 9));
  EXPECT_TRUE(out.Contains(8, 1, 9));
}

// ---------------------------------------------------------- SyntheticPkg --

SyntheticPkgOptions SmallPkgOptions(uint64_t seed = 42) {
  SyntheticPkgOptions opt;
  opt.seed = seed;
  opt.num_categories = 5;
  opt.items_per_category = 40;
  opt.properties_per_category = 6;
  opt.shared_property_pool = 8;
  opt.values_per_property = 10;
  opt.products_per_category = 10;
  opt.identity_properties = 2;
  opt.etl_min_occurrence = 5;
  return opt;
}

TEST(SyntheticPkgTest, DeterministicGivenSeed) {
  SyntheticPkg a = SyntheticPkgGenerator(SmallPkgOptions()).Generate();
  SyntheticPkg b = SyntheticPkgGenerator(SmallPkgOptions()).Generate();
  EXPECT_EQ(a.observed.size(), b.observed.size());
  EXPECT_EQ(a.items.size(), b.items.size());
  EXPECT_EQ(a.entities.size(), b.entities.size());
  ASSERT_FALSE(a.observed.triples().empty());
  EXPECT_EQ(a.observed.triples()[0], b.observed.triples()[0]);
}

TEST(SyntheticPkgTest, SchemaShapeMatchesOptions) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  EXPECT_EQ(pkg.num_categories, opt.num_categories);
  ASSERT_EQ(pkg.category_schema.size(), opt.num_categories);
  for (const auto& schema : pkg.category_schema) {
    EXPECT_EQ(schema.size(), opt.properties_per_category);
    std::set<RelationId> unique(schema.begin(), schema.end());
    EXPECT_EQ(unique.size(), schema.size()) << "schema has duplicate props";
  }
}

TEST(SyntheticPkgTest, ItemsHaveFullGroundTruthAssignments) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  ASSERT_GT(pkg.items.size(), 0u);
  for (const auto& item : pkg.items) {
    // Identity properties always apply; non-identity ones only when the
    // product declares them applicable.
    EXPECT_GE(item.attributes.size(), opt.identity_properties);
    EXPECT_LE(item.attributes.size(), opt.properties_per_category);
    EXPECT_LT(item.category, opt.num_categories);
    // Attribute relations match the category schema exactly.
    std::set<RelationId> schema(pkg.category_schema[item.category].begin(),
                                pkg.category_schema[item.category].end());
    for (const auto& [rel, value] : item.attributes) {
      EXPECT_TRUE(schema.count(rel));
    }
  }
}

TEST(SyntheticPkgTest, SameProductSharesIdentityValues) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  // Find two items of the same product.
  std::unordered_map<uint32_t, uint32_t> first_of_product;
  int checked = 0;
  for (uint32_t i = 0; i < pkg.items.size(); ++i) {
    auto [it, inserted] =
        first_of_product.try_emplace(pkg.items[i].product, i);
    if (inserted) continue;
    const auto& a = pkg.items[it->second];
    const auto& b = pkg.items[i];
    for (uint32_t j = 0; j < opt.identity_properties; ++j) {
      EXPECT_EQ(a.attributes[j].first, b.attributes[j].first);
      EXPECT_EQ(a.attributes[j].second, b.attributes[j].second);
    }
    ++checked;
  }
  EXPECT_GT(checked, 0) << "no multi-item product generated";
}

TEST(SyntheticPkgTest, ObservedPlusHeldOutCoversGroundTruthAttributes) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  opt.noise_properties = 0;
  opt.add_item_item_relations = false;
  opt.etl_min_occurrence = 1;  // keep everything
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  uint64_t ground_truth = 0;
  for (const auto& item : pkg.items) ground_truth += item.attributes.size();
  EXPECT_EQ(pkg.observed.size() + pkg.held_out.size(), ground_truth);
}

TEST(SyntheticPkgTest, FillRateControlsHeldOutFraction) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  opt.noise_properties = 0;
  opt.add_item_item_relations = false;
  opt.etl_min_occurrence = 1;
  opt.observed_fill_rate = 0.6;
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  const double total =
      static_cast<double>(pkg.observed.size() + pkg.held_out.size());
  EXPECT_NEAR(pkg.observed.size() / total, 0.6, 0.05);
}

TEST(SyntheticPkgTest, EtlRemovesNoiseProperties) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  opt.noise_properties = 5;
  opt.noise_property_occurrences = 2;
  opt.etl_min_occurrence = 5;
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  EXPECT_GE(pkg.etl_dropped_relations, 5u);
  EXPECT_GE(pkg.etl_dropped_triples, 10u);
  // No noise relation survived in the observed store.
  for (const Triple& t : pkg.observed.triples()) {
    EXPECT_EQ(pkg.relations.Name(t.relation).find("noise_prop"),
              std::string::npos);
  }
}

TEST(SyntheticPkgTest, ShouldHaveRelationMatchesGroundTruth) {
  SyntheticPkg pkg = SyntheticPkgGenerator(SmallPkgOptions()).Generate();
  const auto& item = pkg.items[0];
  // Exactly the item's applicable (ground-truth) relations are "should
  // have"; those relations also expose their ground-truth tails.
  for (const auto& [r, value] : item.attributes) {
    EXPECT_TRUE(pkg.ItemShouldHaveRelation(0, r));
    EXPECT_EQ(pkg.GroundTruthTail(0, r), value);
  }
  // A property outside the item's own attribute list is not expected.
  for (uint32_t c = 0; c < pkg.num_categories; ++c) {
    for (RelationId r : pkg.category_schema[c]) {
      bool in_attrs = false;
      for (const auto& [rel, value] : item.attributes) in_attrs |= rel == r;
      EXPECT_EQ(pkg.ItemShouldHaveRelation(0, r), in_attrs);
    }
  }
}

TEST(SyntheticPkgTest, ItemItemRelationsPresentWhenEnabled) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  opt.add_item_item_relations = true;
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  EXPECT_EQ(pkg.item_relations.size(), 1u);
  EXPECT_TRUE(pkg.relations.Contains("similarTo"));
}

// ----------------------------------------------------------------- Split --

TEST(SplitTest, FractionsRespected) {
  TripleStore s;
  for (uint32_t i = 0; i < 100; ++i) s.Add(i, 0, i + 1000);
  Rng rng(3);
  TripleSplit split = SplitTriples(s, 0.8, 0.1, &rng);
  EXPECT_EQ(split.train.size(), 80u);
  EXPECT_EQ(split.valid.size(), 10u);
  EXPECT_EQ(split.test.size(), 10u);
}

TEST(SplitTest, PartitionIsExactAndDisjoint) {
  TripleStore s;
  for (uint32_t i = 0; i < 57; ++i) s.Add(i, i % 3, i + 100);
  Rng rng(5);
  TripleSplit split = SplitTriples(s, 0.7, 0.15, &rng);
  std::set<std::tuple<uint32_t, uint32_t, uint32_t>> all;
  auto insert_all = [&](const std::vector<Triple>& v) {
    for (const Triple& t : v) {
      EXPECT_TRUE(all.insert({t.head, t.relation, t.tail}).second)
          << "triple appears in two splits";
    }
  };
  insert_all(split.train);
  insert_all(split.valid);
  insert_all(split.test);
  EXPECT_EQ(all.size(), 57u);
}

// ---------------------------------------------------------- KeyRelations --

TEST(KeyRelationsTest, SelectsTopKSchemaProperties) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  std::unordered_set<RelationId> allowed(pkg.property_relations.begin(),
                                         pkg.property_relations.end());
  KeyRelationSelector selector(4, allowed);
  auto per_category = selector.SelectPerCategory(pkg);
  ASSERT_EQ(per_category.size(), pkg.num_categories);
  for (uint32_t c = 0; c < pkg.num_categories; ++c) {
    EXPECT_LE(per_category[c].size(), 4u);
    EXPECT_GT(per_category[c].size(), 0u);
    // Key relations must be schema properties of the category (the observed
    // frequency ordering only ranks them).
    std::set<RelationId> schema(pkg.category_schema[c].begin(),
                                pkg.category_schema[c].end());
    for (RelationId r : per_category[c]) EXPECT_TRUE(schema.count(r));
  }
}

TEST(KeyRelationsTest, PerItemMatchesItemCategory) {
  SyntheticPkg pkg = SyntheticPkgGenerator(SmallPkgOptions()).Generate();
  std::unordered_set<RelationId> allowed(pkg.property_relations.begin(),
                                         pkg.property_relations.end());
  KeyRelationSelector selector(3, allowed);
  auto per_category = selector.SelectPerCategory(pkg);
  auto per_item = selector.SelectPerItem(pkg);
  ASSERT_EQ(per_item.size(), pkg.items.size());
  for (uint32_t i = 0; i < pkg.items.size(); ++i) {
    EXPECT_EQ(per_item[i], per_category[pkg.items[i].category]);
  }
}

TEST(KeyRelationsTest, ExcludesDisallowedRelations) {
  SyntheticPkgOptions opt = SmallPkgOptions();
  opt.add_item_item_relations = true;
  SyntheticPkg pkg = SyntheticPkgGenerator(opt).Generate();
  std::unordered_set<RelationId> allowed(pkg.property_relations.begin(),
                                         pkg.property_relations.end());
  KeyRelationSelector selector(100, allowed);  // take everything allowed
  auto per_category = selector.SelectPerCategory(pkg);
  const RelationId similar = pkg.relations.Find("similarTo");
  ASSERT_NE(similar, kInvalidId);
  for (const auto& rels : per_category) {
    EXPECT_EQ(std::find(rels.begin(), rels.end(), similar), rels.end());
  }
}

}  // namespace
}  // namespace pkgm::kg
