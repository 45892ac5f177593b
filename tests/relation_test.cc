// Tests for tuple storage, indexes, and the active-domain database.
#include "eval/relation.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "eval/database.h"

namespace lps {
namespace {

std::vector<RowId> ToVector(std::span<const RowId> rows) {
  return std::vector<RowId>(rows.begin(), rows.end());
}

TEST(RelationTest, InsertDedupsAndKeepsOrder) {
  Relation rel(2);
  EXPECT_TRUE(rel.Insert({1, 2}));
  EXPECT_TRUE(rel.Insert({3, 4}));
  EXPECT_FALSE(rel.Insert({1, 2}));
  EXPECT_EQ(rel.size(), 2u);
  EXPECT_EQ(rel.MaterializeRow(0), (Tuple{1, 2}));
  EXPECT_EQ(rel.MaterializeRow(1), (Tuple{3, 4}));
  EXPECT_TRUE(rel.Contains({3, 4}));
  EXPECT_FALSE(rel.Contains({4, 3}));
}

TEST(RelationTest, TombstoneChurnKeepsDedupAndLiveViewsCoherent) {
  // Retraction is tombstoning (eval/incremental.h drives it): erase
  // hides the row from Contains/FindRow/live_size but never compacts
  // the arena; Revive undoes an over-delete in place; and a fresh
  // insert of an erased tuple revives its original row rather than
  // appending a duplicate, so toggle churn runs at steady arena size.
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({2, 20});
  rel.Insert({3, 30});
  const Tuple probe{2, 20};
  ASSERT_EQ(rel.Find(probe), 1u);

  EXPECT_TRUE(rel.EraseRow(1));
  EXPECT_FALSE(rel.EraseRow(1));  // already dead
  EXPECT_FALSE(rel.IsLive(1));
  EXPECT_FALSE(rel.Contains({2, 20}));
  EXPECT_EQ(rel.Find(probe), Relation::kNoRow);
  EXPECT_EQ(rel.size(), 3u);       // arena never compacts
  EXPECT_EQ(rel.live_size(), 2u);  // tombstone counted out

  // Live-row enumeration skips the corpse.
  std::vector<RowId> live;
  rel.AllIndices(&live);
  EXPECT_EQ(live, (std::vector<RowId>{0, 2}));

  // Erase + Revive round-trip (the DRed rederive path).
  EXPECT_TRUE(rel.Revive(1));
  EXPECT_FALSE(rel.Revive(1));  // already live
  EXPECT_TRUE(rel.Contains({2, 20}));
  EXPECT_EQ(rel.live_size(), 3u);

  // Dedup stays exact through churn: re-inserting a live tuple is
  // still a no-op, and after a second erase a fresh insert of the
  // same tuple revives row 1 in place - the arena does not grow.
  EXPECT_FALSE(rel.Insert({2, 20}));
  EXPECT_TRUE(rel.EraseRow(1));
  Relation::InsertOutcome out = rel.InsertRow(probe);
  EXPECT_TRUE(out.added);
  EXPECT_TRUE(out.revived);
  EXPECT_EQ(out.row, 1u);
  EXPECT_EQ(rel.size(), 3u);
  EXPECT_EQ(rel.live_size(), 3u);
  EXPECT_EQ(rel.Find(probe), 1u);
  EXPECT_FALSE(rel.Revive(1));  // already live again
  // And a reviving insert ticks the content version like any other
  // successful mutation.
  const uint64_t tick = rel.content_tick();
  EXPECT_TRUE(rel.EraseRow(1));
  EXPECT_GT(rel.content_tick(), tick);
  out = rel.InsertRow(probe);
  EXPECT_TRUE(out.revived);
  EXPECT_GT(rel.content_tick(), tick);
}

TEST(RelationTest, ContentTickAdvancesOnMutationOnly) {
  // The copy-on-write sharing witness (Database::CloneIntoCow): ticks
  // are process-globally unique, advance on every successful content
  // mutation, stand still on no-ops and reads, and copies carry their
  // source's tick - so tick equality across a clone lineage certifies
  // identical content.
  Relation rel(2);
  const uint64_t born = rel.content_tick();
  EXPECT_GT(born, 0u);

  EXPECT_TRUE(rel.Insert({1, 2}));
  const uint64_t after_insert = rel.content_tick();
  EXPECT_GT(after_insert, born);
  EXPECT_FALSE(rel.Insert({1, 2}));  // dedup no-op: tick stands still
  EXPECT_EQ(rel.content_tick(), after_insert);
  EXPECT_TRUE(rel.Contains({1, 2}));  // reads never tick
  EXPECT_EQ(rel.content_tick(), after_insert);

  EXPECT_TRUE(rel.EraseRow(0));
  const uint64_t after_erase = rel.content_tick();
  EXPECT_GT(after_erase, after_insert);
  EXPECT_FALSE(rel.EraseRow(0));  // already dead: no-op
  EXPECT_EQ(rel.content_tick(), after_erase);

  EXPECT_TRUE(rel.Revive(0));
  EXPECT_GT(rel.content_tick(), after_erase);

  // A copy inherits the tick (identical content), and a fresh relation
  // never collides with it even when its row/tombstone counts match.
  Relation copy(rel);
  EXPECT_EQ(copy.content_tick(), rel.content_tick());
  Relation twin(2);
  twin.Insert({1, 2});
  twin.EraseRow(0);
  twin.Revive(0);
  EXPECT_NE(twin.content_tick(), rel.content_tick());
  // Diverging the copy re-stamps it.
  EXPECT_TRUE(copy.Insert({3, 4}));
  EXPECT_NE(copy.content_tick(), rel.content_tick());
}

TEST(RelationTest, IndexLookupByMask) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({1, 20});
  rel.Insert({2, 10});
  // Mask 0b01: first column bound.
  const auto& ones = rel.Lookup(0b01, {1, 0});
  EXPECT_EQ(ones.size(), 2u);
  // Mask 0b10: second column bound.
  const auto& tens = rel.Lookup(0b10, {0, 10});
  EXPECT_EQ(tens.size(), 2u);
  // Full mask.
  EXPECT_EQ(rel.Lookup(0b11, {2, 10}).size(), 1u);
  EXPECT_TRUE(rel.Lookup(0b11, {2, 20}).empty());
}

TEST(RelationTest, IndexCatchesUpAfterInserts) {
  Relation rel(1);
  rel.Insert({7});
  EXPECT_EQ(rel.Lookup(0b1, {7}).size(), 1u);
  rel.Insert({7});  // duplicate: no change
  rel.Insert({8});
  EXPECT_EQ(rel.Lookup(0b1, {8}).size(), 1u);
  EXPECT_EQ(rel.Lookup(0b1, {7}).size(), 1u);
}

TEST(RelationTest, EmptyMaskScansEverything) {
  Relation rel(2);
  rel.Insert({1, 2});
  rel.Insert({3, 4});
  EXPECT_EQ(rel.Lookup(0, {0, 0}).size(), 2u);
  std::vector<uint32_t> all;
  rel.AllIndices(&all);
  EXPECT_EQ(all.size(), 2u);
}

TEST(RelationTest, ZeroArityRelation) {
  Relation rel(0);
  EXPECT_TRUE(rel.Insert({}));
  EXPECT_FALSE(rel.Insert({}));
  EXPECT_EQ(rel.Lookup(0, {}).size(), 1u);
}

// ---- Index maintenance and snapshot reads (parallel evaluator) -------

TEST(RelationTest, LookupSeesTuplesInsertedAfterIndexBuild) {
  Relation rel(2);
  rel.Insert({1, 10});
  // Build the first-column index, then keep growing the relation.
  EXPECT_EQ(rel.Lookup(0b01, {1, 0}).size(), 1u);
  rel.Insert({1, 20});
  rel.Insert({2, 30});
  rel.Insert({1, 40});
  // The index catches up incrementally and in insertion order.
  const auto& hits = rel.Lookup(0b01, {1, 0});
  ASSERT_EQ(hits.size(), 3u);
  EXPECT_EQ(hits[0], 0u);
  EXPECT_EQ(hits[1], 1u);
  EXPECT_EQ(hits[2], 3u);
  // A second mask built late still sees everything.
  EXPECT_EQ(rel.Lookup(0b10, {0, 20}).size(), 1u);
  EXPECT_EQ(rel.Lookup(0b11, {1, 40}).size(), 1u);
}

TEST(RelationTest, EnsureIndexCoversSnapshotProbes) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({2, 20});
  rel.EnsureIndex(0b01);
  std::vector<uint32_t> out;
  // Fully built index: the probe reports an index hit.
  EXPECT_TRUE(rel.LookupSnapshot(0b01, {1, 0}, rel.size(), &out));
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0], 0u);
}

TEST(RelationTest, SnapshotReadsDuringGrowthStayAtWatermark) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({1, 20});
  rel.EnsureIndex(0b01);
  size_t watermark = rel.size();
  // The relation grows past the watermark without the index catching
  // up - exactly the state between two parallel iterations.
  rel.Insert({1, 30});
  rel.Insert({1, 40});
  std::vector<uint32_t> out;
  // Probing at the old watermark still hits the prebuilt index and
  // must not surface post-watermark tuples.
  EXPECT_TRUE(rel.LookupSnapshot(0b01, {1, 0}, watermark, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
  // Probing the full size falls back to a scan (the index is stale)
  // but remains correct.
  EXPECT_FALSE(rel.LookupSnapshot(0b01, {1, 0}, rel.size(), &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3}));
  // After EnsureIndex catches up, the same probe is indexed again.
  rel.EnsureIndex(0b01);
  EXPECT_TRUE(rel.LookupSnapshot(0b01, {1, 0}, rel.size(), &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1, 2, 3}));
}

TEST(RelationTest, SnapshotWithoutIndexFallsBackToScan) {
  Relation rel(2);
  rel.Insert({1, 10});
  rel.Insert({2, 20});
  rel.Insert({1, 30});
  std::vector<uint32_t> out;
  EXPECT_FALSE(rel.LookupSnapshot(0b01, {1, 0}, rel.size(), &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 2}));
  // Watermark below size() truncates the scan too.
  EXPECT_FALSE(rel.LookupSnapshot(0b01, {1, 0}, 1, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0}));
}

TEST(RelationTest, SnapshotEmptyMaskEnumeratesWatermarkPrefix) {
  Relation rel(1);
  rel.Insert({5});
  rel.Insert({6});
  rel.Insert({7});
  std::vector<uint32_t> out;
  EXPECT_TRUE(rel.LookupSnapshot(0, {0}, 2, &out));
  EXPECT_EQ(out, (std::vector<uint32_t>{0, 1}));
}

// ---- Storage parity: randomized differential vs a linear-scan oracle -

// What the storage engine must implement, spelled out the slow way.
std::vector<RowId> OracleLookup(const std::vector<Tuple>& rows,
                                uint32_t mask, const Tuple& key,
                                size_t watermark) {
  std::vector<RowId> out;
  if (watermark > rows.size()) watermark = rows.size();
  for (size_t i = 0; i < watermark; ++i) {
    bool match = true;
    for (size_t c = 0; c < rows[i].size() && match; ++c) {
      if (MaskHasColumn(mask, c) && rows[i][c] != key[c]) match = false;
    }
    if (match) out.push_back(static_cast<RowId>(i));
  }
  return out;
}

uint64_t XorShift(uint64_t* s) {
  *s ^= *s << 13;
  *s ^= *s >> 7;
  *s ^= *s << 17;
  return *s;
}

TEST(RelationTest, RandomizedLookupMatchesLinearScanOracle) {
  constexpr size_t kArity = 3;
  constexpr TermId kUniverse = 6;  // small: plenty of dups + collisions
  uint64_t seed = 0xC0FFEE;
  Relation rel(kArity);
  std::vector<Tuple> rows;  // insertion-order oracle copy (dedup'd)

  auto random_tuple = [&] {
    Tuple t(kArity);
    for (size_t c = 0; c < kArity; ++c) {
      t[c] = static_cast<TermId>(XorShift(&seed) % kUniverse);
    }
    return t;
  };

  for (int op = 0; op < 4000; ++op) {
    uint64_t dice = XorShift(&seed) % 10;
    if (dice < 5) {
      Tuple t = random_tuple();
      bool oracle_new =
          std::find(rows.begin(), rows.end(), t) == rows.end();
      ASSERT_EQ(rel.Insert(t), oracle_new) << "op " << op;
      if (oracle_new) rows.push_back(std::move(t));
      ASSERT_EQ(rel.size(), rows.size());
    } else if (dice < 6) {
      // Build / catch up an index mid-stream at a random mask.
      rel.EnsureIndex(static_cast<uint32_t>(XorShift(&seed) % 8));
    } else if (dice < 8) {
      uint32_t mask = static_cast<uint32_t>(XorShift(&seed) % 8);
      Tuple key = random_tuple();
      ASSERT_EQ(ToVector(rel.Lookup(mask, key)),
                OracleLookup(rows, mask, key, rows.size()))
          << "op " << op << " mask " << mask;
    } else {
      uint32_t mask = static_cast<uint32_t>(XorShift(&seed) % 8);
      Tuple key = random_tuple();
      size_t watermark = XorShift(&seed) % (rows.size() + 2);
      std::vector<RowId> out;
      // Indexed or scan fallback, the result must match the oracle.
      rel.LookupSnapshot(mask, key, watermark, &out);
      ASSERT_EQ(out, OracleLookup(rows, mask, key, watermark))
          << "op " << op << " mask " << mask << " mark " << watermark;
    }
  }
  // Contains parity over everything stored plus fresh randoms.
  for (const Tuple& t : rows) ASSERT_TRUE(rel.Contains(t));
  for (int i = 0; i < 200; ++i) {
    Tuple t = random_tuple();
    ASSERT_EQ(rel.Contains(t),
              std::find(rows.begin(), rows.end(), t) != rows.end());
  }
}

// ---- Mask-width (arity) limit guard ----------------------------------

TEST(RelationTest, ColumnsPastMaskWidthAreNeverMaskBound) {
  static_assert(Relation::kMaxIndexedColumns == 32);
  EXPECT_EQ(ColumnBit(0), 1u);
  EXPECT_EQ(ColumnBit(31), 1u << 31);
  EXPECT_EQ(ColumnBit(32), 0u);   // would be UB as 1u << 32
  EXPECT_EQ(ColumnBit(40), 0u);
  EXPECT_TRUE(MaskHasColumn(0xffffffffu, 31));
  EXPECT_FALSE(MaskHasColumn(0xffffffffu, 32));
}

TEST(RelationTest, WideRelationStoresAndScansPastColumn32) {
  constexpr size_t kWide = 40;
  Relation rel(kWide);
  Tuple a(kWide), b(kWide);
  for (size_t i = 0; i < kWide; ++i) a[i] = b[i] = static_cast<TermId>(i);
  b[35] = 999;  // differs only past the mask width
  EXPECT_TRUE(rel.Insert(a));
  EXPECT_TRUE(rel.Insert(b));   // dedup compares the full row
  EXPECT_FALSE(rel.Insert(a));
  EXPECT_TRUE(rel.Contains(b));
  // An all-ones mask binds only the first 32 columns, so both rows
  // match a key equal to `a` (they agree there); column 35 must be
  // re-checked by the caller's scan-side equality, not the index.
  EXPECT_EQ(rel.Lookup(0xffffffffu, a).size(), 2u);
  // The snapshot scan fallback applies the same masking rule.
  Relation fresh(kWide);
  fresh.Insert(a);
  fresh.Insert(b);
  std::vector<RowId> out;
  EXPECT_FALSE(fresh.LookupSnapshot(0xffffffffu, a, fresh.size(), &out));
  EXPECT_EQ(out, (std::vector<RowId>{0, 1}));
}

// ---- Storage accounting ----------------------------------------------

TEST(RelationTest, StorageAccountingTracksArenaAndIndexes) {
  Relation rel(2);
  EXPECT_EQ(rel.ArenaBytes(), 0u);
  EXPECT_EQ(rel.dedup_probes(), 0u);
  for (TermId i = 0; i < 100; ++i) rel.Insert({i, i + 1});
  EXPECT_GE(rel.ArenaBytes(), 100 * 2 * sizeof(TermId));
  EXPECT_GE(rel.dedup_probes(), 100u);
  size_t before_index = rel.IndexBytes();  // dedup table only
  rel.EnsureIndex(0b01);
  EXPECT_GT(rel.IndexBytes(), before_index);
}

// ---- Bulk insert with presized dedup (Reserve) -----------------------

// Differential: a relation presized up front via Reserve() and driven
// through insert / erase / revive churn must be operation-for-operation
// identical to an unreserved twin that grows one doubling at a time -
// same InsertRow outcomes (added / revived / row), same live views,
// same arena layout - with the presized table paying zero growth
// rehashes during the run. Interleaves tombstone revivals throughout
// because the bulk-load merge stage presizes tables that may already
// hold dead rows.
TEST(RelationTest, BulkInsertWithPresizeMatchesOneAtATimeOracle) {
  Relation presized(2);
  Relation oracle(2);
  constexpr size_t kOps = 4000;
  EXPECT_GT(presized.Reserve(kOps), 0u);   // skipped >= 1 doubling
  EXPECT_EQ(presized.Reserve(0), 0u);      // already big enough: no-op
  EXPECT_EQ(presized.Reserve(kOps), 0u);   // idempotent

  uint64_t rng = 0x9e3779b97f4a7c15ULL;    // deterministic LCG
  auto next = [&rng]() {
    rng = rng * 6364136223846793005ULL + 1442695040888963407ULL;
    return rng >> 33;
  };
  for (size_t i = 0; i < kOps; ++i) {
    const TermId a = static_cast<TermId>(next() % 61);
    const TermId b = static_cast<TermId>(next() % 53);
    const Tuple t{a, b};
    switch (next() % 4) {
      case 0:
      case 1: {  // insert: fresh append, revival, or live dup
        const Relation::InsertOutcome po = presized.InsertRow(t);
        const Relation::InsertOutcome oo = oracle.InsertRow(t);
        ASSERT_EQ(po.added, oo.added);
        ASSERT_EQ(po.revived, oo.revived);
        ASSERT_EQ(po.row, oo.row);
        break;
      }
      case 2: {  // erase whatever Find sees (live rows only)
        const RowId pr = presized.Find(t);
        ASSERT_EQ(pr, oracle.Find(t));
        if (pr != Relation::kNoRow) {
          EXPECT_TRUE(presized.EraseRow(pr));
          EXPECT_TRUE(oracle.EraseRow(pr));
        }
        break;
      }
      default: {  // revive an arbitrary row by id
        if (presized.size() > 0) {
          const RowId r = static_cast<RowId>(next() % presized.size());
          ASSERT_EQ(presized.Revive(r), oracle.Revive(r));
        }
        break;
      }
    }
    ASSERT_EQ(presized.size(), oracle.size());
    ASSERT_EQ(presized.live_size(), oracle.live_size());
  }

  // One arena row per distinct tuple value, ever: 4000 churn ops never
  // grow the arena past the 61*53 value space.
  EXPECT_LE(presized.size(), 61u * 53u);
  EXPECT_GT(presized.size(), 0u);
  for (RowId r = 0; r < presized.size(); ++r) {
    ASSERT_EQ(presized.MaterializeRow(r), oracle.MaterializeRow(r));
    ASSERT_EQ(presized.IsLive(r), oracle.IsLive(r));
  }
  // Mask lookups agree row for row after the churn.
  presized.EnsureIndex(0b01);
  oracle.EnsureIndex(0b01);
  for (TermId a = 0; a < 61; ++a) {
    std::vector<RowId> pv = ToVector(presized.Lookup(0b01, {a, 0}));
    std::vector<RowId> ov = ToVector(oracle.Lookup(0b01, {a, 0}));
    ASSERT_EQ(pv, ov) << "postings diverge for key " << a;
  }
}

// Compact() against a relation built fresh from the live rows, in
// order: same rows at the same RowIds, same Find answers, same
// postings for every mask - across repeated churn/compact cycles, with
// indexes built before the compaction (rebuilt) and after it.
TEST(RelationTest, CompactMatchesFreshRelation) {
  constexpr size_t kArity = 3;
  constexpr TermId kUniverse = 5;
  uint64_t seed = 0xBADC0DE;
  auto random_tuple = [&] {
    Tuple t(kArity);
    for (size_t c = 0; c < kArity; ++c) {
      t[c] = static_cast<TermId>(XorShift(&seed) % kUniverse);
    }
    return t;
  };
  Relation rel(kArity);
  for (int cycle = 0; cycle < 20; ++cycle) {
    for (int op = 0; op < 200; ++op) {
      const uint64_t dice = XorShift(&seed) % 10;
      if (dice < 5) {
        rel.Insert(random_tuple());
      } else if (dice < 8 && rel.size() > 0) {
        rel.EraseRow(static_cast<RowId>(XorShift(&seed) % rel.size()));
      } else if (dice < 9 && rel.size() > 0) {
        rel.Revive(static_cast<RowId>(XorShift(&seed) % rel.size()));
      } else {
        rel.EnsureIndex(static_cast<uint32_t>(XorShift(&seed) % 8));
      }
    }
    Relation fresh(kArity);
    for (RowId r = 0; r < rel.size(); ++r) {
      if (rel.IsLive(r)) fresh.Insert(rel.row(r));
    }
    std::vector<uint32_t> masks;
    for (uint32_t m = 0; m < 8; ++m) {
      if (rel.HasIndexBuilt(m)) masks.push_back(m);
    }
    const uint64_t tick = rel.content_tick();
    rel.Compact();
    if (tick != rel.content_tick()) {
      EXPECT_EQ(rel.dead_count(), 0u);
    }
    ASSERT_EQ(rel.size(), fresh.size()) << "cycle " << cycle;
    ASSERT_EQ(rel.live_size(), fresh.size());
    for (RowId r = 0; r < rel.size(); ++r) {
      ASSERT_EQ(rel.MaterializeRow(r), fresh.MaterializeRow(r));
    }
    for (uint32_t m : masks) EXPECT_TRUE(rel.HasIndexBuilt(m)) << m;
    // Every tuple of the universe: Find agrees (live hit or kNoRow).
    Tuple t(kArity);
    for (TermId a = 0; a < kUniverse; ++a) {
      for (TermId b = 0; b < kUniverse; ++b) {
        for (TermId c = 0; c < kUniverse; ++c) {
          t = {a, b, c};
          ASSERT_EQ(rel.Find(t), fresh.Find(t));
          for (uint32_t m = 0; m < 8; ++m) {
            ASSERT_EQ(ToVector(rel.Lookup(m, t)),
                      ToVector(fresh.Lookup(m, t)))
                << "cycle " << cycle << " mask " << m;
          }
        }
      }
    }
    // Re-inserting a live tuple is still a duplicate.
    if (rel.size() > 0) {
      EXPECT_FALSE(rel.Insert(rel.MaterializeRow(0)));
    }
  }
}

// A standalone MaskIndex (the server's side indexes) over a relation it
// does not own answers like the relation's own index.
TEST(RelationTest, StandaloneMaskIndexMatchesOwnIndex) {
  Relation rel(2);
  uint64_t seed = 77;
  for (int i = 0; i < 500; ++i) {
    rel.Insert({static_cast<TermId>(XorShift(&seed) % 40),
                static_cast<TermId>(XorShift(&seed) % 40)});
    if (i % 7 == 0) rel.EraseRow(static_cast<RowId>(i / 2));
  }
  MaskIndex side(0b01);
  side.CatchUp(rel);
  EXPECT_EQ(side.built_up_to(), rel.size());
  EXPECT_FALSE(rel.HasIndexBuilt(0b01));  // built outside the relation
  for (TermId a = 0; a < 41; ++a) {
    const Tuple key = {a, 0};
    std::vector<RowId> via_side;
    rel.LookupWith(side, key, &via_side);
    std::vector<RowId> via_scan;
    rel.LookupSnapshot(0b01, key, rel.size(), &via_scan);
    ASSERT_EQ(via_side, via_scan) << a;
  }
  EXPECT_GT(side.Bytes(), 0u);
}

class DatabaseTest : public ::testing::Test {
 protected:
  DatabaseTest() : sig_(&store_.symbols()), db_(&store_, &sig_) {}
  TermStore store_;
  Signature sig_;
  Database db_;
};

TEST_F(DatabaseTest, EmptySetAlwaysActive) {
  ASSERT_EQ(db_.set_domain().size(), 1u);
  EXPECT_EQ(db_.set_domain()[0], store_.EmptySet());
}

TEST_F(DatabaseTest, AddTupleRegistersTermsRecursively) {
  PredicateId p = *sig_.Declare("p", {Sort::kSet});
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  TermId inner = store_.MakeSet({a});
  TermId outer = store_.MakeSet({inner, b});
  EXPECT_TRUE(db_.AddTuple(p, {outer}));
  // outer and inner are sets; a and b are atoms.
  EXPECT_EQ(db_.set_domain().size(), 3u);  // {}, inner, outer
  EXPECT_EQ(db_.atom_domain().size(), 2u);
  EXPECT_FALSE(db_.AddTuple(p, {outer}));  // duplicate
  EXPECT_EQ(db_.TupleCount(), 1u);
}

TEST_F(DatabaseTest, VersionBumpsOnNovelty) {
  PredicateId p = *sig_.Declare("p", {Sort::kAtom});
  uint64_t v0 = db_.version();
  db_.AddTuple(p, {store_.MakeConstant("a")});
  uint64_t v1 = db_.version();
  EXPECT_GT(v1, v0);
  db_.AddTuple(p, {store_.MakeConstant("a")});
  EXPECT_EQ(db_.version(), v1);  // duplicate: no bump
}

TEST_F(DatabaseTest, RegisterTermSkipsNonGround) {
  size_t atoms = db_.atom_domain().size();
  db_.RegisterTerm(store_.MakeVariable("X", Sort::kAtom));
  EXPECT_EQ(db_.atom_domain().size(), atoms);
}

TEST_F(DatabaseTest, ToStringDeterministic) {
  PredicateId p = *sig_.Declare("p", {Sort::kAtom});
  PredicateId q = *sig_.Declare("q", {Sort::kAtom});
  db_.AddTuple(q, {store_.MakeConstant("b")});
  db_.AddTuple(p, {store_.MakeConstant("a")});
  EXPECT_EQ(db_.ToString(sig_), "p(a).\nq(b).\n");
}

TEST_F(DatabaseTest, ToStringOrdersByPredicateIdNotInsertion) {
  // Many predicates inserted in reverse and interleaved: the dump must
  // come out in PredicateId order with per-relation insertion order
  // preserved, independent of relations_'s unordered-map iteration.
  std::vector<PredicateId> preds;
  for (char c = 'a'; c <= 'h'; ++c) {
    preds.push_back(*sig_.Declare(std::string(1, c), {Sort::kAtom}));
  }
  TermId x = store_.MakeConstant("x");
  TermId y = store_.MakeConstant("y");
  for (auto it = preds.rbegin(); it != preds.rend(); ++it) {
    db_.AddTuple(*it, {y});
    db_.AddTuple(*it, {x});
  }
  std::string expected;
  for (char c = 'a'; c <= 'h'; ++c) {
    expected += std::string(1, c) + "(y).\n";
    expected += std::string(1, c) + "(x).\n";
  }
  std::string dump = db_.ToString(sig_);
  EXPECT_EQ(dump, expected);
  // And it is stable across repeated calls.
  EXPECT_EQ(db_.ToString(sig_), dump);
}

TEST_F(DatabaseTest, StorageStatsAggregateAcrossRelations) {
  PredicateId p = *sig_.Declare("p", {Sort::kAtom, Sort::kAtom});
  PredicateId q = *sig_.Declare("q", {Sort::kAtom});
  EXPECT_EQ(db_.storage_stats().arena_bytes, 0u);
  TermId a = store_.MakeConstant("a");
  TermId b = store_.MakeConstant("b");
  db_.AddTuple(p, {a, b});
  db_.AddTuple(p, {b, a});
  db_.AddTuple(q, {a});
  Database::StorageStats s = db_.storage_stats();
  EXPECT_GE(s.arena_bytes, 5 * sizeof(TermId));
  EXPECT_GT(s.index_bytes, 0u);  // dedup tables count
  EXPECT_GE(s.dedup_probes, 3u);
}

}  // namespace
}  // namespace lps
