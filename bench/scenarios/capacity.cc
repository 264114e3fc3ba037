// Capacity study: footprint sweep past the simulated HTM's write capacity,
// comparing chopped RW-LE ("rwle-chop", a ChoppedSection over RwLeLock)
// against the unchopped schemes. Each write section updates `footprint`
// distinct cache lines of the writer's private stripe (the disjoint-stripe
// precondition concurrent chains require, see src/chop/chopped_section.h);
// readers scan a neighbour's stripe through the elided read path.
//
// Expected shape: while the footprint fits the HTM write capacity
// (HtmConfig::max_write_lines, default 64) all schemes elide and are close.
// Past capacity, every unchopped write attempt aborts persistently
// (kCapacityWrite), demotes through ROT (same write-line limit) and lands on
// the serial NS path -- writers serialize and block all readers for the
// whole 4F-access section. The chopped scheme keeps eliding: pieces of
// kPieceBudgetLines stores each commit speculatively into the chain
// carryover, and only the F-store publication window (plus the chain's
// single amortized quiescence barrier) serializes. The acceptance criterion
// pins chopped >= 2x unchopped rwle throughput at footprints >= 2x capacity.
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/scenarios/scenario.h"
#include "src/chop/chopped_section.h"
#include "src/common/rng.h"
#include "src/locks/elidable_lock.h"
#include "src/memory/tx_var.h"
#include "src/rwle/rwle_lock.h"

namespace rwle {
namespace {

// Half the default HTM write capacity: pieces keep comfortable slack for
// the lock-word subscription and retry wiggle room.
constexpr std::size_t kPieceBudgetLines = 32;

// Mixed sections: writes stress the capacity ladder, readers measure how
// much of the machine the writers' fallback path freezes.
constexpr double kWriteRatio = 0.5;

struct alignas(kCacheLineBytes) PaddedCell {
  TxVar<std::uint64_t> v;
};

// One stripe per worker; each write section touches the whole stripe
// (read-modify-write per cell), each read section sums a neighbour stripe.
class StripeTable {
 public:
  StripeTable(std::uint32_t threads, std::size_t footprint)
      : footprint_(footprint), cells_(threads * footprint) {}

  PaddedCell* Stripe(std::uint32_t index) { return &cells_[index * footprint_]; }
  std::size_t footprint() const { return footprint_; }

 private:
  std::size_t footprint_;
  std::vector<PaddedCell> cells_;
};

// Stencil update: each cell absorbs its two forward neighbours (wrapping),
// i.e. 3 loads + 1 store per cell. The loads stay inside the stripe, so the
// write footprint is exactly `footprint` lines; the wraparound loads at the
// tail read cells this same section already updated, which exercises the
// chain carryover redo in the chopped variant (and the HTM write buffer in
// the unchopped one). Load-heavy sections are the realistic shape for
// capacity victims -- traversals that read far more than they write -- and
// they are exactly where chopping wins: the serial NS path pays all 4F
// accesses under the lock, the chain pays only the F publication stores.
void WriteStripe(PaddedCell* stripe, std::size_t footprint, std::size_t begin,
                 std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    const std::uint64_t a = stripe[i].v.Load();
    const std::uint64_t b = stripe[(i + 1) % footprint].v.Load();
    const std::uint64_t c = stripe[(i + 2) % footprint].v.Load();
    stripe[i].v.Store(a + b + c + 1);
  }
}

std::uint64_t ReadStripe(PaddedCell* stripe, std::size_t footprint) {
  std::uint64_t sum = 0;
  for (std::size_t i = 0; i < footprint; ++i) {
    sum += stripe[i].v.Load();
  }
  return sum;
}

// A read section: sums the next worker's stripe through the elided read path.
void ReadNeighbourStripe(ElidableLock& lock, StripeTable& table, std::uint32_t tid,
                         std::uint32_t threads) {
  std::uint64_t sum = 0;
  lock.Read([&] { sum = ReadStripe(table.Stripe((tid + 1) % threads), table.footprint()); });
  (void)sum;
}

// The chopped variant is a per-callsite composition (ChoppedSection over an
// RwLeLock), not a lock-factory scheme: chopping changes the shape of the
// write *section*, which only the caller knows how to split into pieces.
struct ChoppedStripes {
  ChoppedStripes(RwLeLock& lock, const ChopPolicy& policy, std::uint32_t threads,
                 std::size_t footprint)
      : chopped(lock, policy), table(threads, footprint) {}

  ChoppedSection chopped;
  StripeTable table;
};

void RunChoppedCell(const BenchOptions& options, const Cell& cell, std::size_t footprint,
                    ScenarioRecord& record) {
  const std::size_t pieces = (footprint + kPieceBudgetLines - 1) / kPieceBudgetLines;
  ChopPolicy chop_policy;
  // Disjoint stripes satisfy the chopping precondition, so chains may run
  // concurrently (the serialized default would forfeit writer scaling).
  chop_policy.serialize_chains = false;
  RunCell(
      options, cell, record,
      // Reads go through the adapter (timed, so the JSON latency block covers
      // them); chopped writes drive the underlying lock directly, so write
      // latencies are not sampled for this scheme -- throughput and the chop
      // stats block are unaffected.
      [] { return std::make_unique<LockAdapter<RwLeLock>>("rwle-chop"); },
      [&](LockAdapter<RwLeLock>& adapter) {
        return std::make_unique<ChoppedStripes>(adapter.lock(), chop_policy, cell.threads,
                                                footprint);
      },
      [&](ChoppedStripes& workload, ElidableLock& lock, std::uint32_t tid, Rng&,
          bool is_write) {
        if (!is_write) {
          ReadNeighbourStripe(lock, workload.table, tid, cell.threads);
          return;
        }
        PaddedCell* stripe = workload.table.Stripe(tid);
        workload.chopped.Write(pieces, [&](std::size_t piece) {
          const std::size_t begin = piece * kPieceBudgetLines;
          const std::size_t end = begin + kPieceBudgetLines < footprint
                                      ? begin + kPieceBudgetLines
                                      : footprint;
          WriteStripe(stripe, footprint, begin, end);
        });
      });
}

void RunCapacitySweep(const ScenarioSpec& spec, const BenchOptions& options,
                      const std::vector<std::string>& schemes, ScenarioRecord& record) {
  for (const double panel : spec.panel_values) {
    const std::size_t footprint = static_cast<std::size_t>(panel);
    for (const auto& scheme : schemes) {
      for (const std::uint32_t threads : options.thread_counts) {
        const Cell cell{scheme, static_cast<double>(footprint), kWriteRatio, threads};
        if (scheme == "rwle-chop") {
          RunChoppedCell(options, cell, footprint, record);
          continue;
        }
        RunCell(
            options, cell, record, [&] { return MakeLock(scheme); },
            [&](ElidableLock&) { return std::make_unique<StripeTable>(threads, footprint); },
            [&](StripeTable& table, ElidableLock& lock, std::uint32_t tid, Rng&,
                bool is_write) {
              if (!is_write) {
                ReadNeighbourStripe(lock, table, tid, threads);
                return;
              }
              PaddedCell* stripe = table.Stripe(tid);
              lock.Write([&] { WriteStripe(stripe, footprint, 0, footprint); });
            });
      }
    }
  }
}

}  // namespace

ScenarioSpec CapacityScenario() {
  ScenarioSpec spec;
  spec.name = "capacity";
  spec.figure = "Capacity study";
  spec.title =
      "Capacity study: write-section footprint swept past the HTM write "
      "capacity (chopped RW-LE vs unchopped schemes)";
  spec.panel_label = "written lines per write section";
  // Default HtmConfig capacity is 64 write lines: one panel comfortably
  // inside, one exactly at the edge, two past it (2x and 4x).
  spec.panel_values = {16, 64, 128, 256};
  spec.default_schemes = {"rwle-chop", "rwle", "hle"};
  spec.default_ops = 20000;
  spec.full_ops = 200000;
  spec.run = RunCapacitySweep;
  return spec;
}

}  // namespace rwle
