#ifndef MIRABENCH_INPUTS_H_
#define MIRABENCH_INPUTS_H_

// Seeded inputs of every workload: one WikiTables-style corpus cut to a fixed
// cell count, the judged queries, and a stream of fresh query texts.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common.h"
#include "datagen/concept_bank.h"
#include "datagen/query_generator.h"
#include "ir/metrics.h"
#include "table/relation.h"

namespace mirabench {

/// Non-empty cells the corpus is cut to; a cut lands within 1% of it.
inline constexpr size_t kTargetCells = 14000;
/// Judged queries (with at least one relevant table) every run needs.
inline constexpr size_t kMinJudged = 600;

/// Independent 64-bit stream `stream` of `seed` (splitmix64 finaliser).
uint64_t Mix(uint64_t seed, uint64_t stream);

struct Inputs {
  /// The same for every seed; its lexicon teaches the encoder.
  mira::datagen::ConceptBank bank;
  mira::table::Federation federation;
  size_t num_cells = 0;
  /// Distinct texts, each with a relevant table, short/moderate/long
  /// interleaved.
  std::vector<mira::datagen::GeneratedQuery> judged;
  mira::ir::Qrels qrels;

  double Ndcg10(const mira::datagen::GeneratedQuery& query,
                const std::vector<uint32_t>& top_ids) const;
};

/// Draws the corpus, queries and judgments of `seed`.
Inputs MakeInputs(uint64_t seed);

/// Checks the input guards (cell count, judged-query count) into `result`
/// and prints them to stderr.
void CheckInputs(const Inputs& inputs, RunResult* result);

/// Deterministic stream of fresh query texts for the closed loops: classes
/// interleaved, none equal to a judged query or to a text handed out before,
/// so no closed-loop text repeats (repeat share 0 by construction).
class FreshQueries {
 public:
  FreshQueries(const Inputs& inputs, uint64_t seed);
  /// Replaces `out` with the next `n` texts.
  void Next(size_t n, std::vector<std::string>* out);
  /// False once the set of handed-out texts is too full to stay exact;
  /// texts handed out after that are no longer checked for repeats.
  bool ok() const { return size_ < capacity(); }
  /// Texts that can still be handed out while the set stays exact.
  size_t room() const { return ok() ? capacity() - size_ : 0; }

 private:
  size_t capacity() const { return slots_.size() / 10 * 7; }
  void Refill();
  /// Records `text`; returns false when it was recorded before.
  bool Insert(std::string_view text);

  const mira::datagen::ConceptBank* bank_;
  uint64_t seed_;
  std::deque<std::string> pending_;
  uint64_t chunk_ = 0;
  /// Open-addressing set of 64-bit text hashes: the judged texts and every
  /// text handed out. Its fixed table is allocated and touched up front, so
  /// its share of the peak RSS does not depend on how many requests a run
  /// sends.
  std::vector<uint64_t> slots_;
  size_t size_ = 0;
};

}  // namespace mirabench

#endif  // MIRABENCH_INPUTS_H_
