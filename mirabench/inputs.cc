#include "inputs.h"

#include <cstdio>
#include <unordered_set>
#include <utility>

#include "datagen/corpus_generator.h"
#include "discovery/cts_search.h"

namespace mirabench {

namespace md = mira::datagen;

namespace {

/// Tables drawn before the cut; comfortably more than kTargetCells needs.
constexpr size_t kDrawnTables = 560;
/// Queries drawn per length class; those without a relevant table are dropped.
constexpr size_t kQueriesPerClass = 215;
/// Fresh queries generated per class and chunk.
constexpr size_t kFreshPerClass = 100;
/// Slots of the fresh-text set (8 MiB): exact up to ~734k texts, about 2.4
/// times what the closed loop sends in a 40 s run. A faster program stops
/// its timed loop early instead (see FreshQueries::room()).
constexpr size_t kFreshSlots = size_t{1} << 20;

size_t NonEmptyCells(const mira::table::Relation& relation) {
  size_t cells = 0;
  for (const auto& row : relation.rows) {
    for (const auto& cell : row) cells += cell.empty() ? 0 : 1;
  }
  return cells;
}

/// Short, moderate and long queries (generated class by class) in turn.
std::vector<md::GeneratedQuery> Interleave(
    std::vector<md::GeneratedQuery> queries, size_t per_class) {
  std::vector<md::GeneratedQuery> out;
  out.reserve(queries.size());
  for (size_t i = 0; i < per_class; ++i) {
    for (size_t cls = 0; cls < 3; ++cls) {
      out.push_back(std::move(queries[cls * per_class + i]));
    }
  }
  return out;
}

uint64_t HashText(std::string_view text) {
  uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : text) {
    hash = (hash ^ c) * 1099511628211ULL;
  }
  return hash == 0 ? 1 : hash;  // 0 marks an empty slot
}

}  // namespace

uint64_t Mix(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double Inputs::Ndcg10(const md::GeneratedQuery& query,
                      const std::vector<uint32_t>& top_ids) const {
  std::vector<mira::ir::DocId> ranking(top_ids.begin(), top_ids.end());
  return mira::ir::NdcgAt(ranking, qrels, query.id, 10);
}

Inputs MakeInputs(uint64_t seed) {
  Inputs inputs;
  inputs.bank = md::ConceptBank::Generate(md::ConceptBankOptions{});

  md::CorpusOptions corpus_options = md::WikiTablesCorpusOptions();
  corpus_options.num_tables = kDrawnTables;
  corpus_options.seed = Mix(seed, 1);
  md::GeneratedCorpus drawn = md::GenerateCorpus(inputs.bank, corpus_options);

  // Cut: the longest prefix of tables that stays within kTargetCells. A table
  // holds at most 72 cells, so the cut lands within 0.6% of the target.
  md::GeneratedCorpus corpus;
  for (size_t t = 0; t < drawn.federation.size(); ++t) {
    const auto& relation =
        drawn.federation.relation(static_cast<mira::table::RelationId>(t));
    const size_t cells = NonEmptyCells(relation);
    if (inputs.num_cells + cells > kTargetCells) break;
    inputs.num_cells += cells;
    corpus.federation.AddRelation(relation);
    corpus.table_topic.push_back(drawn.table_topic[t]);
    corpus.table_aspect.push_back(drawn.table_aspect[t]);
    corpus.table_is_stub.push_back(drawn.table_is_stub[t]);
    corpus.table_secondary_aspect.push_back(drawn.table_secondary_aspect[t]);
  }

  md::QuerySetOptions query_options;
  query_options.per_class = kQueriesPerClass;
  query_options.seed = Mix(seed, 2);
  std::vector<md::GeneratedQuery> queries = Interleave(
      md::GenerateQueries(inputs.bank, query_options), kQueriesPerClass);
  md::QrelsOptions qrels_options;
  qrels_options.seed = Mix(seed, 3);
  inputs.qrels = md::MakeQrels(corpus, queries, qrels_options);

  std::unordered_set<std::string> texts;
  for (auto& query : queries) {
    if (inputs.qrels.NumRelevant(query.id) == 0) continue;
    if (!texts.insert(query.text).second) continue;  // keep texts distinct
    inputs.judged.push_back(std::move(query));
  }
  inputs.federation = std::move(corpus.federation);
  return inputs;
}

void CheckInputs(const Inputs& inputs, RunResult* result) {
  const size_t max_clustering_points =
      mira::discovery::CtsOptions{}.max_clustering_points;
  std::fprintf(stderr,
               "inputs: tables=%zu cells=%zu (target %zu, max_clustering_points "
               "%zu) judged_queries=%zu (min %zu)\n",
               inputs.federation.size(), inputs.num_cells, kTargetCells,
               max_clustering_points, inputs.judged.size(), kMinJudged);
  if (inputs.num_cells * 100 < kTargetCells * 99 ||
      inputs.num_cells * 100 > kTargetCells * 101) {
    result->Fail("cell count is not within 1% of the target");
  }
  if (inputs.num_cells >= max_clustering_points) {
    result->Fail("cell count reaches max_clustering_points");
  }
  if (inputs.judged.size() < kMinJudged) {
    result->Fail("fewer judged queries with a relevant table than required");
  }
}

FreshQueries::FreshQueries(const Inputs& inputs, uint64_t seed)
    : bank_(&inputs.bank), seed_(seed), slots_(kFreshSlots, 0) {
  for (const auto& query : inputs.judged) Insert(query.text);
}

bool FreshQueries::Insert(std::string_view text) {
  const uint64_t hash = HashText(text);
  const size_t mask = slots_.size() - 1;
  size_t slot = static_cast<size_t>(hash) & mask;
  while (slots_[slot] != 0 && slots_[slot] != hash) slot = (slot + 1) & mask;
  if (slots_[slot] == hash) return false;
  if (!ok()) return true;  // unrecorded; the run already fails its check
  slots_[slot] = hash;
  ++size_;
  return true;
}

void FreshQueries::Refill() {
  md::QuerySetOptions options;
  options.per_class = kFreshPerClass;
  options.seed = Mix(seed_, chunk_++);
  for (auto& query :
       Interleave(md::GenerateQueries(*bank_, options), kFreshPerClass)) {
    pending_.push_back(std::move(query.text));
  }
}

void FreshQueries::Next(size_t n, std::vector<std::string>* out) {
  out->clear();
  while (out->size() < n) {
    if (pending_.empty()) Refill();
    std::string text = std::move(pending_.front());
    pending_.pop_front();
    if (Insert(text)) out->push_back(std::move(text));
  }
}

}  // namespace mirabench
