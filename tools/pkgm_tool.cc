// pkgm_tool — command-line driver for the PKGM library.
//
//   pkgm_tool generate  <out.tsv>  [seed]        synthesize a product KG
//   pkgm_tool pretrain  <kg.tsv> <model.pkgs> [epochs] [dim]
//                                               pre-train PKGM on a TSV KG
//   pkgm_tool train     <kg.tsv> <model.pkgs> [--epochs N] [--dim N]
//                       [--workers N] [--optimizer adam|sgd] [--lr F]
//                       [--batch N] [--margin F] [--seed N]
//                       [--distributed N | --connect-shards h:p,h:p,...]
//                       [--worker-index I --worker-procs P] [--inflight N]
//                       [--psd-binary PATH] [--eval-hinge]
//                                               flag-driven training front
//                                               end; --workers N trains with
//                                               N hogwild threads (Adam or
//                                               SGD at any count);
//                                               --distributed N spawns N
//                                               pkgm_psd shard daemons and
//                                               trains through the wire
//                                               protocol (--connect-shards
//                                               joins daemons already
//                                               running, e.g. from another
//                                               worker process)
//   pkgm_tool eval      <kg.tsv> <model.pkgs> [fraction]
//                                               filtered link prediction on a
//                                               random holdout of the KG
//   pkgm_tool complete  <kg.tsv> <model.pkgs> <head> <relation> [topk]
//                                               answer (head, relation, ?)
//                                               in vector space
//   pkgm_tool export-store <model.pkgs> <out.pkgs> [fp32|int8] [generation]
//                                               re-export a checkpoint (an
//                                               fp32 .pkgs store) at another
//                                               dtype or generation
//   pkgm_tool inspect-store <store.pkgs>        dump META and the section
//                                               table, verify every CRC32C
//   pkgm_tool build-kg-index <kg.tsv> <out.pkgt>
//                                               sort a TSV KG into the
//                                               mmap-servable .pkgt triple
//                                               index (SPO/POS/OSP)
//   pkgm_tool inspect-kg-index <index.pkgt>     dump META and the section
//                                               table, verify CRC32Cs +
//                                               structure
//   pkgm_tool bench-kernels [dim]               detected SIMD ISA + per-op
//                                               micro-bench vs scalar
//   pkgm_tool export-infer-model <out_prefix> [--seed N] [--generation N]
//                                               pre-train the serving-scale
//                                               PKG, train the three
//                                               downstream models and write
//                                               <prefix>.{recommend,classify,
//                                               align}.pkgi (checksummed,
//                                               self-checked by reload)
//   pkgm_tool inspect-infer-model <model.pkgi>  verify every CRC32C, print
//                                               the section table to
//                                               stderr, then META + config
//                                               as one JSON document on
//                                               stdout
//
// A checkpoint is an fp32 .pkgs store (store::LoadModel reads it back), so
// every trained model is servable as written.
//
// The TSV format is "head\trelation\ttail", one triple per line (see
// kg/io.h); `generate` emits a compatible file so the whole loop runs
// without external data. `train` also accepts a `.pkgt` index in place of
// the TSV and streams triples from the mapping.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include <unistd.h>

#include "core/link_prediction.h"
#include "core/pkgm_model.h"
#include "core/trainer.h"
#include "dist/dist_trainer.h"
#include "dist/local_cluster.h"
#include "infer/model_file.h"
#include "infer/pipeline.h"
#include "kg/io.h"
#include "kg/mmap_triple_index.h"
#include "kg/split.h"
#include "kg/synthetic_pkg.h"
#include "kg/triple_index_writer.h"
#include "store/embedding_store_writer.h"
#include "store/mmap_embedding_store.h"
#include "serve_common.h"
#include "tensor/simd/kernel_bench.h"
#include "tensor/simd/kernel_dispatch.h"
#include "util/logging.h"
#include "util/section_file.h"
#include "util/stopwatch.h"
#include "util/string_util.h"

namespace pkgm {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pkgm_tool generate <out.tsv> [seed]\n"
               "  pkgm_tool pretrain <kg.tsv> <model.pkgs> [epochs] [dim]\n"
               "  pkgm_tool train <kg.tsv> <model.pkgs> [--epochs N] [--dim N]"
               " [--workers N]\n"
               "            [--optimizer adam|sgd] [--lr F] [--batch N]"
               " [--margin F] [--seed N]\n"
               "            [--distributed N | --connect-shards h:p,...]\n"
               "            [--worker-index I --worker-procs P] [--inflight N]"
               " [--psd-binary PATH]\n"
               "            [--eval-hinge]\n"
               "  pkgm_tool eval <kg.tsv> <model.pkgs> [holdout_fraction]\n"
               "  pkgm_tool complete <kg.tsv> <model.pkgs> <head> <relation> "
               "[topk]\n"
               "  pkgm_tool export-store <model.pkgs> <out.pkgs> [fp32|int8] "
               "[generation]\n"
               "  pkgm_tool inspect-store <store.pkgs>\n"
               "  pkgm_tool build-kg-index <kg.tsv> <out.pkgt>\n"
               "  pkgm_tool inspect-kg-index <index.pkgt>\n"
               "  pkgm_tool bench-kernels [dim]\n"
               "  pkgm_tool export-infer-model <out_prefix> [--seed N] "
               "[--generation N]\n"
               "  pkgm_tool inspect-infer-model <model.pkgi>\n");
  return 2;
}

bool HasSuffix(const char* s, const char* suffix) {
  const size_t n = std::strlen(s), m = std::strlen(suffix);
  return n >= m && std::strcmp(s + (n - m), suffix) == 0;
}

/// Loads a TSV KG; exits with a message on failure.
kg::TripleStore MustLoad(const std::string& path, kg::Vocab* entities,
                         kg::Vocab* relations) {
  auto store = kg::ImportTriplesTsv(path, entities, relations);
  if (!store.ok()) {
    std::fprintf(stderr, "failed to load %s: %s\n", path.c_str(),
                 store.status().ToString().c_str());
    std::exit(1);
  }
  std::printf("loaded %zu triples, %u entities, %u relations from %s\n",
              store->size(), entities->size(), relations->size(),
              path.c_str());
  return std::move(store.value());
}

/// Writes `model` as a checkpoint: an fp32 .pkgs store at generation 1.
int SaveCheckpoint(const core::PkgmModel& model, const char* path) {
  Status s = store::EmbeddingStoreWriter().Write(model, path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("checkpoint written to %s\n", path);
  return 0;
}

/// Loads a checkpoint; exits with a message on failure.
core::PkgmModel MustLoadModel(const char* path) {
  auto model = store::LoadModel(path);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(model.value());
}

/// The section table every inspect-* command prints to `out`, then the
/// verdict of re-reading each section against its CRC32C (returned).
Status PrintSections(const SectionFile& file, FILE* out) {
  std::fprintf(out, "format version   %u\n", file.version());
  std::fprintf(out, "file size        %s bytes\n",
               WithThousandsSeparators(file.file_size()).c_str());
  std::fprintf(out, "section  %12s %16s  crc32c\n", "offset", "bytes");
  for (const SectionEntry& s : file.sections()) {
    std::fprintf(out, "  %-6s %12llu %16s  %08x\n",
                 SectionTagName(s.tag).c_str(),
                 static_cast<unsigned long long>(s.offset),
                 WithThousandsSeparators(s.bytes).c_str(), s.crc);
  }
  Status s = file.VerifyChecksum();
  std::fprintf(out, "checksum         %s\n",
               s.ok() ? "OK" : s.ToString().c_str());
  return s;
}

int CmdGenerate(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string out_path = argv[0];
  kg::SyntheticPkgOptions opt;
  opt.seed = argc >= 2 ? std::strtoull(argv[1], nullptr, 10) : 42;
  opt.num_categories = 12;
  opt.items_per_category = 200;
  kg::SyntheticPkg pkg = kg::SyntheticPkgGenerator(opt).Generate();
  Status s = kg::ExportTriplesTsv(pkg.observed, pkg.entities, pkg.relations,
                                  out_path);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu triples to %s (seed %llu)\n", pkg.observed.size(),
              out_path.c_str(), static_cast<unsigned long long>(opt.seed));
  return 0;
}

int CmdPretrain(int argc, char** argv) {
  if (argc < 2) return Usage();
  kg::Vocab entities, relations;
  kg::TripleStore store = MustLoad(argv[0], &entities, &relations);
  const uint32_t epochs = argc >= 3 ? std::atoi(argv[2]) : 30;
  const uint32_t dim = argc >= 4 ? std::atoi(argv[3]) : 32;

  core::PkgmModelOptions mopt;
  mopt.num_entities = entities.size();
  mopt.num_relations = relations.size();
  mopt.dim = dim;
  core::PkgmModel model(mopt);
  core::TrainerOptions topt;
  topt.learning_rate = 0.05f;
  core::Trainer trainer(&model, &store, topt);

  Stopwatch sw;
  for (uint32_t e = 1; e <= epochs; ++e) {
    core::EpochStats stats = trainer.RunEpoch();
    if (e == 1 || e % 5 == 0 || e == epochs) {
      std::printf("epoch %3u  mean hinge %.4f  (%.0f triples/s)\n", e,
                  stats.mean_hinge, stats.triples_per_second);
    }
  }
  std::printf("trained in %.1fs\n", sw.ElapsedSeconds());
  return SaveCheckpoint(model, argv[1]);
}

/// pkgm_psd next to the running pkgm_tool binary (the usual build layout);
/// falls back to PATH lookup semantics of execv (i.e. none) otherwise.
std::string DefaultPsdBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "pkgm_psd";
  buf[n] = '\0';
  std::string path(buf);
  const size_t slash = path.rfind('/');
  if (slash == std::string::npos) return "pkgm_psd";
  return path.substr(0, slash + 1) + "pkgm_psd";
}

std::vector<std::string> SplitCommaList(const char* s) {
  std::vector<std::string> out;
  std::string cur;
  for (const char* p = s; *p != '\0'; ++p) {
    if (*p == ',') {
      if (!cur.empty()) out.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(*p);
    }
  }
  if (!cur.empty()) out.push_back(cur);
  return out;
}

// Flag-driven training front end. Unlike the positional `pretrain` command
// it exposes the full hyper-parameter surface, including the Trainer's
// hogwild worker count. --distributed / --connect-shards switch to
// parameter-server training over the wire protocol: the shard daemons
// apply the updates with the same optimizer.
int CmdTrain(int argc, char** argv) {
  if (argc < 2) return Usage();
  uint32_t epochs = 10, dim = 32, workers = 1, batch = 512;
  float lr = 0.05f, margin = 2.0f;
  uint64_t seed = 17;
  bool adam = true;
  uint32_t distributed = 0;          // > 0: spawn this many shard daemons
  std::vector<std::string> connect_shards;
  uint32_t worker_index = 0, worker_procs = 1;
  uint32_t inflight = 4;
  std::string psd_binary;
  bool eval_hinge = false;

  for (int i = 2; i < argc; ++i) {
    const auto flag_value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = flag_value("--epochs")) {
      epochs = std::atoi(v);
    } else if (const char* v = flag_value("--dim")) {
      dim = std::atoi(v);
    } else if (const char* v = flag_value("--workers")) {
      workers = std::atoi(v);
    } else if (const char* v = flag_value("--batch")) {
      batch = std::atoi(v);
    } else if (const char* v = flag_value("--lr")) {
      lr = std::atof(v);
    } else if (const char* v = flag_value("--margin")) {
      margin = std::atof(v);
    } else if (const char* v = flag_value("--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--distributed")) {
      distributed = std::atoi(v);
    } else if (const char* v = flag_value("--connect-shards")) {
      connect_shards = SplitCommaList(v);
    } else if (const char* v = flag_value("--worker-index")) {
      worker_index = std::atoi(v);
    } else if (const char* v = flag_value("--worker-procs")) {
      worker_procs = std::atoi(v);
    } else if (const char* v = flag_value("--inflight")) {
      inflight = std::atoi(v);
    } else if (const char* v = flag_value("--psd-binary")) {
      psd_binary = v;
    } else if (std::strcmp(argv[i], "--eval-hinge") == 0) {
      eval_hinge = true;
    } else if (const char* v = flag_value("--optimizer")) {
      if (std::strcmp(v, "adam") == 0) {
        adam = true;
      } else if (std::strcmp(v, "sgd") == 0) {
        adam = false;
      } else {
        std::fprintf(stderr, "unknown optimizer %s (want adam or sgd)\n", v);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }
  if (epochs == 0 || dim == 0 || workers == 0 || batch == 0) return Usage();
  const bool dist_mode = distributed > 0 || !connect_shards.empty();
  if (distributed > 0 && !connect_shards.empty()) {
    std::fprintf(stderr,
                 "--distributed and --connect-shards are mutually "
                 "exclusive\n");
    return 2;
  }
  if (worker_procs == 0 || worker_index >= worker_procs) {
    std::fprintf(stderr, "--worker-index must be < --worker-procs\n");
    return 2;
  }
  if (!dist_mode && worker_procs > 1) {
    std::fprintf(stderr,
                 "--worker-procs needs --distributed or --connect-shards\n");
    return 2;
  }

  // Triples come from a TSV (dictionary-encoded at load) or, with a .pkgt
  // argument, straight from the mmap index — the trainers only see the
  // TripleSource seam either way.
  kg::Vocab entities, relations;
  std::optional<kg::TripleStore> tsv_store;
  std::optional<kg::MmapTripleIndex> index;
  const kg::TripleSource* source = nullptr;
  uint32_t num_entities = 0, num_relations = 0;
  if (HasSuffix(argv[0], ".pkgt")) {
    auto opened = kg::MmapTripleIndex::Open(argv[0]);
    if (!opened.ok()) {
      std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
      return 1;
    }
    index.emplace(std::move(opened.value()));
    source = &*index;
    num_entities = index->MaxEntityId();
    num_relations = index->MaxRelationId();
    std::printf("mapped %s triples, %u entities, %u relations from %s\n",
                WithThousandsSeparators(index->NumTriples()).c_str(),
                num_entities, num_relations, argv[0]);
  } else {
    tsv_store.emplace(MustLoad(argv[0], &entities, &relations));
    source = &*tsv_store;
    num_entities = entities.size();
    num_relations = relations.size();
  }

  core::PkgmModelOptions mopt;
  mopt.num_entities = num_entities;
  mopt.num_relations = num_relations;
  mopt.dim = dim;
  mopt.seed = seed;
  std::printf("training d=%u, %u epoch(s), %u worker(s), %s, lr %g, "
              "batch %u, margin %g, seed %llu, kernels %s\n",
              dim, epochs, workers, adam ? "adam" : "sgd",
              static_cast<double>(lr), batch, static_cast<double>(margin),
              static_cast<unsigned long long>(seed), simd::ActiveIsaName());

  const auto report = [&](uint32_t e, const core::EpochStats& s) {
    if (e == 1 || e % 5 == 0 || e == epochs) {
      std::printf("epoch %3u  mean hinge %.4f  active %s  (%.0f triples/s)\n",
                  e, s.mean_hinge,
                  WithThousandsSeparators(s.active_pairs).c_str(),
                  s.triples_per_second);
      std::fflush(stdout);
    }
  };
  Stopwatch sw;
  if (dist_mode) {
    // Spawn the shard fleet when asked; otherwise join daemons another
    // process (or operator) already started.
    std::optional<dist::LocalShardCluster> cluster;
    std::vector<std::string> endpoints = connect_shards;
    if (distributed > 0) {
      char work_dir[] = "/tmp/pkgm_psd_XXXXXX";
      if (::mkdtemp(work_dir) == nullptr) {
        std::fprintf(stderr, "cannot create a scratch dir for port files\n");
        return 1;
      }
      dist::LocalShardClusterOptions copt;
      copt.psd_binary = psd_binary.empty() ? DefaultPsdBinary() : psd_binary;
      copt.work_dir = work_dir;
      copt.num_shards = distributed;
      copt.model = mopt;
      copt.optimizer =
          adam ? core::OptimizerKind::kAdam : core::OptimizerKind::kSgd;
      copt.learning_rate = lr;
      cluster.emplace(std::move(copt));
      Status st = cluster->Start();
      if (!st.ok()) {
        std::fprintf(stderr, "%s\n", st.ToString().c_str());
        return 1;
      }
      endpoints = cluster->endpoints();
      std::printf("spawned %u shard daemon(s)\n", distributed);
    }

    dist::DistTrainerOptions dopt;
    dopt.shard_endpoints = endpoints;
    dopt.num_workers = workers;
    dopt.worker_process_index = worker_index;
    dopt.num_worker_processes = worker_procs;
    dopt.batch_size = batch;
    dopt.learning_rate = lr;
    dopt.margin = margin;
    dopt.seed = seed;
    dopt.max_inflight_pushes = inflight;
    dist::DistTrainer trainer(source, dopt);
    Status st = trainer.Connect();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("connected to %zu shard(s), worker process %u/%u, "
                "inflight bound %u\n",
                endpoints.size(), worker_index, worker_procs, inflight);
    for (uint32_t e = 1; e <= epochs; ++e) {
      StatusOr<core::EpochStats> stats = trainer.RunEpoch();
      if (!stats.ok()) {
        std::fprintf(stderr, "epoch %u: %s\n", e,
                     stats.status().ToString().c_str());
        return 1;
      }
      report(e, stats.value());
    }
    std::printf("trained in %.1fs (%llu pulls, %.2fs pull wait, "
                "%.2fs pull apply, %llu of %llu log records already held, "
                "%llu pushes)\n",
                sw.ElapsedSeconds(),
                static_cast<unsigned long long>(trainer.pulls()),
                trainer.pull_wait_seconds(), trainer.pull_apply_seconds(),
                static_cast<unsigned long long>(trainer.log_records_held()),
                static_cast<unsigned long long>(trainer.log_records_pulled()),
                static_cast<unsigned long long>(trainer.pushes()));
    // Refresh the replica so the checkpoint is the shards' merged state.
    st = trainer.PullFullModel();
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return 1;
    }
    if (eval_hinge) {
      std::printf("final eval hinge %.6f\n", trainer.EvaluateMeanHinge());
    }
    return SaveCheckpoint(*trainer.replica(), argv[1]);
  }

  core::PkgmModel model(mopt);
  core::TrainerOptions topt;
  topt.num_workers = workers;
  topt.batch_size = batch;
  topt.learning_rate = lr;
  topt.margin = margin;
  topt.seed = seed;
  topt.optimizer =
      adam ? core::OptimizerKind::kAdam : core::OptimizerKind::kSgd;
  core::Trainer trainer(&model, source, topt);
  for (uint32_t e = 1; e <= epochs; ++e) report(e, trainer.RunEpoch());
  std::printf("trained in %.1fs\n", sw.ElapsedSeconds());
  if (eval_hinge) {
    // Training leaves the validation stream untouched, so this draws what
    // DistTrainer::EvaluateMeanHinge draws: single-process and distributed
    // runs print comparable numbers for the same seed.
    std::vector<kg::Triple> triples;
    source->AppendTriples(&triples);
    std::printf("final eval hinge %.6f\n",
                trainer.EvaluateMeanHinge(triples));
  }
  return SaveCheckpoint(model, argv[1]);
}

int CmdEval(int argc, char** argv) {
  if (argc < 2) return Usage();
  kg::Vocab entities, relations;
  kg::TripleStore store = MustLoad(argv[0], &entities, &relations);
  const core::PkgmModel model = MustLoadModel(argv[1]);
  const double fraction = argc >= 3 ? std::atof(argv[2]) : 0.05;

  Rng rng(7);
  kg::TripleSplit split = kg::SplitTriples(store, 1.0 - fraction, 0.0, &rng);
  std::printf("evaluating filtered tail ranking on %zu held triples "
              "(model was trained on the full file; this measures fit)\n",
              split.test.size());

  core::LinkPredictionEvaluator::Options eopt;
  core::LinkPredictionEvaluator eval(&model, &store, eopt);
  auto result = eval.EvaluateTails(split.test);
  std::printf("MRR %.4f | Hits@1 %.4f | Hits@3 %.4f | Hits@10 %.4f | "
              "mean rank %.1f\n",
              result.mrr, result.hits[1], result.hits[3], result.hits[10],
              result.mean_rank);
  return 0;
}

int CmdComplete(int argc, char** argv) {
  if (argc < 4) return Usage();
  kg::Vocab entities, relations;
  kg::TripleStore store = MustLoad(argv[0], &entities, &relations);
  const core::PkgmModel model = MustLoadModel(argv[1]);
  const uint32_t head = entities.Find(argv[2]);
  const uint32_t relation = relations.Find(argv[3]);
  if (head == kg::kInvalidId || relation == kg::kInvalidId) {
    std::fprintf(stderr, "unknown head or relation name\n");
    return 1;
  }
  const size_t topk = argc >= 5 ? std::atoi(argv[4]) : 5;

  std::vector<float> q(model.dim());
  model.TripleQueryVector(head, relation, q.data());
  std::vector<std::pair<float, kg::EntityId>> scored;
  scored.reserve(model.num_entities());
  for (kg::EntityId e = 0; e < model.num_entities(); ++e) {
    if (e == head) continue;
    scored.emplace_back(model.TailDistance(relation, q.data(),
                                            model.entity(e)),
                        e);
  }
  std::partial_sort(scored.begin(),
                    scored.begin() + std::min(topk, scored.size()),
                    scored.end());
  std::printf("(%s, %s, ?) top-%zu completions:\n", argv[2], argv[3], topk);
  for (size_t i = 0; i < std::min(topk, scored.size()); ++i) {
    const bool known = store.Contains(head, relation, scored[i].second);
    std::printf("  %zu. %-30s dist %.4f%s\n", i + 1,
                entities.Name(scored[i].second).c_str(), scored[i].first,
                known ? "  [in KG]" : "  [inferred]");
  }
  return 0;
}

int CmdExportStore(int argc, char** argv) {
  if (argc < 2) return Usage();
  auto model = store::MmapEmbeddingStore::Open(argv[0]);
  if (!model.ok()) {
    std::fprintf(stderr, "%s\n", model.status().ToString().c_str());
    return 1;
  }
  store::StoreWriterOptions wopt;
  if (argc >= 3) {
    if (std::strcmp(argv[2], "int8") == 0) {
      wopt.dtype = store::StoreDtype::kInt8;
    } else if (std::strcmp(argv[2], "fp32") != 0) {
      std::fprintf(stderr, "unknown dtype %s (want fp32 or int8)\n", argv[2]);
      return 2;
    }
  }
  if (argc >= 4) wopt.generation = std::strtoull(argv[3], nullptr, 10);

  Stopwatch sw;
  Status s = store::EmbeddingStoreWriter(wopt).Write(model.value(), argv[1]);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  auto opened = store::MmapEmbeddingStore::Open(argv[1]);
  if (!opened.ok()) {
    std::fprintf(stderr, "export self-check failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::printf("exported %u entities x %u relations (d=%u) as %s gen %llu "
              "to %s: %llu bytes in %.2fs\n",
              opened->num_entities(), opened->num_relations(), opened->dim(),
              store::StoreDtypeName(opened->dtype()),
              static_cast<unsigned long long>(opened->generation()), argv[1],
              static_cast<unsigned long long>(opened->file_size()),
              sw.ElapsedSeconds());
  return 0;
}

int CmdInspectStore(int argc, char** argv) {
  if (argc < 1) return Usage();
  // Open without the checksum pass first so META prints even for a
  // store whose payload is damaged; verify explicitly afterwards.
  store::MmapStoreOptions mopt;
  mopt.verify_checksum = false;
  auto opened = store::MmapEmbeddingStore::Open(argv[0], mopt);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  const store::MmapEmbeddingStore& st = opened.value();
  std::printf("store            %s\n", argv[0]);
  std::printf("dtype            %s\n", store::StoreDtypeName(st.dtype()));
  std::printf("dim              %u\n", st.dim());
  std::printf("entities         %u\n", st.num_entities());
  std::printf("relations        %u\n", st.num_relations());
  std::printf("scorer           %u\n", static_cast<uint32_t>(st.scorer()));
  std::printf("relation module  %s\n", st.has_relation_module() ? "yes" : "no");
  std::printf("hyperplanes      %s\n", st.has_hyperplanes() ? "yes" : "no");
  std::printf("generation       %llu\n",
              static_cast<unsigned long long>(st.generation()));
  return PrintSections(st.file(), stdout).ok() ? 0 : 1;
}

int CmdBuildKgIndex(int argc, char** argv) {
  if (argc < 2) return Usage();
  kg::Vocab entities, relations;
  kg::TripleStore store = MustLoad(argv[0], &entities, &relations);

  auto stats = kg::TripleIndexWriter().Write(store, argv[1]);
  if (!stats.ok()) {
    std::fprintf(stderr, "%s\n", stats.status().ToString().c_str());
    return 1;
  }
  std::printf(
      "indexed %s triples in %.2fs (%.0f triples/s): "
      "%llu SPO / %llu POS / %llu OSP runs, %s bytes -> %s\n",
      WithThousandsSeparators(stats->num_triples).c_str(), stats->seconds,
      static_cast<double>(stats->num_triples) / stats->seconds,
      static_cast<unsigned long long>(stats->spo_runs),
      static_cast<unsigned long long>(stats->pos_runs),
      static_cast<unsigned long long>(stats->osp_runs),
      WithThousandsSeparators(stats->file_bytes).c_str(), argv[1]);

  // Self-check: reopen with full checksum verification so a build that
  // produced an unreadable index fails here, not at serving time.
  auto opened = kg::MmapTripleIndex::Open(argv[1]);
  if (!opened.ok()) {
    std::fprintf(stderr, "self-check failed: %s\n",
                 opened.status().ToString().c_str());
    return 1;
  }
  std::printf("self-check OK (checksum verified, %u entities, %u relations)\n",
              opened->MaxEntityId(), opened->MaxRelationId());
  return 0;
}

int CmdInspectKgIndex(int argc, char** argv) {
  if (argc < 1) return Usage();
  // Open without the checksum pass first so META prints even for an
  // index whose payload is damaged; verify explicitly afterwards.
  kg::MmapTripleIndexOptions mopt;
  mopt.verify_checksum = false;
  auto opened = kg::MmapTripleIndex::Open(argv[0], mopt);
  if (!opened.ok()) {
    std::fprintf(stderr, "%s\n", opened.status().ToString().c_str());
    return 1;
  }
  const kg::MmapTripleIndex& index = opened.value();
  std::printf("index            %s\n", argv[0]);
  std::printf("triples          %s\n",
              WithThousandsSeparators(index.NumTriples()).c_str());
  std::printf("entities         %u\n", index.MaxEntityId());
  std::printf("relations        %u\n", index.MaxRelationId());
  Status cs = PrintSections(index.file(), stdout);
  Status vs = index.Validate();
  std::printf("structure        %s\n", vs.ok() ? "OK" : vs.ToString().c_str());
  return cs.ok() && vs.ok() ? 0 : 1;
}

// Self-contained downstream-model packaging: pre-trains the serving-scale
// synthetic PKG (the same pipeline pkgm_netd --infer runs), trains the
// three downstream models, and writes one versioned, checksummed .pkgi per
// task. Each file is reloaded as a self-check, so a prefix this command
// accepts is guaranteed loadable by a serving process.
int CmdExportInferModel(int argc, char** argv) {
  if (argc < 1) return Usage();
  const std::string prefix = argv[0];
  uint64_t seed = 2021;
  uint64_t generation = 1;
  for (int i = 1; i < argc; ++i) {
    const auto flag_value = [&](const char* name) -> const char* {
      if (std::strcmp(argv[i], name) != 0) return nullptr;
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", name);
        std::exit(2);
      }
      return argv[++i];
    };
    if (const char* v = flag_value("--seed")) {
      seed = std::strtoull(v, nullptr, 10);
    } else if (const char* v = flag_value("--generation")) {
      generation = std::strtoull(v, nullptr, 10);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", argv[i]);
      return 2;
    }
  }

  std::printf("pre-training the serving-scale PKG (seed %llu) ...\n",
              static_cast<unsigned long long>(seed));
  Stopwatch sw;
  tasks::PretrainedPkgm p =
      tasks::BuildAndPretrain(tool::ServePipelineOptions(seed));
  infer::InferPipelineOptions iopt;
  iopt.seed = seed + 100;
  infer::InferBundle bundle = infer::TrainInferModels(p, iopt);
  std::printf("trained in %.1fs: %u items, %u users, %u classes\n",
              sw.ElapsedSeconds(), p.services->num_items(), bundle.num_users,
              bundle.num_classes);

  const auto save_one = [&](Status status, const std::string& path) -> int {
    if (!status.ok()) {
      std::fprintf(stderr, "%s: %s\n", path.c_str(),
                   status.ToString().c_str());
      return 1;
    }
    auto loaded = infer::LoadInferModel(path);
    if (!loaded.ok()) {
      std::fprintf(stderr, "%s: self-check reload failed: %s\n", path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf("wrote %s (%s, gen %llu, %s bytes, self-check OK)\n",
                path.c_str(), InferTaskName(loaded->task),
                static_cast<unsigned long long>(loaded->generation),
                WithThousandsSeparators(loaded->file_bytes).c_str());
    return 0;
  };

  const std::string rec_path = prefix + ".recommend.pkgi";
  if (save_one(infer::SaveRecommenderModel(bundle.recommender, bundle.variant,
                                           generation, rec_path),
               rec_path) != 0) {
    return 1;
  }
  const std::string cls_path = prefix + ".classify.pkgi";
  if (save_one(infer::SaveEncoderModel(bundle.classifier,
                                       infer::InferTask::kClassify,
                                       bundle.variant, generation, cls_path),
               cls_path) != 0) {
    return 1;
  }
  const std::string aln_path = prefix + ".align.pkgi";
  if (save_one(infer::SaveEncoderModel(bundle.aligner,
                                       infer::InferTask::kAlign,
                                       bundle.variant, generation, aln_path),
               aln_path) != 0) {
    return 1;
  }
  return 0;
}

int CmdInspectInferModel(int argc, char** argv) {
  if (argc < 1) return Usage();
  // Map without the checksum pass first so the section table prints even
  // for a file whose sections are damaged.
  auto file = SectionFile::Open(argv[0], infer::kInferModelMagic,
                                infer::kInferModelVersion,
                                /*verify_checksum=*/false);
  if (!file.ok()) {
    std::fprintf(stderr, "%s\n", file.status().ToString().c_str());
    return 1;
  }
  // The table goes to stderr, so stdout is the one JSON document.
  if (!PrintSections(file.value(), stderr).ok()) return 1;
  auto json = infer::InspectInferModel(argv[0]);
  if (!json.ok()) {
    std::fprintf(stderr, "%s\n", json.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", json->c_str());
  return 0;
}

int CmdBenchKernels(int argc, char** argv) {
  const size_t dim = argc >= 1 ? std::strtoul(argv[0], nullptr, 10) : 64;
  if (dim == 0) return Usage();
  const size_t batch_rows = 256;

  std::printf("detected ISA    %s\n",
              simd::KernelIsaName(simd::DetectBestIsa()));
  std::printf("active kernels  %s", simd::ActiveIsaName());
  if (const char* env = std::getenv("PKGM_KERNEL")) {
    std::printf("  (PKGM_KERNEL=%s)", env);
  }
  std::printf("\ndim %zu, batch %zu rows; GB/s counts bytes touched per "
              "call\n\n",
              dim, batch_rows);

  std::vector<const simd::KernelTable*> tables = {&simd::ScalarKernels()};
  if (const simd::KernelTable* t = simd::Avx2Kernels()) tables.push_back(t);
  if (const simd::KernelTable* t = simd::Avx512Kernels()) tables.push_back(t);
  if (const simd::KernelTable* t = simd::NeonKernels()) tables.push_back(t);

  std::vector<std::vector<simd::KernelBenchResult>> runs;
  for (const simd::KernelTable* t : tables) {
    runs.push_back(simd::RunKernelBench(*t, dim, batch_rows));
  }

  // Header: one ns/GBps/speedup column group per table.
  std::printf("%-18s", "op");
  for (const simd::KernelTable* t : tables) {
    std::printf(" | %7s ns   GB/s     x", simd::KernelIsaName(t->isa));
  }
  std::printf("\n");
  for (size_t op = 0; op < runs[0].size(); ++op) {
    std::printf("%-18s", runs[0][op].op);
    for (size_t ti = 0; ti < tables.size(); ++ti) {
      const auto& r = runs[ti][op];
      std::printf(" | %10.1f %6.2f %5.2f", r.ns_per_op, r.gbps,
                  runs[0][op].ns_per_op / r.ns_per_op);
    }
    std::printf("\n");
  }
  return 0;
}

}  // namespace
}  // namespace pkgm

int main(int argc, char** argv) {
  if (argc < 2) return pkgm::Usage();
  const char* cmd = argv[1];
  if (std::strcmp(cmd, "generate") == 0) {
    return pkgm::CmdGenerate(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "pretrain") == 0) {
    return pkgm::CmdPretrain(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "train") == 0) {
    return pkgm::CmdTrain(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "eval") == 0) return pkgm::CmdEval(argc - 2, argv + 2);
  if (std::strcmp(cmd, "complete") == 0) {
    return pkgm::CmdComplete(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "export-store") == 0) {
    return pkgm::CmdExportStore(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "inspect-store") == 0) {
    return pkgm::CmdInspectStore(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "build-kg-index") == 0) {
    return pkgm::CmdBuildKgIndex(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "inspect-kg-index") == 0) {
    return pkgm::CmdInspectKgIndex(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "bench-kernels") == 0) {
    return pkgm::CmdBenchKernels(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "export-infer-model") == 0) {
    return pkgm::CmdExportInferModel(argc - 2, argv + 2);
  }
  if (std::strcmp(cmd, "inspect-infer-model") == 0) {
    return pkgm::CmdInspectInferModel(argc - 2, argv + 2);
  }
  return pkgm::Usage();
}
