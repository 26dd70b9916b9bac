#include "infer/model_file.h"

#include <cstring>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "util/json.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace pkgm::infer {
namespace {

/// What classify and align differ in on disk, and the least encoder config
/// their input builders serve: the single input needs max_len >= 3 and
/// reads segment 0; the pair input needs max_len >= 5 and reads segment 1.
struct EncoderFormat {
  const char* head_name;  // prefix of the head's PARM records
  bool has_num_classes;   // CONF ends with the head's width
  uint32_t min_max_len;
  uint32_t min_segments;
};

/// Null for the recommender, the one model without an encoder.
const EncoderFormat* EncoderFormatOf(InferTask task) {
  static constexpr EncoderFormat kClassify{tasks::kClassifierHeadName, true,
                                           3, 1};
  static constexpr EncoderFormat kAlign{tasks::kAlignerHeadName, false, 5, 2};
  switch (task) {
    case InferTask::kClassify: return &kClassify;
    case InferTask::kAlign: return &kAlign;
    case InferTask::kRecommend: break;
  }
  return nullptr;
}

// ------------------------------------------------------------- writing --

/// Appends `v`'s little-endian bytes.
template <typename T>
void Put(std::string* out, T v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(v));
}

void PutString(std::string* out, std::string_view s) {
  Put(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

void PutVocab(std::string* out, const text::Tokenizer& tok) {
  Put(out, tok.vocab_size());
  for (const std::string& name : tok.names()) PutString(out, name);
}

void PutBertConfig(std::string* out, const text::TinyBertConfig& cfg) {
  Put(out, cfg.vocab_size);
  Put(out, cfg.dim);
  Put(out, cfg.layers);
  Put(out, cfg.heads);
  Put(out, cfg.ff_dim);
  Put(out, cfg.max_len);
  Put(out, cfg.num_segments);
  Put(out, cfg.seed);
}

/// Streams one {name, rows, cols, f32 data} record into the open section.
void WriteMatRecord(SectionWriter* out, std::string_view name, const Mat& m) {
  std::string head;
  PutString(&head, name);
  Put(&head, static_cast<uint32_t>(m.rows()));
  Put(&head, static_cast<uint32_t>(m.cols()));
  out->Write(head.data(), head.size());
  out->Write(m.data(), m.size() * sizeof(float));
}

/// Writes a whole .pkgi: META, CONF, VOCB (when `tok` is set) and the
/// PARM records of `params` plus `item_features` (when set), the weights
/// streamed straight from the model.
Status WriteFile(InferTask task, tasks::PkgmVariant variant,
                 uint64_t generation, const std::string& config,
                 const text::Tokenizer* tok,
                 const std::vector<nn::Parameter*>& params,
                 const Mat* item_features, const std::string& path) {
  InferModelMeta meta;
  meta.task = static_cast<uint32_t>(task);
  meta.variant = static_cast<uint32_t>(variant);
  meta.generation = generation;
  SectionWriter file(path, kInferModelMagic, kInferModelVersion);
  file.Add(kMetaSection, &meta, sizeof(meta));
  file.Add(kConfigSection, config.data(), config.size());
  if (tok != nullptr) {
    std::string vocab;
    PutVocab(&vocab, *tok);
    file.Add(kVocabSection, vocab.data(), vocab.size());
  }
  file.Begin(kParamsSection);
  const uint32_t count =
      static_cast<uint32_t>(params.size() + (item_features != nullptr));
  file.Write(&count, sizeof(count));
  for (const nn::Parameter* p : params) {
    WriteMatRecord(&file, p->name, p->value);
  }
  if (item_features != nullptr) {
    WriteMatRecord(&file, "item_features", *item_features);
  }
  return file.Finish();
}

// ------------------------------------------------------------- reading --

/// Bounds-checked sequential reader over the payload; the count-before-
/// allocation discipline mirrors the wire codecs (a corrupt file must fail
/// with Corruption, never a huge allocation or an out-of-bounds read).
class PayloadReader {
 public:
  explicit PayloadReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }
  bool done() const { return pos_ == data_.size(); }

  bool ReadBytes(void* out, size_t n) {
    if (remaining() < n) return false;
    std::memcpy(out, data_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  template <typename T>
  bool Read(T* v) {
    return ReadBytes(v, sizeof(T));
  }
  bool ReadString(std::string* out) {
    uint32_t len = 0;
    if (!Read(&len) || remaining() < len) return false;
    out->assign(data_.data() + pos_, len);
    pos_ += len;
    return true;
  }

 private:
  std::string_view data_;
  size_t pos_ = 0;
};

Status Corrupt(const char* what) {
  return Status::Corruption(StrFormat("truncated or invalid %s in .pkgi",
                                      what));
}

Status ReadBertConfig(PayloadReader* r, const EncoderFormat& format,
                      text::TinyBertConfig* cfg) {
  if (!r->Read(&cfg->vocab_size) || !r->Read(&cfg->dim) ||
      !r->Read(&cfg->layers) || !r->Read(&cfg->heads) ||
      !r->Read(&cfg->ff_dim) || !r->Read(&cfg->max_len) ||
      !r->Read(&cfg->num_segments) || !r->Read(&cfg->seed)) {
    return Corrupt("encoder config");
  }
  if (cfg->dim == 0 || cfg->heads == 0 || cfg->dim % cfg->heads != 0 ||
      cfg->layers == 0 || cfg->layers > 64) {
    return Corrupt("encoder config");
  }
  // A model its input builder cannot serve would load, then abort on its
  // first request.
  if (cfg->max_len < format.min_max_len) return Corrupt("encoder max_len");
  if (cfg->num_segments < format.min_segments) {
    return Corrupt("encoder num_segments");
  }
  return Status::Ok();
}

/// Refuses, naming the field, a CONF size whose tensor cannot fit in the
/// PARM section's `param_bytes`, before the encoder is built from CONF:
/// the file must carry every layer's dim x dim attention weights and
/// dim x ff_dim feed-forward weight, bert.tok (vocab_size x dim), bert.pos
/// (max_len x dim), bert.seg (num_segments x dim) and the dim x
/// num_outputs head. So what the loader allocates stays within a constant
/// times the file's size. ReadBertConfig has refused a zero dim.
Status CheckEncoderFitsParams(const text::TinyBertConfig& cfg,
                              uint32_t num_outputs, uint64_t param_bytes) {
  const uint64_t dim = cfg.dim;
  const struct {
    const char* field;
    uint64_t rows;  // of a tensor with dim columns
  } tensors[] = {
      {"dim", dim},
      {"layers", cfg.layers * dim},
      {"ff_dim", cfg.ff_dim},
      {"vocab_size", cfg.vocab_size},
      {"max_len", cfg.max_len},
      {"num_segments", cfg.num_segments},
      {"num_classes", num_outputs},
  };
  for (const auto& t : tensors) {
    // t.rows x dim floats need more than param_bytes, without overflow.
    if (t.rows > param_bytes / sizeof(float) / dim) {
      return Status::Corruption(StrFormat(
          "encoder %s needs more weights than the %llu-byte PARM section "
          "holds in .pkgi",
          t.field, static_cast<unsigned long long>(param_bytes)));
    }
  }
  return Status::Ok();
}

Status ReadVocab(PayloadReader* r, uint32_t expected_size,
                 std::vector<std::string>* names) {
  uint32_t count = 0;
  if (!r->Read(&count)) return Corrupt("vocab count");
  // Each entry is at least its 4-byte length prefix.
  if (static_cast<uint64_t>(count) * 4 > r->remaining() ||
      count != expected_size || count < text::kNumSpecialTokens) {
    return Corrupt("vocab count");
  }
  names->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    if (!r->ReadString(&name)) return Corrupt("vocab entry");
    names->push_back(std::move(name));
  }
  return Status::Ok();
}

struct MatRecord {
  std::string name;
  Mat value;
};

Status ReadMatRecord(PayloadReader* r, MatRecord* record) {
  if (!r->ReadString(&record->name)) return Corrupt("param name");
  uint32_t rows = 0, cols = 0;
  if (!r->Read(&rows) || !r->Read(&cols)) return Corrupt("param shape");
  const uint64_t n = static_cast<uint64_t>(rows) * cols;
  if (n * sizeof(float) > r->remaining()) return Corrupt("param data");
  record->value = Mat(rows, cols);
  if (n > 0 && !r->ReadBytes(record->value.data(), n * sizeof(float))) {
    return Corrupt("param data");
  }
  return Status::Ok();
}

Status ReadParams(PayloadReader* r, std::vector<MatRecord>* records) {
  uint32_t count = 0;
  if (!r->Read(&count)) return Corrupt("param count");
  // Minimum record: empty name + shape = 12 bytes.
  if (static_cast<uint64_t>(count) * 12 > r->remaining()) {
    return Corrupt("param count");
  }
  records->reserve(count);
  for (uint32_t i = 0; i < count; ++i) {
    MatRecord record;
    PKGM_RETURN_IF_ERROR(ReadMatRecord(r, &record));
    records->push_back(std::move(record));
  }
  return Status::Ok();
}

/// Overwrites every parameter of a freshly constructed model with the file
/// records, by name, requiring an exact bidirectional match: every model
/// parameter must be present in the file with identical shape, and no file
/// record (beyond `extra_allowed` names like "item_features") may dangle.
Status ApplyParams(const std::vector<nn::Parameter*>& params,
                   std::vector<MatRecord>& records, size_t extra_allowed) {
  std::unordered_map<std::string_view, MatRecord*> by_name;
  for (MatRecord& record : records) by_name[record.name] = &record;
  if (by_name.size() != records.size()) {
    return Corrupt("duplicate param name");
  }
  if (records.size() != params.size() + extra_allowed) {
    return Corrupt("param record count");
  }
  for (nn::Parameter* p : params) {
    auto it = by_name.find(p->name);
    if (it == by_name.end()) {
      return Status::Corruption(
          StrFormat("missing param %s in .pkgi", p->name.c_str()));
    }
    const Mat& value = it->second->value;
    if (value.rows() != p->rows() || value.cols() != p->cols()) {
      return Status::Corruption(
          StrFormat("shape mismatch for param %s", p->name.c_str()));
    }
    p->value = value;
  }
  return Status::Ok();
}

const char* VariantShortName(tasks::PkgmVariant v) {
  switch (v) {
    case tasks::PkgmVariant::kBase: return "base";
    case tasks::PkgmVariant::kPkgmT: return "pkgm-t";
    case tasks::PkgmVariant::kPkgmR: return "pkgm-r";
    case tasks::PkgmVariant::kPkgmAll: return "pkgm-all";
  }
  return "unknown";
}

}  // namespace

Status SaveRecommenderModel(const tasks::TrainedRecommender& model,
                            tasks::PkgmVariant variant, uint64_t generation,
                            const std::string& path) {
  if (model.model == nullptr) {
    return Status::InvalidArgument("recommender bundle holds no model");
  }
  const rec::NcfConfig& cfg = model.config;
  std::string config;
  Put(&config, cfg.num_users);
  Put(&config, cfg.num_items);
  Put(&config, cfg.gmf_dim);
  Put(&config, cfg.mlp_dim);
  Put(&config, static_cast<uint32_t>(cfg.mlp_hidden.size()));
  for (uint32_t h : cfg.mlp_hidden) Put(&config, h);
  Put(&config, cfg.pkgm_dim);
  Put(&config, cfg.embedding_l2);
  Put(&config, cfg.seed);
  // Params() only registers pointers; serialization does not mutate.
  const std::vector<nn::Parameter*> params =
      const_cast<rec::NcfModel*>(model.model.get())->Params();
  return WriteFile(InferTask::kRecommend, variant, generation, config,
                   /*tok=*/nullptr, params, &model.item_features, path);
}

Status SaveEncoderModel(const tasks::TrainedEncoder& model, InferTask task,
                        tasks::PkgmVariant variant, uint64_t generation,
                        const std::string& path) {
  const EncoderFormat* format = EncoderFormatOf(task);
  if (format == nullptr) {
    return Status::InvalidArgument(
        "an encoder model saves as classify or align");
  }
  if (model.bert == nullptr || model.head == nullptr) {
    return Status::InvalidArgument("encoder bundle holds no model");
  }
  std::string config;
  PutBertConfig(&config, model.config);
  if (format->has_num_classes) Put(&config, model.num_outputs);
  // Params() only registers pointers; serialization does not mutate.
  const std::vector<nn::Parameter*> params =
      const_cast<tasks::TrainedEncoder&>(model).Params();
  return WriteFile(task, variant, generation, config, &model.tokenizer, params,
                   /*item_features=*/nullptr, path);
}

StatusOr<LoadedInferModel> LoadInferModel(const std::string& path) {
  auto opened = SectionFile::Open(path, kInferModelMagic, kInferModelVersion);
  if (!opened.ok()) return opened.status();
  const SectionFile& file = opened.value();
  InferModelMeta meta;
  PKGM_RETURN_IF_ERROR(ReadMetaSection(file, &meta));
  if (meta.task < 1 || meta.task > 3 || meta.variant > 3) {
    return Status::Corruption("invalid .pkgi META fields");
  }
  LoadedInferModel loaded;
  loaded.task = static_cast<InferTask>(meta.task);
  loaded.variant = static_cast<tasks::PkgmVariant>(meta.variant);
  loaded.generation = meta.generation;
  loaded.file_bytes = file.file_size();
  const bool has_vocab = loaded.task != InferTask::kRecommend;
  std::vector<uint32_t> tags = {kMetaSection, kConfigSection};
  if (has_vocab) tags.push_back(kVocabSection);
  tags.push_back(kParamsSection);
  PKGM_RETURN_IF_ERROR(file.ExpectSections(tags));

  std::vector<MatRecord> records;
  const std::string_view param_bytes = file.bytes(*file.Find(kParamsSection));
  PayloadReader params(param_bytes);
  PKGM_RETURN_IF_ERROR(ReadParams(&params, &records));
  if (!params.done()) return Corrupt("trailing param bytes");
  PayloadReader config(file.bytes(*file.Find(kConfigSection)));

  if (loaded.task == InferTask::kRecommend) {
    rec::NcfConfig cfg;
    uint32_t num_hidden = 0;
    if (!config.Read(&cfg.num_users) || !config.Read(&cfg.num_items) ||
        !config.Read(&cfg.gmf_dim) || !config.Read(&cfg.mlp_dim) ||
        !config.Read(&num_hidden)) {
      return Corrupt("recommender config");
    }
    if (num_hidden > 64 || cfg.gmf_dim == 0 || cfg.mlp_dim == 0 ||
        cfg.num_users == 0 || cfg.num_items == 0) {
      return Corrupt("recommender config");
    }
    cfg.mlp_hidden.resize(num_hidden);
    for (uint32_t i = 0; i < num_hidden; ++i) {
      if (!config.Read(&cfg.mlp_hidden[i])) {
        return Corrupt("recommender config");
      }
    }
    if (!config.Read(&cfg.pkgm_dim) ||
        !config.Read(&cfg.embedding_l2) || !config.Read(&cfg.seed) ||
        !config.done()) {
      return Corrupt("recommender config");
    }
    loaded.recommender.config = cfg;
    loaded.recommender.model = std::make_unique<rec::NcfModel>(cfg);
    PKGM_RETURN_IF_ERROR(ApplyParams(loaded.recommender.model->Params(),
                                     records, /*extra_allowed=*/1));
    MatRecord* features = nullptr;
    for (MatRecord& record : records) {
      if (record.name == "item_features") features = &record;
    }
    if (features == nullptr) return Corrupt("item_features record");
    if (cfg.pkgm_dim > 0 &&
        (features->value.rows() != cfg.num_items ||
         features->value.cols() != cfg.pkgm_dim)) {
      return Corrupt("item_features shape");
    }
    loaded.recommender.item_features = std::move(features->value);
    return loaded;
  }

  // Classify and align: the encoder model.
  const EncoderFormat& format = *EncoderFormatOf(loaded.task);
  text::TinyBertConfig cfg;
  PKGM_RETURN_IF_ERROR(ReadBertConfig(&config, format, &cfg));
  uint32_t num_outputs = 1;
  if (format.has_num_classes &&
      (!config.Read(&num_outputs) || num_outputs == 0)) {
    return Corrupt("num_classes");
  }
  if (!config.done()) return Corrupt("trailing config bytes");
  PKGM_RETURN_IF_ERROR(
      CheckEncoderFitsParams(cfg, num_outputs, param_bytes.size()));
  std::vector<std::string> names;
  PayloadReader vocab(file.bytes(*file.Find(kVocabSection)));
  PKGM_RETURN_IF_ERROR(ReadVocab(&vocab, cfg.vocab_size, &names));
  if (!vocab.done()) return Corrupt("trailing vocab bytes");

  Rng head_rng(0);  // weights are overwritten below
  loaded.encoder =
      tasks::TrainedEncoder(cfg, num_outputs, format.head_name, &head_rng);
  loaded.encoder.tokenizer.LoadVocab(std::move(names));
  PKGM_RETURN_IF_ERROR(
      ApplyParams(loaded.encoder.Params(), records, /*extra_allowed=*/0));
  return loaded;
}

StatusOr<std::string> InspectInferModel(const std::string& path) {
  auto loaded = LoadInferModel(path);
  if (!loaded.ok()) return loaded.status();
  LoadedInferModel& m = loaded.value();

  // Both null for the recommender, the one model without an encoder.
  const EncoderFormat* format = EncoderFormatOf(m.task);
  const text::TinyBertConfig* bert = nullptr;
  std::vector<nn::Parameter*> params;
  uint64_t total_weights = 0;
  size_t num_records = 0;
  if (format == nullptr) {
    params = m.recommender.model->Params();
    total_weights = m.recommender.item_features.size();
    num_records = 1;
  } else {
    bert = &m.encoder.config;
    params = m.encoder.Params();
  }
  num_records += params.size();
  for (const nn::Parameter* p : params) total_weights += p->value.size();

  JsonWriter w;
  w.BeginObject()
      .Field("path", path)
      .Field("task", InferTaskName(m.task))
      .Field("variant", VariantShortName(m.variant))
      .Field("generation", m.generation)
      .Field("file_bytes", m.file_bytes)
      .Field("vocab_size", bert != nullptr ? bert->vocab_size : 0u)
      .Field("num_params", num_records)
      .Field("total_weights", total_weights)
      .Key("config")
      .BeginObject();
  if (bert == nullptr) {
    const rec::NcfConfig& cfg = m.recommender.config;
    w.Field("num_users", cfg.num_users)
        .Field("num_items", cfg.num_items)
        .Field("gmf_dim", cfg.gmf_dim)
        .Field("mlp_dim", cfg.mlp_dim)
        .Field("mlp_hidden", cfg.mlp_hidden)
        .Field("pkgm_dim", cfg.pkgm_dim)
        .Field("seed", cfg.seed);
  } else {
    w.Field("vocab_size", bert->vocab_size)
        .Field("dim", bert->dim)
        .Field("layers", bert->layers)
        .Field("heads", bert->heads)
        .Field("ff_dim", bert->ff_dim)
        .Field("max_len", bert->max_len)
        .Field("seed", bert->seed);
    if (format->has_num_classes) {
      w.Field("num_classes", m.encoder.num_outputs);
    }
  }
  return w.EndObject().EndObject().str();
}

}  // namespace pkgm::infer
