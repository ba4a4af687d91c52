#include "ivf/schema.h"

#include <cstring>

#include "common/bytes.h"
#include "storage/key_encoding.h"

namespace micronn {

std::string VectorKey(uint32_t partition, uint64_t vid) {
  std::string k;
  key::AppendU32(&k, partition);
  key::AppendU64(&k, vid);
  return k;
}

std::string PartitionPrefix(uint32_t partition) { return key::U32(partition); }

Status ParseVectorKey(std::string_view key, uint32_t* partition,
                      uint64_t* vid) {
  std::string_view rest = key;
  if (!key::ConsumeU32(&rest, partition) || !key::ConsumeU64(&rest, vid) ||
      !rest.empty()) {
    return Status::Corruption("malformed vectors key");
  }
  return Status::OK();
}

std::string EncodeVectorRow(std::string_view asset_id, const float* vec,
                            size_t dim) {
  std::string v;
  v.reserve(asset_id.size() + 5 + dim * sizeof(float));
  PutLengthPrefixed(&v, asset_id);
  v.append(reinterpret_cast<const char*>(vec), dim * sizeof(float));
  return v;
}

Status DecodeVectorRow(std::string_view value, size_t dim, VectorRow* out) {
  const char* p = value.data();
  const char* limit = value.data() + value.size();
  std::string_view asset;
  if (!GetLengthPrefixed(&p, limit, &asset)) {
    return Status::Corruption("malformed vector row");
  }
  if (static_cast<size_t>(limit - p) != dim * sizeof(float)) {
    return Status::Corruption("vector blob size mismatch");
  }
  out->asset_id.assign(asset);
  out->vector_blob = std::string_view(p, dim * sizeof(float));
  return Status::OK();
}

std::string EncodeCentroidRow(uint64_t count, const float* centroid,
                              size_t dim) {
  std::string v;
  v.reserve(8 + dim * sizeof(float));
  PutFixed64(&v, count);
  v.append(reinterpret_cast<const char*>(centroid), dim * sizeof(float));
  return v;
}

Status DecodeCentroidRow(std::string_view value, size_t dim,
                         CentroidRow* out) {
  if (value.size() != 8 + dim * sizeof(float)) {
    return Status::Corruption("centroid row size mismatch");
  }
  out->count = DecodeFixed64(value.data());
  out->centroid.resize(dim);
  std::memcpy(out->centroid.data(), value.data() + 8, dim * sizeof(float));
  return Status::OK();
}

std::string EncodeVidMapValue(uint32_t partition) {
  return key::U32(partition);
}

Status DecodeVidMapValue(std::string_view value, uint32_t* partition) {
  std::string_view rest = value;
  if (!key::ConsumeU32(&rest, partition) || !rest.empty()) {
    return Status::Corruption("bad vidmap value");
  }
  return Status::OK();
}

std::string EncodeSq8Params(const Sq8PartitionParams& params) {
  std::string v;
  const size_t dim = params.min.size();
  v.reserve((2 * dim + 1) * sizeof(float));
  v.append(reinterpret_cast<const char*>(params.min.data()),
           dim * sizeof(float));
  v.append(reinterpret_cast<const char*>(params.scale.data()),
           dim * sizeof(float));
  v.append(reinterpret_cast<const char*>(&params.max_error), sizeof(float));
  return v;
}

Status DecodeSq8Params(std::string_view value, size_t dim,
                       Sq8PartitionParams* out) {
  const size_t arrays = 2 * dim * sizeof(float);
  if (value.size() != arrays && value.size() != arrays + sizeof(float)) {
    return Status::Corruption("sq8 params size mismatch");
  }
  out->min.resize(dim);
  out->scale.resize(dim);
  std::memcpy(out->min.data(), value.data(), dim * sizeof(float));
  std::memcpy(out->scale.data(), value.data() + dim * sizeof(float),
              dim * sizeof(float));
  out->max_error = std::numeric_limits<float>::infinity();  // legacy row
  if (value.size() > arrays) {
    std::memcpy(&out->max_error, value.data() + arrays, sizeof(float));
    if (!(out->max_error >= 0.f)) {
      return Status::Corruption("sq8 params max error is negative or NaN");
    }
  }
  return Status::OK();
}

Result<std::optional<Sq8PartitionParams>> GetSq8Params(BTree* sq8params,
                                                       uint32_t partition,
                                                       size_t dim) {
  MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> blob,
                           sq8params->Get(key::U32(partition)));
  if (!blob.has_value()) return std::optional<Sq8PartitionParams>();
  std::optional<Sq8PartitionParams> params;
  params.emplace();
  MICRONN_RETURN_IF_ERROR(DecodeSq8Params(*blob, dim, &*params));
  return params;
}

std::string EncodeSq8Row(const uint8_t* codes, size_t dim, bool clamped) {
  std::string v(reinterpret_cast<const char*>(codes), dim);
  v.push_back(clamped ? 1 : 0);
  return v;
}

Result<Sq8Row> DecodeSq8Row(std::string_view value, size_t dim) {
  Sq8Row row;
  row.codes = reinterpret_cast<const uint8_t*>(value.data());
  if (value.size() == dim) return row;  // legacy: no flag byte
  if (value.size() != dim + 1) {
    return Status::Corruption("sq8 row size mismatch");
  }
  const uint8_t flag = static_cast<uint8_t>(value[dim]);
  if (flag > 1) return Status::Corruption("sq8 row clamp flag is not 0 or 1");
  row.clamped = flag == 1;
  return row;
}

Result<uint64_t> MetaGetU64(BTree* meta, std::string_view key,
                            uint64_t default_value) {
  MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> v,
                           meta->Get(key::Str(key)));
  if (!v.has_value()) return default_value;
  if (v->size() != 8) return Status::Corruption("bad meta u64");
  return DecodeFixed64(v->data());
}

Status MetaPutU64(BTree* meta, std::string_view key, uint64_t value) {
  std::string v;
  PutFixed64(&v, value);
  return meta->Put(key::Str(key), v);
}

Result<double> MetaGetF64(BTree* meta, std::string_view key,
                          double default_value) {
  MICRONN_ASSIGN_OR_RETURN(std::optional<std::string> v,
                           meta->Get(key::Str(key)));
  if (!v.has_value()) return default_value;
  if (v->size() != 8) return Status::Corruption("bad meta f64");
  double out;
  std::memcpy(&out, v->data(), 8);
  return out;
}

Status MetaPutF64(BTree* meta, std::string_view key, double value) {
  std::string v(8, '\0');
  std::memcpy(v.data(), &value, 8);
  return meta->Put(key::Str(key), v);
}

}  // namespace micronn
