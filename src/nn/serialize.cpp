#include "nn/serialize.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <vector>

namespace ff::nn {

namespace {

constexpr char kMagic[4] = {'F', 'F', 'N', 'W'};
constexpr std::uint32_t kVersion = 1;
constexpr char kQuantMagic[4] = {'F', 'F', 'N', 'Q'};
constexpr std::uint32_t kQuantVersion = 1;
// Longest blob or op name either loader accepts. Names are layer paths like
// "conv5_6/sep"; the cap keeps a hostile length from sizing an allocation.
constexpr std::uint32_t kMaxNameLen = 4096;

template <typename T>
void WritePod(std::ostream& os, const T& v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T ReadPod(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  FF_CHECK_MSG(is.good(), "truncated weight stream");
  return v;
}

std::string ReadName(std::istream& is) {
  const auto len = ReadPod<std::uint32_t>(is);
  FF_CHECK_MSG(len <= kMaxNameLen, "checkpoint name length "
                                       << len << " exceeds the cap of "
                                       << kMaxNameLen << " bytes");
  std::string name(len, '\0');
  is.read(name.data(), len);
  FF_CHECK_MSG(is.good(), "truncated weight stream in a name");
  return name;
}

// Both formats end exactly at their last field, as a wire frame does.
void CheckNoTrailingBytes(std::istream& is, const std::string& bytes) {
  const auto end = static_cast<std::size_t>(is.tellg());
  FF_CHECK_MSG(end == bytes.size(), "checkpoint has "
                                        << bytes.size() - end
                                        << " trailing bytes");
}

}  // namespace

std::string SerializeWeights(Sequential& net) {
  std::ostringstream os(std::ios::binary);
  os.write(kMagic, 4);
  WritePod(os, kVersion);
  const auto params = net.Params();
  WritePod(os, static_cast<std::uint32_t>(params.size()));
  for (const auto& p : params) {
    WritePod(os, static_cast<std::uint32_t>(p.name.size()));
    os.write(p.name.data(), static_cast<std::streamsize>(p.name.size()));
    WritePod(os, static_cast<std::uint64_t>(p.value->size()));
    os.write(reinterpret_cast<const char*>(p.value->data()),
             static_cast<std::streamsize>(p.value->size() * sizeof(float)));
  }
  return os.str();
}

void DeserializeWeights(Sequential& net, const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  char magic[4];
  is.read(magic, 4);
  FF_CHECK_MSG(!(is.good() && std::memcmp(magic, kQuantMagic, 4) == 0),
               net.name()
                   << ": checkpoint is QUANTIZED (FFNQ) but a float load was "
                      "requested — use DeserializeQuantized / configure the "
                      "extractor with quantize=true");
  FF_CHECK_MSG(is.good() && std::memcmp(magic, kMagic, 4) == 0,
               "bad weight file magic");
  const auto version = ReadPod<std::uint32_t>(is);
  FF_CHECK_EQ(version, kVersion);
  const auto count = ReadPod<std::uint32_t>(is);
  auto params = net.Params();
  FF_CHECK_MSG(count == params.size(),
               net.name() << ": file has " << count << " blobs, net has "
                          << params.size());
  // Parse every blob before touching the net, so a refused checkpoint
  // leaves its weights as they were.
  std::vector<std::vector<float>> blobs(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const std::string name = ReadName(is);
    const auto n_floats = ReadPod<std::uint64_t>(is);
    FF_CHECK_MSG(name == params[i].name,
                 "blob " << i << ": file has '" << name << "', net has '"
                         << params[i].name << "'");
    FF_CHECK_MSG(n_floats == params[i].value->size(),
                 name << ": file has " << n_floats << " floats, net expects "
                      << params[i].value->size());
    blobs[i].resize(n_floats);
    is.read(reinterpret_cast<char*>(blobs[i].data()),
            static_cast<std::streamsize>(n_floats * sizeof(float)));
    FF_CHECK_MSG(is.good(), "truncated weight stream in blob " << name);
  }
  CheckNoTrailingBytes(is, bytes);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::copy(blobs[i].begin(), blobs[i].end(), params[i].value->begin());
  }
}

CheckpointKind SniffCheckpoint(const std::string& bytes) {
  if (bytes.size() < 4) return CheckpointKind::kUnknown;
  if (std::memcmp(bytes.data(), kMagic, 4) == 0) return CheckpointKind::kFloat;
  if (std::memcmp(bytes.data(), kQuantMagic, 4) == 0) {
    return CheckpointKind::kQuantized;
  }
  return CheckpointKind::kUnknown;
}

std::string SerializeQuantized(const QuantizedProgram& prog) {
  std::ostringstream os(std::ios::binary);
  os.write(kQuantMagic, 4);
  WritePod(os, kQuantVersion);
  WritePod(os, prog.input_quant().scale);
  WritePod(os, prog.input_quant().zero_point);
  WritePod(os, static_cast<std::uint32_t>(prog.n_ops()));
  for (std::size_t i = 0; i < prog.n_ops(); ++i) {
    const QuantOp& op = prog.op(i);
    WritePod(os, static_cast<std::uint32_t>(op.name.size()));
    os.write(op.name.data(), static_cast<std::streamsize>(op.name.size()));
    WritePod(os, static_cast<std::uint8_t>(op.kind));
    WritePod(os, op.out_q.scale);
    WritePod(os, op.out_q.zero_point);
    WritePod(os, static_cast<std::uint64_t>(op.w.size()));
    os.write(reinterpret_cast<const char*>(op.w.data()),
             static_cast<std::streamsize>(op.w.size()));
    WritePod(os, static_cast<std::uint64_t>(op.out_c));
    os.write(reinterpret_cast<const char*>(op.rscale.data()),
             static_cast<std::streamsize>(op.rscale.size() * sizeof(float)));
    os.write(reinterpret_cast<const char*>(op.rbias.data()),
             static_cast<std::streamsize>(op.rbias.size() * sizeof(float)));
  }
  return os.str();
}

QuantizedProgram DeserializeQuantized(Sequential& net,
                                      const std::string& bytes) {
  std::istringstream is(bytes, std::ios::binary);
  char magic[4];
  is.read(magic, 4);
  FF_CHECK_MSG(!(is.good() && std::memcmp(magic, kMagic, 4) == 0),
               net.name()
                   << ": checkpoint is FLOAT (FFNW) but a quantized load was "
                      "requested — use DeserializeWeights / configure the "
                      "extractor with quantize=false");
  FF_CHECK_MSG(is.good() && std::memcmp(magic, kQuantMagic, 4) == 0,
               "bad quantized weight file magic");
  const auto version = ReadPod<std::uint32_t>(is);
  FF_CHECK_EQ(version, kQuantVersion);

  // Everything below is untrusted; the plan derived from the caller's net is
  // the source of truth for names, kinds, and sizes.
  QuantizedProgram prog = Quantizer::Plan(net);
  prog.in_q_.scale = ReadPod<float>(is);
  prog.in_q_.zero_point = ReadPod<std::int32_t>(is);
  FF_CHECK_MSG(std::isfinite(prog.in_q_.scale) && prog.in_q_.scale > 0.0f,
               "quantized checkpoint: bad input scale");
  const auto count = ReadPod<std::uint32_t>(is);
  FF_CHECK_MSG(count == prog.n_ops(),
               net.name() << ": file has " << count << " quantized ops, plan "
                          << "has " << prog.n_ops());
  for (std::uint32_t i = 0; i < count; ++i) {
    QuantOp& op = prog.ops_[i];
    const std::string name = ReadName(is);
    FF_CHECK_MSG(name == op.name, "op " << i << ": file has '" << name
                                        << "', plan has '" << op.name << "'");
    const auto kind = ReadPod<std::uint8_t>(is);
    FF_CHECK_MSG(kind == static_cast<std::uint8_t>(op.kind),
                 op.name << ": op kind mismatch");
    op.out_q.scale = ReadPod<float>(is);
    op.out_q.zero_point = ReadPod<std::int32_t>(is);
    FF_CHECK_MSG(std::isfinite(op.out_q.scale) && op.out_q.scale > 0.0f,
                 op.name << ": bad output scale");
    FF_CHECK_MSG(op.out_q.zero_point == 0 || op.out_q.zero_point == 128,
                 op.name << ": bad output zero point");
    const auto n_w = ReadPod<std::uint64_t>(is);
    FF_CHECK_MSG(n_w == op.w.size(), op.name << ": file has " << n_w
                                             << " weights, plan expects "
                                             << op.w.size());
    is.read(reinterpret_cast<char*>(op.w.data()),
            static_cast<std::streamsize>(op.w.size()));
    const auto n_oc = ReadPod<std::uint64_t>(is);
    FF_CHECK_MSG(n_oc == static_cast<std::uint64_t>(op.out_c),
                 op.name << ": file has " << n_oc << " channels, plan expects "
                         << op.out_c);
    is.read(reinterpret_cast<char*>(op.rscale.data()),
            static_cast<std::streamsize>(op.rscale.size() * sizeof(float)));
    is.read(reinterpret_cast<char*>(op.rbias.data()),
            static_cast<std::streamsize>(op.rbias.size() * sizeof(float)));
    FF_CHECK_MSG(is.good(), "truncated quantized weight stream in " << op.name);
    for (std::size_t c = 0; c < op.rscale.size(); ++c) {
      FF_CHECK_MSG(std::isfinite(op.rscale[c]) && std::isfinite(op.rbias[c]),
                   op.name << ": non-finite requant parameters");
    }
  }
  CheckNoTrailingBytes(is, bytes);
  return prog;
}

void SaveWeights(Sequential& net, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  FF_CHECK_MSG(out.good(), "cannot open " << path << " for writing");
  const std::string bytes = SerializeWeights(net);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  FF_CHECK_MSG(out.good(), "short write to " << path);
}

void LoadWeights(Sequential& net, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  FF_CHECK_MSG(in.good(), "cannot open " << path << " for reading");
  std::ostringstream ss;
  ss << in.rdbuf();
  DeserializeWeights(net, ss.str());
}

}  // namespace ff::nn
