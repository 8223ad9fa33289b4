// Binary (de)serialization of network weights.
//
// Float format: "FFNW" magic, u32 version, u32 blob count, then per blob:
// u32 name length, name bytes, u64 float count, raw little-endian floats.
// Loading matches blobs by name and checks sizes, so a file trained by one
// binary is loadable by any other that builds the same architecture (this is
// how paper §3.2's "developer supplies the network weights" deployment step
// is modeled). The whole stream is parsed before any weight is written, so a
// refused checkpoint leaves the net as it was.
//
// Quantized format: "FFNQ" magic, u32 version, input ActQuant (f32 scale,
// i32 zero point), u32 op count, then per op: u32 name length, name bytes,
// u8 kind, output ActQuant, u64 s8 weight count + raw bytes, u64 out_c +
// out_c requant scales + out_c requant biases (f32). Deserialization
// validates every field against Quantizer::Plan(net) — names, kinds, and
// sizes must match the architecture the caller built — so a truncated or
// hostile byte stream fails a loud FF_CHECK instead of loading garbage.
// Loading a quantized file through the float entry points (or vice versa)
// is also a loud FF_CHECK, not a silent magic mismatch. Both loaders cap a
// name at 4096 bytes and refuse bytes after the last field.
#pragma once

#include <string>

#include "nn/quantize.hpp"
#include "nn/sequential.hpp"

namespace ff::nn {

void SaveWeights(Sequential& net, const std::string& path);

// Throws CheckError on magic/size/name mismatch.
void LoadWeights(Sequential& net, const std::string& path);

// In-memory round trip (used by tests and by the deployment model).
std::string SerializeWeights(Sequential& net);
void DeserializeWeights(Sequential& net, const std::string& bytes);

// What kind of checkpoint a byte stream claims to be (by magic alone; no
// validation). Anything that is neither magic is kUnknown.
enum class CheckpointKind { kFloat, kQuantized, kUnknown };
CheckpointKind SniffCheckpoint(const std::string& bytes);

// Quantized round trip. Serialization captures the program's weights and
// requant chain; deserialization rebuilds a QuantizedProgram for `net`,
// FF_CHECKing every untrusted field against Quantizer::Plan(net).
std::string SerializeQuantized(const QuantizedProgram& prog);
QuantizedProgram DeserializeQuantized(Sequential& net,
                                      const std::string& bytes);

}  // namespace ff::nn
