#include "nn/serialize.hpp"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <map>
#include <stdexcept>

namespace lmmir::nn {

namespace {

constexpr char kMagic[4] = {'L', 'M', 'M', 'C'};
constexpr std::uint32_t kVersion = 1;

void write_u32(std::ostream& out, std::uint32_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
void write_u64(std::ostream& out, std::uint64_t v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof v);
}
std::uint32_t read_u32(std::istream& in) {
  std::uint32_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}
std::uint64_t read_u64(std::istream& in) {
  std::uint64_t v = 0;
  in.read(reinterpret_cast<char*>(&v), sizeof v);
  return v;
}

void write_entry(std::ostream& out, const std::string& name,
                 const std::vector<int>& shape,
                 const std::vector<float>& data) {
  write_u32(out, static_cast<std::uint32_t>(name.size()));
  out.write(name.data(), static_cast<std::streamsize>(name.size()));
  write_u32(out, static_cast<std::uint32_t>(shape.size()));
  for (int d : shape) write_u32(out, static_cast<std::uint32_t>(d));
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(float)));
}

struct Entry {
  std::vector<int> shape;
  std::vector<float> data;
};

std::map<std::string, Entry> read_all(std::istream& in,
                                      const std::string& path) {
  char magic[4];
  in.read(magic, 4);
  if (!in || std::string(magic, 4) != std::string(kMagic, 4))
    throw std::runtime_error("load_checkpoint: bad magic in " + path);
  const std::uint32_t version = read_u32(in);
  if (version != kVersion)
    throw std::runtime_error("load_checkpoint: unsupported version in " + path);
  const std::uint64_t count = read_u64(in);
  std::map<std::string, Entry> entries;
  for (std::uint64_t i = 0; i < count; ++i) {
    const std::uint32_t name_len = read_u32(in);
    std::string name(name_len, '\0');
    in.read(name.data(), name_len);
    const std::uint32_t rank = read_u32(in);
    Entry e;
    std::size_t numel = 1;
    for (std::uint32_t r = 0; r < rank; ++r) {
      e.shape.push_back(static_cast<int>(read_u32(in)));
      numel *= static_cast<std::size_t>(e.shape.back());
    }
    e.data.resize(numel);
    in.read(reinterpret_cast<char*>(e.data.data()),
            static_cast<std::streamsize>(numel * sizeof(float)));
    if (!in)
      throw std::runtime_error("load_checkpoint: truncated file " + path);
    entries.emplace(std::move(name), std::move(e));
  }
  return entries;
}

}  // namespace

void save_checkpoint(const Module& module, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out)
    throw std::runtime_error("save_checkpoint: cannot open " + path);
  const auto params = module.named_parameters();
  const auto buffers = module.named_buffers();
  out.write(kMagic, 4);
  write_u32(out, kVersion);
  write_u64(out, static_cast<std::uint64_t>(params.size() + buffers.size()));
  for (const auto& p : params)
    write_entry(out, p.name, p.tensor.shape(), p.tensor.data());
  for (const auto& b : buffers)
    write_entry(out, b.name, {static_cast<int>(b.values->size())}, *b.values);
  if (!out)
    throw std::runtime_error("save_checkpoint: write failed for " + path);
}

void load_checkpoint(Module& module, const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in)
    throw std::runtime_error("load_checkpoint: cannot open " + path);
  auto entries = read_all(in, path);

  for (auto& p : module.named_parameters()) {
    const auto it = entries.find(p.name);
    if (it == entries.end())
      throw std::runtime_error("load_checkpoint: missing parameter " + p.name);
    if (it->second.shape != p.tensor.shape())
      throw std::runtime_error("load_checkpoint: shape mismatch for " + p.name);
    // In place: recorded inference plans read weights and buffers live.
    std::copy(it->second.data.begin(), it->second.data.end(),
              p.tensor.data().begin());
  }
  for (auto& b : module.named_buffers()) {
    const auto it = entries.find(b.name);
    if (it == entries.end())
      throw std::runtime_error("load_checkpoint: missing buffer " + b.name);
    if (it->second.data.size() != b.values->size())
      throw std::runtime_error("load_checkpoint: size mismatch for " + b.name);
    std::copy(it->second.data.begin(), it->second.data.end(),
              b.values->begin());
  }
}

}  // namespace lmmir::nn
