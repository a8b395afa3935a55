#include "layer_map.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <cxxabi.h>
#include <elf.h>
#include <fstream>
#include <iterator>
#include <link.h>
#include <map>
#include <set>
#include <sstream>
#include <unistd.h>

namespace perfbench {

namespace {

const std::set<std::string> kModules = {
    "sim",    "media",  "transport", "overlay",   "brain",
    "hier",   "client", "workload",  "telemetry", "util"};

// util templates that run code on behalf of their type arguments.
const std::set<std::string> kGenericUtil = {
    "InlineFunction", "FreeListArena", "PoolAlloc", "ThreadPool",
    "pool_new",       "pool_delete"};

// Top-level `livenet::` names defined under src/util; every other
// top-level name belongs to src/livenet.
const std::set<std::string> kTopLevelUtil = {
    "Rng",        "OnlineStats", "Samples",  "Histogram",     "RatioCounter",
    "BoxStats",   "boxplot",     "SeededHash", "Logger",      "LogStatement",
    "hash_seed",  "set_hash_seed", "detail", "to_ms",         "to_sec"};

const std::map<std::pair<std::string, std::string>, std::string> kSubLayers = {
    {{"sim", "EventLoop"}, "sim.event_loop"},
    {{"sim", "Network"}, "sim.network"},
    {{"sim", "Link"}, "sim.network"},
    {{"transport", "SendHistory"}, "transport.send_history"},
    {{"transport", "Pacer"}, "transport.pacer"},
    {{"transport", "GccSender"}, "transport.gcc"},
    {{"transport", "GccReceiver"}, "transport.gcc"},
    {{"transport", "RateMeter"}, "transport.gcc"},
    {{"transport", "TrendlineEstimator"}, "transport.gcc"},
    {{"transport", "InterArrival"}, "transport.gcc"},
    {{"transport", "AimdRateControl"}, "transport.gcc"},
    {{"transport", "ReceiveBuffer"}, "transport.receive_buffer"},
    {{"overlay", "ForwardingEngine"}, "overlay.forwarding"},
    {{"overlay", "StreamTable"}, "overlay.forwarding"},
    {{"overlay", "StreamContext"}, "overlay.forwarding"},
    {{"overlay", "StreamFib"}, "overlay.forwarding"},
    {{"overlay", "RecoveryEngine"}, "overlay.recovery"},
    {{"overlay", "LinkReceiver"}, "overlay.recovery"},
    {{"overlay", "PacketGopCache"}, "overlay.recovery"},
    {{"overlay", "SessionLayer"}, "overlay.session"},
    {{"overlay", "FrameDropper"}, "overlay.session"},
    {{"overlay", "ControlAgent"}, "overlay.control"},
};

// Source files whose functions form a sub-layer (for code attributed
// by file rather than by name).
const std::map<std::string, std::string> kFileSubLayers = {
    {"event_loop", "sim.event_loop"},
    {"network", "sim.network"},
    {"link", "sim.network"},
    {"send_history", "transport.send_history"},
    {"pacer", "transport.pacer"},
    {"gcc", "transport.gcc"},
    {"receive_buffer", "transport.receive_buffer"},
    {"forwarding_engine", "overlay.forwarding"},
    {"stream_context", "overlay.forwarding"},
    {"stream_fib", "overlay.forwarding"},
    {"recovery_engine", "overlay.recovery"},
    {"link_receiver", "overlay.recovery"},
    {"packet_cache", "overlay.recovery"},
    {"session_layer", "overlay.session"},
    {"frame_dropper", "overlay.session"},
    {"control_agent", "overlay.control"},
};

bool starts_with(const std::string& s, const char* p) {
  return s.rfind(p, 0) == 0;
}

bool is_alloc(const std::string& n) {
  static const std::set<std::string> names = {
      "malloc",        "free",          "calloc",       "realloc",
      "cfree",         "memalign",      "aligned_alloc", "posix_memalign",
      "sysmalloc",     "systrim",       "unlink_chunk", "malloc_consolidate",
      "arena_get2",    "grow_heap",     "shrink_heap",  "new_heap",
      "alloc_new_heap", "heap_trim",    "mmap",         "munmap",
      "__mmap",        "__munmap",      "brk",          "__brk",
      "sbrk",          "__sbrk",        "madvise",      "__madvise",
      "_mid_memalign", "__default_morecore", "__glibc_morecore"};
  return names.count(n) != 0 || starts_with(n, "operator new") ||
         starts_with(n, "operator delete") || starts_with(n, "_int_") ||
         starts_with(n, "__libc_malloc") || starts_with(n, "__libc_free") ||
         starts_with(n, "__libc_calloc") || starts_with(n, "__libc_realloc") ||
         starts_with(n, "__libc_memalign") || starts_with(n, "tcache") ||
         starts_with(n, "malloc_") ||
         n.find("counted_alloc") != std::string::npos;
}

bool is_rtti(const std::string& n) {
  return n == "__dynamic_cast" || starts_with(n, "__cxxabiv1::") ||
         starts_with(n, "std::type_info::");
}

/// The name with every template/parameter/bracket group removed.
std::string depth0(const std::string& s) {
  std::string out;
  int depth = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (depth == 0 && s.compare(i, 8, "operator") == 0) {
      // Keep operator symbols from opening groups: operator<, ->, ().
      out += "operator";
      i += 8;
      if (s.compare(i, 2, "()") == 0) {
        ++i;
        continue;
      }
      while (i < s.size() && std::strchr("<>=!+-*/%&|^~[],", s[i]) != nullptr) {
        ++i;
      }
      --i;
      continue;
    }
    const char c = s[i];
    if (c == '<' || c == '(' || c == '[') {
      ++depth;
    } else if (c == '>' || c == ')' || c == ']') {
      if (depth > 0) --depth;
    } else if (depth == 0) {
      out += c;
    }
  }
  return out;
}

std::vector<std::string> split_scope(const std::string& token) {
  std::vector<std::string> segs;
  std::size_t start = 0;
  while (start <= token.size()) {
    const std::size_t pos = token.find("::", start);
    const std::string seg = token.substr(
        start, pos == std::string::npos ? std::string::npos : pos - start);
    if (!seg.empty()) segs.push_back(seg);
    if (pos == std::string::npos) break;
    start = pos + 2;
  }
  return segs;
}

Attribution make(const std::string& layer, const std::string& cls) {
  Attribution a;
  a.layer = layer;
  const auto it = kSubLayers.find({layer, cls});
  if (it != kSubLayers.end()) a.sub = it->second;
  return a;
}

Attribution top_level(const std::string& name) {
  return kTopLevelUtil.count(name) != 0 ? make("util", name)
                                        : make("livenet", name);
}

std::string ident_at(const std::string& s, std::size_t pos) {
  std::size_t end = pos;
  while (end < s.size() && (std::isalnum(static_cast<unsigned char>(s[end])) ||
                            s[end] == '_')) {
    ++end;
  }
  return s.substr(pos, end - pos);
}

/// The first src/ module named anywhere in `name` (template arguments
/// of a library function), skipping the generic util templates.
bool first_mention(const std::string& name, Attribution* out) {
  static const std::string kNs = "livenet::";
  for (std::size_t pos = name.find(kNs); pos != std::string::npos;
       pos = name.find(kNs, pos + 1)) {
    const std::string first = ident_at(name, pos + kNs.size());
    if (first.empty()) continue;
    if (kModules.count(first) == 0) {
      *out = top_level(first);
      return true;
    }
    const std::size_t next = pos + kNs.size() + first.size();
    const std::string cls =
        name.compare(next, 2, "::") == 0 ? ident_at(name, next + 2) : "";
    if (first == "util" && kGenericUtil.count(cls) != 0) continue;
    *out = make(first, cls);
    return true;
  }
  return false;
}

}  // namespace

Attribution classify(const std::string& name) {
  if (is_alloc(name)) return Attribution{"runtime", "runtime.alloc"};
  if (is_rtti(name)) return Attribution{"runtime", "runtime.rtti"};

  // The owning scope: the last space-separated token of the name with
  // all groups removed (the return type, if any, comes first).
  const std::string flat = depth0(name);
  std::string owner;
  std::size_t start = 0;
  while (start < flat.size()) {
    std::size_t end = flat.find(' ', start);
    if (end == std::string::npos) end = flat.size();
    const std::string tok = flat.substr(start, end - start);
    if (tok.find("::") != std::string::npos) owner = tok;
    start = end + 1;
  }
  const std::vector<std::string> segs = split_scope(owner);
  Attribution a;
  if (!segs.empty() && segs[0] == "livenet" && segs.size() >= 2) {
    if (kModules.count(segs[1]) == 0) return top_level(segs[1]);
    const std::string cls = segs.size() >= 3 ? segs[2] : "";
    if (segs[1] == "util" && kGenericUtil.count(cls) != 0 &&
        first_mention(name, &a)) {
      return a;
    }
    return make(segs[1], cls);
  }
  if (!segs.empty() && segs[0] == "perfbench") return Attribution{};
  if (first_mention(name, &a)) return a;
  return Attribution{"runtime", ""};
}

void SymbolMap::load_link_map(const std::string& path) {
  std::ifstream in(path);
  std::string line, pending;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;) tok.push_back(t);
    // An input section is "name addr size object" on one line, or the
    // name alone followed by "addr size object" on the next.
    if (tok.size() == 1 && tok[0][0] == '.') {
      pending = tok[0];
      continue;
    }
    std::string name = pending;
    pending.clear();
    if (!tok.empty() && tok[0][0] == '.') {
      name = tok[0];
      tok.erase(tok.begin());
    }
    if (tok.size() != 3 || !starts_with(name, ".text") ||
        !starts_with(tok[0], "0x") || !starts_with(tok[1], "0x")) {
      continue;
    }
    // .../src/<module>/<file>.cpp.o
    const std::string& obj = tok[2];
    const std::size_t at = obj.rfind("/src/");
    const std::size_t ext = obj.rfind(".cpp.o");
    if (at == std::string::npos || ext == std::string::npos || ext < at) {
      continue;
    }
    const std::string rel = obj.substr(at + 5, ext - at - 5);
    const std::size_t slash = rel.find('/');
    if (slash == std::string::npos) continue;
    const std::string module = rel.substr(0, slash);
    const std::string file = rel.substr(slash + 1);
    if (kModules.count(module) == 0 && module != "livenet") continue;
    const std::uint64_t start = std::stoull(tok[0], nullptr, 16);
    const std::uint64_t size = std::stoull(tok[1], nullptr, 16);
    if (size == 0) continue;
    Attribution owner;
    owner.layer = module;
    const auto sub = kFileSubLayers.find(file);
    if (sub != kFileSubLayers.end() &&
        starts_with(sub->second, (module + ".").c_str())) {
      owner.sub = sub->second;
    }
    sections_.push_back(Section{start, start + size, owner});
  }
  std::sort(sections_.begin(), sections_.end(),
            [](const Section& a, const Section& b) { return a.start < b.start; });
}

const Attribution* SymbolMap::section_owner(std::uint64_t addr) const {
  auto it = std::upper_bound(
      sections_.begin(), sections_.end(), addr,
      [](std::uint64_t v, const Section& s) { return v < s.start; });
  if (it == sections_.begin()) return nullptr;
  --it;
  return addr < it->end ? &it->owner : nullptr;
}

bool SymbolMap::load() {
  std::ifstream f("/proc/self/exe", std::ios::binary);
  if (!f) return false;
  const std::vector<char> img((std::istreambuf_iterator<char>(f)),
                              std::istreambuf_iterator<char>());
  if (img.size() < sizeof(Elf64_Ehdr)) return false;
  Elf64_Ehdr eh;
  std::memcpy(&eh, img.data(), sizeof(eh));
  if (std::memcmp(eh.e_ident, ELFMAG, SELFMAG) != 0 ||
      eh.e_ident[EI_CLASS] != ELFCLASS64 ||
      eh.e_shoff + static_cast<std::uint64_t>(eh.e_shnum) * sizeof(Elf64_Shdr) >
          img.size()) {
    return false;
  }
  std::vector<Elf64_Shdr> sh(eh.e_shnum);
  std::memcpy(sh.data(), img.data() + eh.e_shoff,
              sh.size() * sizeof(Elf64_Shdr));

  // Load bias: 0 for a static non-PIE executable, the mapping base
  // otherwise (the first object dl_iterate_phdr reports is the program).
  std::uint64_t bias = 0;
  dl_iterate_phdr(
      [](dl_phdr_info* info, std::size_t, void* out) {
        *static_cast<std::uint64_t*>(out) = info->dlpi_addr;
        return 1;
      },
      &bias);

  for (const Elf64_Shdr& s : sh) {
    if (s.sh_type != SHT_SYMTAB || s.sh_link >= sh.size()) continue;
    const Elf64_Shdr& str = sh[s.sh_link];
    if (s.sh_offset + s.sh_size > img.size() ||
        str.sh_offset + str.sh_size > img.size()) {
      return false;
    }
    strtab_.assign(img.data() + str.sh_offset,
                   img.data() + str.sh_offset + str.sh_size);
    const std::size_t n = s.sh_size / sizeof(Elf64_Sym);
    for (std::size_t i = 0; i < n; ++i) {
      Elf64_Sym sym;
      std::memcpy(&sym, img.data() + s.sh_offset + i * sizeof(Elf64_Sym),
                  sizeof(sym));
      const int type = ELF64_ST_TYPE(sym.st_info);
      if ((type != STT_FUNC && type != STT_GNU_IFUNC) ||
          sym.st_shndx == SHN_UNDEF || sym.st_value == 0 ||
          sym.st_name >= strtab_.size()) {
        continue;
      }
      syms_.push_back(Sym{sym.st_value + bias, sym.st_size, sym.st_name, -1});
    }
  }
  std::sort(syms_.begin(), syms_.end(), [](const Sym& a, const Sym& b) {
    return a.addr != b.addr ? a.addr < b.addr : a.size > b.size;
  });
  char exe[4096];
  const ssize_t len = readlink("/proc/self/exe", exe, sizeof(exe) - 1);
  if (len > 0) {
    std::string dir(exe, static_cast<std::size_t>(len));
    dir = dir.substr(0, dir.rfind('/') + 1);
    load_link_map(dir + "perfbench.map");
  }
  return !syms_.empty();
}

const SymbolMap::Sym* SymbolMap::find(std::uint64_t pc) const {
  auto it = std::upper_bound(
      syms_.begin(), syms_.end(), pc,
      [](std::uint64_t v, const Sym& s) { return v < s.addr; });
  if (it == syms_.begin()) return nullptr;
  --it;
  // Of several symbols at one address, the first (largest) wins.
  while (it != syms_.begin() && (it - 1)->addr == it->addr) --it;
  const auto next = std::upper_bound(
      syms_.begin(), syms_.end(), it->addr,
      [](std::uint64_t v, const Sym& s) { return v < s.addr; });
  const std::uint64_t end =
      it->size > 0 ? it->addr + it->size
                   : (next != syms_.end() ? next->addr : it->addr + 1);
  return pc < end ? &*it : nullptr;
}

std::string SymbolMap::name_of(std::uint64_t pc) const {
  const Sym* s = find(pc);
  if (s == nullptr) return "?";
  const char* raw = strtab_.data() + s->name;
  int status = 0;
  char* dem = abi::__cxa_demangle(raw, nullptr, nullptr, &status);
  std::string out = status == 0 && dem != nullptr ? dem : raw;
  std::free(dem);
  return out;
}

std::uint64_t SymbolMap::function_of(std::uint64_t pc) const {
  const Sym* s = find(pc);
  return s != nullptr ? s->addr : 0;
}

const Attribution& SymbolMap::attribute(std::uint64_t pc) {
  const Sym* s = find(pc);
  if (s == nullptr) return none_;
  Sym& sym = syms_[static_cast<std::size_t>(s - syms_.data())];
  if (sym.cached < 0) {
    const std::string name = name_of(pc);
    Attribution a = classify(name);
    const Attribution* owner = section_owner(sym.addr);
    if (owner != nullptr &&
        starts_with(name, "livenet::util::InlineFunction::{lambda")) {
      a = *owner;
    }
    attrs_.push_back(a);
    sym.cached = static_cast<int>(attrs_.size() - 1);
  }
  return attrs_[static_cast<std::size_t>(sym.cached)];
}

}  // namespace perfbench
