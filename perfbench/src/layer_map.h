#pragma once

#include <cstdint>
#include <string>
#include <vector>

// Address -> layer attribution for the sampling profiler. A sampled
// program counter is looked up in the binary's own ELF symbol table
// (static functions included), the symbol is demangled, and the name
// is keyed to a layer: the src/ module whose namespace owns the
// function, or, for library templates (std::, util containers), the
// first src/ module named in the template arguments. The sub-layers
// are keyed on class. Allocator and RTTI code goes to `runtime`.
// Event-loop callback thunks (InlineFunction's type-erased invokers,
// whose mangled names do not carry the callable's type) go to the
// module of the source file they were compiled in, read off the link
// map; the sub-layers there are keyed on the file.
namespace perfbench {

struct Attribution {
  std::string layer;  ///< "sim", "overlay", ..., "runtime"; "" = unattributed
  std::string sub;    ///< e.g. "overlay.forwarding"; "" = none
};

/// Classifies one demangled (or plain C) symbol name.
Attribution classify(const std::string& name);

class SymbolMap {
 public:
  /// Reads the symbol table of the running executable, and the link
  /// map beside it when present.
  bool load();
  /// Attribution of the function containing `pc`; unattributed when no
  /// symbol covers it.
  const Attribution& attribute(std::uint64_t pc);
  /// Demangled name of the function containing `pc` ("?" if none).
  std::string name_of(std::uint64_t pc) const;
  /// Start address of that function (0 if none): a key for tallies.
  std::uint64_t function_of(std::uint64_t pc) const;

 private:
  struct Sym;
  const Sym* find(std::uint64_t pc) const;

  struct Sym {
    std::uint64_t addr;
    std::uint64_t size;
    std::uint32_t name;  ///< offset into strtab_
    int cached = -1;     ///< index into attrs_
  };
  /// An input section of the link: [start, end) came from src/<module>/<file>.
  struct Section {
    std::uint64_t start;
    std::uint64_t end;
    Attribution owner;
  };
  void load_link_map(const std::string& path);
  const Attribution* section_owner(std::uint64_t addr) const;

  std::vector<Sym> syms_;
  std::vector<char> strtab_;
  std::vector<Section> sections_;
  std::vector<Attribution> attrs_;
  Attribution none_;
};

}  // namespace perfbench
