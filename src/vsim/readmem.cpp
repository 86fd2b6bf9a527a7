#include "vsim/readmem.h"

#include <cctype>

namespace c2h::vsim {

namespace {
// Entered by every $readmemh/$readmemb load, on every engine.
guard::Stage stageReadMem("vsim.readmem");
} // namespace

bool loadMemFile(const std::string &path, bool readHex, unsigned width,
                 std::vector<BitVector> &cells, guard::Verdict &verdict) {
  std::string contents;
  if (!guard::readFile(path, contents, verdict, stageReadMem))
    return false;
  auto malformed = [&](const std::string &why) {
    verdict = guard::Verdict{};
    verdict.kind = guard::Kind::IoError;
    verdict.stage = stageReadMem.name();
    verdict.site = path + ": " + why;
    return false;
  };
  std::uint64_t addr = 0;
  std::size_t i = 0, n = contents.size();
  while (i < n) {
    char c = contents[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && contents[i + 1] == '/') {
      while (i < n && contents[i] != '\n')
        ++i;
      continue;
    }
    if (c == '/' && i + 1 < n && contents[i + 1] == '*') {
      std::size_t end = contents.find("*/", i + 2);
      if (end == std::string::npos)
        return malformed("unterminated comment");
      i = end + 2;
      continue;
    }
    if (c == '@') {
      std::size_t start = ++i;
      std::uint64_t a = 0;
      while (i < n && std::isxdigit(static_cast<unsigned char>(contents[i])))
        a = a * 16 + static_cast<std::uint64_t>(
                         std::stoi(std::string(1, contents[i++]), nullptr, 16));
      if (i == start)
        return malformed("expected hex address after '@'");
      addr = a;
      continue;
    }
    // A value token: hex or binary digits (plus x/z/_, 2-state folds to 0).
    std::string hex;   // the token normalized to hex nibbles
    std::string bits;  // binary accumulation for $readmemb
    std::size_t start = i;
    for (; i < n && !std::isspace(static_cast<unsigned char>(contents[i]));
         ++i) {
      char d = contents[i];
      if (d == '_')
        continue;
      if (d == 'x' || d == 'X' || d == 'z' || d == 'Z')
        d = '0';
      if (readHex) {
        if (!std::isxdigit(static_cast<unsigned char>(d)))
          return malformed(std::string("bad hex digit '") + d + "'");
        hex += d;
      } else {
        if (d != '0' && d != '1')
          return malformed(std::string("bad binary digit '") + d + "'");
        bits += d;
      }
    }
    if (!readHex) {
      // Fold binary to hex, LSB-aligned.
      while (bits.size() % 4)
        bits.insert(bits.begin(), '0');
      for (std::size_t b = 0; b < bits.size(); b += 4) {
        int nib = (bits[b] - '0') * 8 + (bits[b + 1] - '0') * 4 +
                  (bits[b + 2] - '0') * 2 + (bits[b + 3] - '0');
        hex += "0123456789abcdef"[nib];
      }
    }
    if (hex.empty())
      hex = "0";
    bool ok = false;
    BitVector value = BitVector::fromString(width, "0x" + hex, &ok);
    if (!ok)
      return malformed("bad value token '" +
                       contents.substr(start, i - start) + "'");
    if (addr >= cells.size())
      return malformed("address " + std::to_string(addr) +
                       " out of range (depth " +
                       std::to_string(cells.size()) + ")");
    cells[addr] = std::move(value);
    ++addr;
  }
  return true;
}

} // namespace c2h::vsim
