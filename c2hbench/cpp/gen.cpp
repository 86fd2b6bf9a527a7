#include "gen.h"

#include <string>

namespace c2hbench {

using c2h::core::Workload;

namespace {

// Size ladders.  Each job (one program through all 11 flows with cosim)
// takes about 0.2-3 s serial on a 4-core x86 host at the seed commit; range
// analysis does almost all of that work, and grows superlinearly with size.
const unsigned kFirTaps[] = {16, 24, 32};
const unsigned kMatmulN[] = {4, 5, 6};
const unsigned kSortN[] = {8, 10, 11};

std::string num(std::int64_t v) { return std::to_string(v); }

// `x[i] = ((i * a + b) & mask) - bias;` with seeded odd multiplier a.
std::string fillLoop(const std::string &array, unsigned count, Rng &rng,
                     int mask, int bias) {
  std::int64_t a = rng.range(1, 40) * 2 + 1, b = rng.range(0, 255);
  return "  for (int i = 0; i < " + num(count) + "; i = i + 1) { " + array +
         "[i] = ((i * " + num(a) + " + " + num(b) + ") & " + num(mask) +
         ") - " + num(bias) + "; }\n";
}

} // namespace

Workload makeFir(unsigned taps, Rng &rng) {
  constexpr unsigned kSamples = 16;
  Workload w;
  w.name = "fir" + num(taps);
  w.description = "generated FIR, unrolled guarded taps";
  w.top = "main";
  w.checkGlobals = {"y"};
  w.iterations = kSamples;
  std::string coeff;
  for (unsigned k = 0; k < taps; ++k)
    coeff += (k ? ", " : "") + num(rng.range(-64, 64));
  std::string s = "const int coeff[" + num(taps) + "] = {" + coeff + "};\n";
  s += "int x[" + num(kSamples) + "];\nint y[" + num(kSamples) + "];\n";
  s += "int main() {\n";
  s += fillLoop("x", kSamples, rng, 63, 32);
  s += "  for (int n = 0; n < " + num(kSamples) + "; n = n + 1) {\n";
  s += "    int acc = 0;\n";
  s += "    unroll for (int k = 0; k < " + num(taps) + "; k = k + 1) {\n";
  s += "      if (n - k >= 0) { acc = acc + coeff[k] * x[n - k]; }\n";
  s += "    }\n    y[n] = acc;\n  }\n";
  s += "  int checksum = 0;\n";
  s += "  for (int i = 0; i < " + num(kSamples) +
       "; i = i + 1) { checksum = checksum ^ (y[i] * (i + 1)); }\n";
  s += "  return checksum;\n}\n";
  w.source = s;
  return w;
}

Workload makeMatmul(unsigned n, Rng &rng) {
  Workload w;
  w.name = "matmul" + num(n);
  w.description = "generated matrix product, unrolled inner product";
  w.top = "main";
  w.checkGlobals = {"c"};
  w.iterations = n * n;
  std::string nn = num(n * n), sn = num(n);
  std::string s = "int a[" + nn + "];\nint b[" + nn + "];\nint c[" + nn +
                  "];\nint main() {\n";
  s += fillLoop("a", n * n, rng, 31, 16);
  s += fillLoop("b", n * n, rng, 31, 16);
  s += "  for (int i = 0; i < " + sn + "; i = i + 1) {\n";
  s += "    for (int j = 0; j < " + sn + "; j = j + 1) {\n";
  s += "      int acc = 0;\n";
  s += "      unroll for (int k = 0; k < " + sn + "; k = k + 1) {\n";
  s += "        acc = acc + a[i * " + sn + " + k] * b[k * " + sn + " + j];\n";
  s += "      }\n      c[i * " + sn + " + j] = acc;\n    }\n  }\n";
  s += "  int checksum = 0;\n";
  s += "  for (int i = 0; i < " + nn +
       "; i = i + 1) { checksum = checksum + c[i] * (i + 1); }\n";
  s += "  return checksum;\n}\n";
  w.source = s;
  return w;
}

Workload makeOddEvenSort(unsigned n, Rng &rng) {
  Workload w;
  w.name = "oddeven-sort" + num(n);
  w.description = "generated odd-even transposition sort, unrolled stages";
  w.top = "main";
  w.checkGlobals = {"v"};
  w.iterations = n;
  std::string s = "int v[" + num(n) + "];\nint main() {\n";
  s += fillLoop("v", n, rng, 255, 128);
  for (unsigned stage = 0; stage < n; ++stage) {
    s += "  unroll for (int p = " + num(stage % 2) + "; p < " + num(n - 1) +
         "; p = p + 2) {\n";
    s += "    if (v[p] > v[p + 1]) { int t = v[p]; v[p] = v[p + 1]; "
         "v[p + 1] = t; }\n  }\n";
  }
  s += "  int checksum = 0;\n";
  s += "  for (int i = 0; i < " + num(n) +
       "; i = i + 1) { checksum = checksum * 3 + v[i]; }\n";
  s += "  return checksum;\n}\n";
  w.source = s;
  return w;
}

std::vector<Workload> scaledPass(std::uint64_t seed) {
  Rng rng(seed * 0x9e3779b97f4a7c15ull + 0x5ca1ed);
  std::vector<Workload> pass;
  for (unsigned taps : kFirTaps)
    pass.push_back(makeFir(taps, rng));
  for (unsigned n : kMatmulN)
    pass.push_back(makeMatmul(n, rng));
  for (unsigned n : kSortN)
    pass.push_back(makeOddEvenSort(n, rng));
  rng.shuffle(pass);
  return pass;
}

} // namespace c2hbench
