// Per-job output oracle.
//
// A job fails on any wrong output: an `internal error:` row, an accepted
// cell that did not verify, a guard verdict, a synchronous cell whose three
// models (interpreter, FSMD simulator, emitted Verilog under vsim) disagree
// on value or exact cycle count, a serve status other than `ok`, or a digest
// that differs from the same job's digest elsewhere in the run.
#ifndef C2HBENCH_ORACLE_H
#define C2HBENCH_ORACLE_H

#include "core/c2h.h"

#include <string>
#include <vector>

namespace c2hbench {

// Empty when every row passes; else the first failure.
std::string checkRows(const std::vector<c2h::core::FlowComparison> &rows);

// Per-cell digest: flow, accepted, verified, cycles, area, fmax and cosim
// cycles of every row.  Identical across repeats and pool widths.
std::string rowDigest(const std::vector<c2h::core::FlowComparison> &rows);

// The same check over a serve response's status and rows.  Empty when the
// response passes; adds the rows' cosim cycles to `simCycles`.
std::string checkResponse(const std::string &response,
                          std::uint64_t &simCycles);

// A serve response with its `id`, `cache` and `timing` members removed: what
// a fresh one-shot CosimService must answer byte for byte.
std::string responseCore(const std::string &response);

// 64-bit FNV-1a (Verilog text fingerprints).
std::uint64_t fnv1a(const std::string &text);

} // namespace c2hbench

#endif // C2HBENCH_ORACLE_H
