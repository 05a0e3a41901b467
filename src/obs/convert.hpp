// JSONL trace -> Chrome about://tracing (Perfetto-compatible) converter.
//
// The conversion logic lives in the library so tests can exercise it
// directly; `hydra report --format chrome` is the command line. Mapping:
//
//   send / deliver  ->  instant events ("ph":"i") on the sender's / the
//                       receiver's thread track;
//   state           ->  instant events named "layer:what";
//   round_start/end ->  duration begin/end pairs ("ph":"B"/"E"), so each
//                       party's ΠAA iterations render as nested slices;
//   scalar          ->  counter tracks ("ph":"C"), e.g. Πinit estimates;
//   log             ->  instant events carrying the log line.
//
// One virtual tick is displayed as one microsecond. Party i becomes tid i
// (with a thread_name metadata record); pid is always 0.
#pragma once

#include <istream>
#include <ostream>

namespace hydra::obs {

/// Reads a JSONL trace from `in` and writes a Chrome trace-format JSON
/// document to `out`. Unknown or malformed lines are skipped. Returns the
/// number of events converted.
std::size_t chrome_trace_from_jsonl(std::istream& in, std::ostream& out);

}  // namespace hydra::obs
