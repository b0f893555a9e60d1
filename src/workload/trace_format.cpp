#include "workload/trace_format.hpp"

#include <cmath>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/error.hpp"
#include "util/json.hpp"
#include "util/number.hpp"
#include "util/schemas.hpp"

namespace hepex::workload {
namespace {

namespace jn = util::json;

[[noreturn]] void fail_parse(const std::string& source, std::size_t line,
                             std::size_t column, const std::string& why) {
  fail_require(source + ": line " + std::to_string(line) + ", column " +
               std::to_string(column) + ": " + why);
}

/// One whitespace-delimited token with its 1-based start column.
struct Token {
  std::string text;
  std::size_t column = 0;
};

std::vector<Token> tokenize(const std::string& line) {
  std::vector<Token> out;
  std::size_t i = 0;
  while (i < line.size()) {
    if (line[i] == ' ' || line[i] == '\t') {
      ++i;
      continue;
    }
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    out.push_back(Token{line.substr(start, i - start), start + 1});
  }
  return out;
}

/// Cursor over one line's tokens; every error pins line and column.
class LineReader {
 public:
  LineReader(std::vector<Token> tokens, const std::string& source,
             std::size_t line, std::size_t line_length)
      : tokens_(std::move(tokens)),
        source_(source),
        line_(line),
        end_column_(line_length + 1) {}

  bool done() const { return next_ >= tokens_.size(); }

  const Token& take(const char* what) {
    if (done()) {
      fail_parse(source_, line_, end_column_,
                 std::string("expected ") + what + ", got end of line");
    }
    return tokens_[next_++];
  }

  /// The exact keyword `word` (a field label or unit token).
  void keyword(const char* word, const char* what) {
    const Token& t = take(what);
    if (t.text != word) {
      fail_parse(source_, line_, t.column,
                 std::string("expected ") + what + " '" + word + "', got '" +
                     t.text + "'");
    }
  }

  /// A strict finite number (the whole token must parse).
  double number(const char* what) {
    const Token& t = take(what);
    const util::ReadDouble r = util::read_double(t.text);
    if (r.used == 0 || r.used != t.text.size() || !std::isfinite(r.value)) {
      fail_parse(source_, line_, t.column,
                 std::string("expected a finite number for ") + what +
                     ", got '" + t.text + "'");
    }
    return r.value;
  }

  /// A non-negative integer (repeat counts, iteration totals).
  long long integer(const char* what) {
    const double v = number(what);
    const Token& t = tokens_[next_ - 1];
    if (std::floor(v) != v || v < 0.0 || v > 9007199254740992.0 /* 2^53 */) {
      fail_parse(source_, line_, t.column,
                 std::string("expected a non-negative integer for ") + what +
                     ", got '" + t.text + "'");
    }
    return static_cast<long long>(v);
  }

  /// A `<number> <unit>` pair; the unit token must match exactly.
  double quantity(const char* what, const char* unit) {
    const double v = number(what);
    keyword(unit, "unit");
    return v;
  }

  void finish() {
    if (!done()) {
      fail_parse(source_, line_, tokens_[next_].column,
                 "unexpected trailing token '" + tokens_[next_].text + "'");
    }
  }

  std::size_t line() const { return line_; }
  const std::string& source() const { return source_; }

 private:
  std::vector<Token> tokens_;
  std::size_t next_ = 0;
  const std::string& source_;
  std::size_t line_;
  std::size_t end_column_;
};

std::string nts(double v) { return jn::number_to_string(v); }

}  // namespace

std::string write_trace(const ProgramSpec& program) {
  program.validate();
  std::string out;
  out += util::schemas::kTrace;
  out += '\n';
  out += "# hepex workload trace (docs/workloads.md); units are declared\n";
  out += "# inline: inst, B/inst, B, cyc, cyc/core.\n";
  out += "meta name " + program.name + "\n";
  if (!program.suite.empty()) out += "meta suite " + program.suite + "\n";
  if (!program.language.empty()) {
    out += "meta language " + program.language + "\n";
  }
  if (!program.domain.empty()) out += "meta domain " + program.domain + "\n";
  out += "meta class " + to_string(program.input) + "\n";
  out += "meta pattern " + to_string(program.comm.pattern) + "\n";
  out += "iterations " + std::to_string(program.iterations) + "\n";
  out += "iter " + std::to_string(program.iterations) + "\n";
  const ComputeSpec& c = program.compute;
  out += "compute " + nts(c.instructions_per_iter) + " inst cpi " +
         nts(c.cpi_factor) + " stall " + nts(c.stall_factor) + " serial " +
         nts(c.serial_fraction) + " imbalance " + nts(c.imbalance) +
         " nodeimb " + nts(c.node_imbalance) + "\n";
  out += "memory stream " + nts(c.bytes_per_instruction) +
         " B/inst reuse " + nts(c.reuse_bytes_per_instruction) +
         " B/inst window " + nts(c.reuse_window_bytes) + " B wset " +
         nts(c.working_set_bytes) + " B\n";
  if (program.comm.base_bytes > 0.0 && program.comm.rounds > 0) {
    out += "message " + nts(program.comm.base_bytes) + " B rounds " +
           std::to_string(program.comm.rounds) + " cv " +
           nts(program.comm.size_cv) + "\n";
  }
  out += "barrier " + nts(program.sync.base_cycles) + " cyc " +
         nts(program.sync.cycles_per_total_core) + " cyc/core\n";
  out += "end\n";
  return out;
}

TraceDoc parse_trace(const std::string& text, const std::string& source,
                     const TraceLimits& limits) {
  if (text.size() > limits.max_bytes) {
    fail_require(source + ": trace exceeds the " +
                 std::to_string(limits.max_bytes) + "-byte document limit (" +
                 std::to_string(text.size()) + " bytes)");
  }

  TraceDoc doc;
  bool saw_magic = false;
  bool saw_name = false;
  bool saw_iterations = false;
  bool in_block = false;
  bool block_has_compute = false;
  bool block_has_memory = false;
  bool block_has_barrier = false;
  TraceBlock block;
  long long repeat_sum = 0;

  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    if (pos == text.size() && line_no > 0) break;
    const std::size_t eol = text.find('\n', pos);
    const std::size_t end = eol == std::string::npos ? text.size() : eol;
    const std::string line = text.substr(pos, end - pos);
    pos = end + 1;
    ++line_no;
    if (line.size() > limits.max_line_bytes) {
      fail_parse(source, line_no, limits.max_line_bytes + 1,
                 "line exceeds the " + std::to_string(limits.max_line_bytes) +
                     "-byte limit (" + std::to_string(line.size()) +
                     " bytes)");
    }

    if (!saw_magic) {
      if (line != util::schemas::kTrace) {
        fail_parse(source, line_no, 1,
                   std::string("not a workload trace (expected the '") +
                       util::schemas::kTrace + "' magic line, got \"" + line +
                       "\")");
      }
      saw_magic = true;
      continue;
    }

    std::vector<Token> tokens = tokenize(line);
    if (tokens.empty()) continue;                    // blank line
    if (tokens[0].text[0] == '#') continue;          // comment line
    LineReader r(std::move(tokens), source, line_no, line.size());
    const Token record = r.take("a record");

    if (record.text == "meta") {
      if (in_block || saw_iterations) {
        fail_parse(source, line_no, record.column,
                   "meta records must precede 'iterations'");
      }
      const Token key = r.take("a meta key");
      // Free-text meta values run to end of line, verbatim (names and
      // suites may contain spaces).
      auto rest = [&]() -> std::string {
        const std::size_t from =
            line.find_first_not_of(" \t", key.column - 1 + key.text.size());
        return from == std::string::npos ? std::string{} : line.substr(from);
      };
      if (key.text == "name") {
        doc.name = rest();
        if (doc.name.empty()) {
          fail_parse(source, line_no, key.column, "meta name is empty");
        }
        saw_name = true;
      } else if (key.text == "suite") {
        doc.suite = rest();
      } else if (key.text == "language") {
        doc.language = rest();
      } else if (key.text == "domain") {
        doc.domain = rest();
      } else if (key.text == "class") {
        const Token cls = r.take("an input class");
        try {
          doc.input = input_class_from_string(cls.text);
        } catch (const std::invalid_argument&) {
          fail_parse(source, line_no, cls.column,
                     "unknown input class '" + cls.text +
                         "' (use S, W, A, B or C)");
        }
        r.finish();
      } else if (key.text == "pattern") {
        const Token pat = r.take("a comm pattern");
        try {
          doc.pattern = comm_pattern_from_string(pat.text);
        } catch (const std::invalid_argument&) {
          fail_parse(source, line_no, pat.column,
                     "unknown comm pattern '" + pat.text +
                         "' (use halo-3d, wavefront, all-to-all or ring)");
        }
        r.finish();
      } else {
        fail_parse(source, line_no, key.column,
                   "unknown meta key '" + key.text +
                       "' (use name, suite, language, domain, class or "
                       "pattern)");
      }
      continue;
    }

    if (record.text == "iterations") {
      if (saw_iterations) {
        fail_parse(source, line_no, record.column,
                   "duplicate 'iterations' record");
      }
      doc.iterations = r.integer("iterations");
      if (doc.iterations < 1) {
        fail_parse(source, line_no, record.column,
                   "iterations must be >= 1");
      }
      r.finish();
      saw_iterations = true;
      continue;
    }

    if (record.text == "iter") {
      if (!saw_iterations) {
        fail_parse(source, line_no, record.column,
                   "'iter' before the 'iterations' total");
      }
      if (in_block) {
        fail_parse(source, line_no, record.column,
                   "'iter' inside an open block (missing 'end')");
      }
      if (doc.blocks.size() >= limits.max_blocks) {
        fail_parse(source, line_no, record.column,
                   "trace exceeds the " + std::to_string(limits.max_blocks) +
                       "-block limit");
      }
      block = TraceBlock{};
      block.repeat = r.done() ? 1 : r.integer("a repeat count");
      if (block.repeat < 1) {
        fail_parse(source, line_no, record.column,
                   "block repeat count must be >= 1");
      }
      r.finish();
      in_block = true;
      block_has_compute = block_has_memory = block_has_barrier = false;
      continue;
    }

    if (!in_block) {
      fail_parse(source, line_no, record.column,
                 "record '" + record.text +
                     "' outside an 'iter' block (expected meta, iterations "
                     "or iter)");
    }

    if (record.text == "compute") {
      if (block_has_compute) {
        fail_parse(source, line_no, record.column,
                   "duplicate 'compute' record in block");
      }
      block.instructions = r.quantity("instructions", "inst");
      r.keyword("cpi", "field");
      block.cpi = r.number("cpi");
      r.keyword("stall", "field");
      block.stall = r.number("stall");
      r.keyword("serial", "field");
      block.serial = r.number("serial");
      r.keyword("imbalance", "field");
      block.imbalance = r.number("imbalance");
      r.keyword("nodeimb", "field");
      block.node_imbalance = r.number("nodeimb");
      r.finish();
      block_has_compute = true;
    } else if (record.text == "memory") {
      if (block_has_memory) {
        fail_parse(source, line_no, record.column,
                   "duplicate 'memory' record in block");
      }
      r.keyword("stream", "field");
      block.stream_bytes_per_inst = r.quantity("stream", "B/inst");
      r.keyword("reuse", "field");
      block.reuse_bytes_per_inst = r.quantity("reuse", "B/inst");
      r.keyword("window", "field");
      block.reuse_window_bytes = r.quantity("window", "B");
      r.keyword("wset", "field");
      block.working_set_bytes = r.quantity("wset", "B");
      r.finish();
      block_has_memory = true;
    } else if (record.text == "message") {
      if (block.has_message) {
        fail_parse(source, line_no, record.column,
                   "duplicate 'message' record in block");
      }
      block.message_bytes = r.quantity("message volume", "B");
      r.keyword("rounds", "field");
      block.rounds = r.integer("rounds");
      r.keyword("cv", "field");
      block.size_cv = r.number("cv");
      r.finish();
      block.has_message = true;
    } else if (record.text == "barrier") {
      if (block_has_barrier) {
        fail_parse(source, line_no, record.column,
                   "duplicate 'barrier' record in block");
      }
      block.barrier_cycles = r.quantity("barrier cycles", "cyc");
      block.barrier_cycles_per_core =
          r.quantity("barrier growth", "cyc/core");
      r.finish();
      block_has_barrier = true;
    } else if (record.text == "end") {
      r.finish();
      if (!block_has_compute) {
        fail_parse(source, line_no, record.column,
                   "block has no 'compute' record");
      }
      if (!block_has_memory) {
        fail_parse(source, line_no, record.column,
                   "block has no 'memory' record");
      }
      if (!block_has_barrier) {
        fail_parse(source, line_no, record.column,
                   "block has no 'barrier' record");
      }
      repeat_sum += block.repeat;
      doc.blocks.push_back(block);
      in_block = false;
    } else {
      fail_parse(source, line_no, record.column,
                 "unknown record '" + record.text +
                     "' (use compute, memory, message, barrier or end)");
    }
  }

  if (!saw_magic) {
    fail_parse(source, 1, 1,
               std::string("empty document (expected the '") +
                   util::schemas::kTrace + "' magic line)");
  }
  if (in_block) {
    fail_parse(source, line_no, 1, "unterminated 'iter' block at end of "
                                   "document (missing 'end')");
  }
  if (!saw_name) {
    fail_parse(source, line_no, 1, "trace has no 'meta name' record");
  }
  if (!saw_iterations) {
    fail_parse(source, line_no, 1, "trace has no 'iterations' record");
  }
  if (doc.blocks.empty()) {
    fail_parse(source, line_no, 1, "trace has no 'iter' blocks");
  }
  if (repeat_sum != doc.iterations) {
    fail_parse(source, line_no, 1,
               "block repeats sum to " + std::to_string(repeat_sum) +
                   " but 'iterations' declares " +
                   std::to_string(doc.iterations));
  }
  return doc;
}

ProgramSpec lower_trace(const TraceDoc& doc) {
  HEPEX_REQUIRE(!doc.blocks.empty(), "trace has no blocks to lower");
  ProgramSpec p;
  p.name = doc.name;
  p.suite = doc.suite;
  p.language = doc.language;
  p.domain = doc.domain;
  p.input = doc.input;
  p.iterations = static_cast<int>(doc.iterations);
  p.comm.pattern = doc.pattern;

  if (doc.blocks.size() == 1) {
    // The common (generated) shape maps field-for-field — no averaging
    // arithmetic, so gen -> parse -> lower is bit-exact.
    const TraceBlock& b = doc.blocks.front();
    p.compute.instructions_per_iter = b.instructions;
    p.compute.cpi_factor = b.cpi;
    p.compute.stall_factor = b.stall;
    p.compute.serial_fraction = b.serial;
    p.compute.imbalance = b.imbalance;
    p.compute.node_imbalance = b.node_imbalance;
    p.compute.bytes_per_instruction = b.stream_bytes_per_inst;
    p.compute.reuse_bytes_per_instruction = b.reuse_bytes_per_inst;
    p.compute.reuse_window_bytes = b.reuse_window_bytes;
    p.compute.working_set_bytes = b.working_set_bytes;
    p.comm.base_bytes = b.has_message ? b.message_bytes : 0.0;
    p.comm.rounds = b.has_message ? static_cast<int>(b.rounds) : 0;
    p.comm.size_cv = b.has_message ? b.size_cv : p.comm.size_cv;
    p.sync.base_cycles = b.barrier_cycles;
    p.sync.cycles_per_total_core = b.barrier_cycles_per_core;
  } else {
    // Phase-varying traces collapse to the repeat-weighted mean demand
    // per iteration (the engine's ProgramSpec is per-iteration uniform).
    const double total = static_cast<double>(doc.iterations);
    auto wmean = [&](auto field) {
      double sum = 0.0;
      for (const TraceBlock& b : doc.blocks) {
        sum += static_cast<double>(b.repeat) * field(b);
      }
      return sum / total;
    };
    p.compute.instructions_per_iter =
        wmean([](const TraceBlock& b) { return b.instructions; });
    p.compute.cpi_factor = wmean([](const TraceBlock& b) { return b.cpi; });
    p.compute.stall_factor =
        wmean([](const TraceBlock& b) { return b.stall; });
    p.compute.serial_fraction =
        wmean([](const TraceBlock& b) { return b.serial; });
    p.compute.imbalance =
        wmean([](const TraceBlock& b) { return b.imbalance; });
    p.compute.node_imbalance =
        wmean([](const TraceBlock& b) { return b.node_imbalance; });
    p.compute.bytes_per_instruction =
        wmean([](const TraceBlock& b) { return b.stream_bytes_per_inst; });
    p.compute.reuse_bytes_per_instruction =
        wmean([](const TraceBlock& b) { return b.reuse_bytes_per_inst; });
    p.compute.reuse_window_bytes =
        wmean([](const TraceBlock& b) { return b.reuse_window_bytes; });
    p.compute.working_set_bytes =
        wmean([](const TraceBlock& b) { return b.working_set_bytes; });
    p.comm.base_bytes = wmean(
        [](const TraceBlock& b) { return b.has_message ? b.message_bytes : 0.0; });
    p.comm.rounds = static_cast<int>(std::llround(wmean([](const TraceBlock& b) {
      return b.has_message ? static_cast<double>(b.rounds) : 0.0;
    })));
    const double cv = wmean(
        [](const TraceBlock& b) { return b.has_message ? b.size_cv : 0.0; });
    if (cv > 0.0) p.comm.size_cv = cv;
    p.sync.base_cycles =
        wmean([](const TraceBlock& b) { return b.barrier_cycles; });
    p.sync.cycles_per_total_core =
        wmean([](const TraceBlock& b) { return b.barrier_cycles_per_core; });
  }

  p.validate();
  return p;
}

ProgramSpec load_trace_file(const std::string& path,
                            const TraceLimits& limits) {
  std::ifstream is(path);
  if (!is) {
    throw std::runtime_error("hepex: cannot open '" + path + "' for reading");
  }
  std::ostringstream ss;
  ss << is.rdbuf();
  return lower_trace(parse_trace(ss.str(), path, limits));
}

}  // namespace hepex::workload
